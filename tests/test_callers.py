"""Every module-level function and class of the package has a caller outside
the tests.

A definition counts as called when src/ or scripts/ loads its name, as a
Name or an Attribute, anywhere outside the definition itself. A slow path
that only the tests call belongs in tests/reference.py, so that reference
code cannot grow back into the package.
"""

import ast
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src" / "mublogic").glob("*.py"))
SCRIPTS = sorted((REPO / "scripts").glob("*.py"))


def test_every_module_level_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE + SCRIPTS}
    loads = defaultdict(list)  # name -> the nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads[node.id].append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads[node.attr].append(node)
    uncalled = []
    for path in PACKAGE:
        for definition in trees[path].body:
            if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)):
                continue
            inside = set(map(id, ast.walk(definition)))
            if all(id(node) in inside for node in loads[definition.name]):
                uncalled.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert uncalled == []
