"""Every module-level function and class of the package has a caller outside
the tests, and every parameter default of the package is a knob some caller
outside the tests turns.

A definition counts as called when src/ loads its name, as a Name or an
Attribute, anywhere outside the definition itself. A slow path that only the
tests call belongs in tests/reference.py, so that reference code cannot grow
back into the package.

A default counts as overridden when a call of that function's name in src/
or perfbench/ passes the parameter by position or by keyword; perfbench/ is
read for the argv it hands to cli.main. A default that no caller overrides
is an option nothing uses.
"""

import ast
from collections import defaultdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
PACKAGE = sorted((REPO / "src" / "mublogic").glob("*.py"))
PERFBENCH = sorted((REPO / "perfbench").glob("*.py"))


def test_every_module_level_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PACKAGE}
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


def test_every_parameter_default_is_overridden_outside_tests():
    calls = defaultdict(list)  # name -> the calls of that name
    for path in PACKAGE + PERFBENCH:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                calls[func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)].append(node)
    unturned = []
    for path in PACKAGE:
        for function in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(function, ast.FunctionDef):
                continue
            spec = function.args
            positional = spec.posonlyargs + spec.args
            defaulted = list(enumerate(arg.arg for arg in positional))
            defaulted = defaulted[len(positional) - len(spec.defaults):]
            defaulted += [(None, arg.arg) for arg, default in zip(spec.kwonlyargs, spec.kw_defaults)
                          if default is not None]
            for index, name in defaulted:
                if not any((index is not None and len(call.args) > index)
                           or any(keyword.arg == name for keyword in call.keywords)
                           for call in calls[function.name]):
                    unturned.append(f"{path.name}:{function.lineno} {function.name}({name}=...)")
    assert unturned == []
