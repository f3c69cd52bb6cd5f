"""Every dotted package name that README.md cites in inline code resolves."""

import functools
import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "devices", "experiment", "logic", "modmath", "mub")
# a dotted name in an inline code span, rooted at a package module or at
# mublogic, and not the tail of a path or of a longer dotted name
DOTTED = re.compile(r"(?<![\w./-])((?:mublogic|%s)(?:\.\w+)+)" % "|".join(MODULES))


def resolve(name: str):
    """The object a cited name stands for, by import plus getattr."""
    parts = name.removeprefix("mublogic.").split(".")
    module = f"mublogic.{parts.pop(0)}" if parts[0] in MODULES else "mublogic"
    return functools.reduce(getattr, parts, importlib.import_module(module))


def test_dotted_names_in_readme_resolve():
    spans = re.findall(r"`([^`\n]+)`", README.read_text())
    names = {match for span in spans for match in DOTTED.findall(span)}
    assert "cli.MAX_D" in names and "mublogic.devices.trial_uniforms" in names
    unresolved = []
    for name in sorted(names):
        try:
            resolve(name)
        except (AttributeError, ImportError):
            unresolved.append(name)
    assert unresolved == []
