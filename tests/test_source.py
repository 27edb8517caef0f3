"""Static checks on the package source, with no linter dependency."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "bosonlab"


def _module_level_names(tree):
    """Names a module defines at top level: functions, classes and assignment targets."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_every_module_level_name_is_read():
    # a name that appears only where it is defined is dead; dunders are exempt
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    text = "\n".join(sources.values())
    unread = [
        f"{module}.{name}"
        for module, source in sources.items()
        for name in _module_level_names(ast.parse(source))
        if not (name.startswith("__") and name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    ]
    assert unread == []
