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


def _config_keys(tree):
    """Names of the ``_key(...)`` fields of ExperimentConfig: the config keys."""
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    for node in config.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.value, ast.Call):
            if getattr(node.value.func, "id", None) == "_key":
                yield node.target.id


def test_every_config_key_is_read():
    # a key that only the generic parse and hash loops touch is dead: some
    # code must name it, as config.<key> or values["<key>"]
    reads = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                reads.add(node.attr)
            elif isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant):
                reads.add(node.slice.value)
    keys = list(_config_keys(ast.parse((SRC / "experiments.py").read_text())))
    assert len(keys) > 1
    assert [key for key in keys if key not in reads] == []
