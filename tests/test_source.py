"""Static checks on the package source, with no linter dependency."""

import ast
import importlib
import re
from pathlib import Path

import bosonlab

SRC = Path(__file__).resolve().parent.parent / "src" / "bosonlab"
README = SRC.parents[1] / "README.md"


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


def _attribute_loads(trees):
    """Every name that code in src/ (the given trees) or perfbench loads as .name."""
    readers = list(trees) + [
        ast.parse(path.read_text()) for path in sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    ]
    return {
        node.attr
        for tree in readers
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_class_method_is_read():
    # a method or property of a src/ class that no code reads as .name is dead;
    # perfbench counts as a reader, dunders are exempt
    trees = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = _attribute_loads(trees.values())
    unread = [
        f"{path.stem}.{cls.name}.{node.name}"
        for path, tree in trees.items()
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
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


def _imported_names(tree):
    """Names an import statement binds in the module, with no import resolved."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _read_names(tree):
    """Names the module loads, and for a package ``__init__`` the names in ``__all__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            yield from (elt.value for elt in node.value.elts)


def test_every_import_is_read():
    # an import no code reads is stale, as one left behind by a deleted function
    # would be; dunders are exempt
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = set(_read_names(tree))
        unread += [
            f"{path.stem}.{name}"
            for name in _imported_names(tree)
            if not (name.startswith("__") and name.endswith("__")) and name not in read
        ]
    assert unread == []


def test_readme_dotted_names_resolve():
    # a backticked a.b in README whose head is the package, a public name or a
    # module names code: it must resolve attribute by attribute, so that README
    # cannot keep naming what was renamed or deleted; a.py is a file name
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    modules = {path.stem for path in SRC.glob("*.py")}
    names = {
        name
        for span in re.findall(r"`([^`]+)`", text)
        for name in re.findall(r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", span)
        if not name.endswith(".py")
    }
    stale = []
    for name in sorted(names):
        head, *attrs = name.split(".")
        if head == "bosonlab":
            obj = bosonlab
        elif head in modules:
            obj = importlib.import_module(f"bosonlab.{head}")
        elif head in bosonlab.__all__:
            obj = getattr(bosonlab, head)
        else:
            continue
        for attr in attrs:
            if not hasattr(obj, attr):
                stale.append(name)
                break
            obj = getattr(obj, attr)
    assert len(names) > 5
    assert stale == []


def test_readme_calls_resolve():
    # a backticked call name( in README, name private or snake_case of two or more
    # parts of two or more characters, names a function or class of src/; single-letter
    # math such as T_k( is not code, and a dotted call is the dotted-name check's
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    calls = {
        name
        for span in re.findall(r"`([^`]+)`", text)
        for name in re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", span)
        if name.startswith("_") or re.fullmatch(r"[a-z][a-z0-9]+(?:_[a-z][a-z0-9]+)+", name)
    }
    defined = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    }
    assert len(calls) > 3
    assert sorted(calls - defined) == []


def test_readme_limits_table_has_one_row_per_limit():
    # every MAX_* of _limits.py, and nothing else, heads exactly one row of the table
    section = README.read_text().split("\n## Resource limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1].strip() for line in section.splitlines() if line.startswith("| ")]
    assert rows[0] == "limit"  # the header, then the separator row
    limits = sorted(name for name in vars(bosonlab._limits) if name.startswith("MAX_"))
    assert sorted(rows[2:]) == limits


def test_m_is_read_from_the_spec_only():
    # M, the largest order present, has one home: HamiltonianSpec.max_order in
    # operators.py; no other module reduces present_orders with max(
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "operators.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "max"
        and any(isinstance(n, ast.Attribute) and n.attr == "present_orders"
                for arg in node.args for n in ast.walk(arg))
    ]
    assert found == []


def test_a_terms_spectrum_is_taken_in_operators_only():
    # a term's spectrum has one home: HamiltonianSpec.extremes and the norms read off it, in
    # operators.py; no other function both reads .terms and decomposes with np.linalg
    found = [
        f"{path.name}:{func.name}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "operators.py"
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(n, ast.Attribute) and n.attr == "terms" for n in ast.walk(func))
        and any((isinstance(n, ast.Attribute) and n.attr in ("linalg", "operator_norm"))
                or (isinstance(n, ast.Name) and n.id == "operator_norm") for n in ast.walk(func))
    ]
    assert found == []


def _dataclass_fields(tree):
    """(class, field) for each annotated field of a ``@dataclass`` class."""
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef) and any(
            getattr(getattr(dec, "func", dec), "id", None) == "dataclass" for dec in cls.decorator_list
        ):
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    yield cls.name, node.target.id


def test_every_dataclass_field_is_read():
    # a field that no code loads as .name, in src/ or perfbench, and that src/
    # does not name in a string constant (a CSV column, a config key), is dead
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = _attribute_loads(trees) | {
        node.value
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    fields = [field for tree in trees for field in _dataclass_fields(tree)]
    assert len(fields) > 10
    assert [f"{cls}.{name}" for cls, name in fields if name not in read] == []
