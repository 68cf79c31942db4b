"""Repository hygiene, checked statically.

* every name in a ``repro`` package's ``__all__`` resolves;
* no ``src/`` module (``__init__`` files aside) imports a name at module
  level that it never uses, judged with :mod:`ast`;
* every backticked ``repro.*`` dotted name, ``Class.attr`` name of a
  ``repro`` class and repository path in ``DESIGN.md`` and ``README.md``
  resolves, so a deletion cannot leave the docs pointing at code that is
  gone.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
DOCS = ("DESIGN.md", "README.md")

PACKAGES = sorted(
    ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.ispkg
    ]
)
MODULES = sorted(
    path for path in SRC.rglob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in getattr(module, "__all__", ())
               if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names what it lacks: {missing}"


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Module-level imports: bound name -> line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, quoted annotations and ``__all__``
    entries included."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef,
                               ast.AsyncFunctionDef)):
            for ann in (getattr(node, "annotation", None),
                        getattr(node, "returns", None)):
                if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(ann.value))
                                if isinstance(n, ast.Name))
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_no_unused_module_imports(path):
    tree = ast.parse(path.read_text())
    used = _used_names(tree)
    unused = sorted(
        f"{name} (line {line})"
        for name, line in _imported_names(tree).items() if name not in used
    )
    assert not unused, f"{path.relative_to(ROOT)} never uses {unused}"


def _doc_references(doc: str) -> tuple[set[str], set[str], set[tuple]]:
    """Backticked ``repro.*`` dotted names, backticked paths whose first
    part is a top-level source tree or a ``repro`` subpackage, and
    backticked ``Name.attr`` pairs (``Name`` capitalised and not itself
    after a dot)."""
    roots = {"src", "tests", "benchmarks", "examples"} | {
        p.name for p in SRC.iterdir() if (p / "__init__.py").exists()}
    dotted, paths, pairs = set(), set(), set()
    for span in re.findall(r"`([^`\n]+)`", (ROOT / doc).read_text()):
        dotted.update(re.findall(r"\brepro(?:\.\w+)+", span))
        pairs.update(re.findall(r"(?<![\w.])([A-Z]\w*)\.(\w+)", span))
        if (re.fullmatch(r"[\w.-]+(/[\w.-]*)+", span)
                and span.split("/")[0] in roots):
            paths.add(span)
    return dotted, paths, pairs


def _class_attributes() -> dict[str, set[str]]:
    """Class name -> the attributes of every ``repro`` class of that name:
    what the class and its bases define, its dataclass fields, and what
    the methods of its ``repro`` bases assign to ``self``."""
    assigned = {}
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                assigned.setdefault(node.name, set()).update(
                    t.attr for n in ast.walk(node)
                    for t in getattr(n, "targets", [getattr(n, "target", 0)])
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name) and t.value.id == "self"
                )
    attrs = {}
    for path in MODULES:
        name = ".".join(("repro",) + path.relative_to(SRC).with_suffix("").parts)
        if name == "repro.__main__":
            continue
        for cls in vars(importlib.import_module(name)).values():
            if not (inspect.isclass(cls) and cls.__module__ == name):
                continue
            found = attrs.setdefault(cls.__name__, set())
            found.update(dir(cls))
            if dataclasses.is_dataclass(cls):
                found.update(f.name for f in dataclasses.fields(cls))
            for base in cls.__mro__:
                if base.__module__.startswith("repro"):
                    found.update(assigned.get(base.__name__, ()))
    return attrs


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_doc_references_resolve(doc):
    dotted, paths, _pairs = _doc_references(doc)
    assert dotted and paths
    broken = sorted(name for name in dotted if not _resolves(name)) + sorted(
        path for path in paths
        if not (ROOT / path).exists() and not (SRC / path).exists())
    assert not broken, f"{doc} names what does not exist: {broken}"


@pytest.mark.parametrize("doc", DOCS)
def test_doc_class_attributes_resolve(doc):
    attrs = _class_attributes()
    pairs = {(cls, attr) for cls, attr in _doc_references(doc)[2]
             if cls in attrs}
    assert pairs
    broken = sorted(f"{cls}.{attr}" for cls, attr in pairs
                    if attr not in attrs[cls])
    assert not broken, f"{doc} names attributes that do not exist: {broken}"
