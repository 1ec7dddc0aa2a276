"""Stdlib-ast stand-ins for two linter rules: unused imports and dead private names.

Every imported name is used. Package ``__init__.py`` files are skipped, since
their imports are the re-exported API, and so are ``from __future__`` imports.

Every single-underscore name that a module of ``src/qfhe`` defines at top level
is read somewhere in ``src/qfhe``, ``tests`` or ``scripts``.

Every top-level def, class and assignment of ``src/qfhe`` is reached from the
package's entry points: ``qfhe.__all__``, ``cli.entry`` and the module entry
points README documents. Code that only tests reach belongs in the oracles.

The package's ``__all__`` lists exactly the public names it binds, once each,
and the demos and the benchmark's workloads take only those from the package.

No module of ``src/qfhe`` or ``scripts`` reads a name that numpy 2 added, since
``pyproject.toml`` declares ``numpy>=1.24``.

Importing ``qfhe`` and ``qfhe.cli`` loads, beyond numpy and the stdlib modules
the package imports itself, only the package's own modules and ``__future__``:
the benchmark's set-up time includes that import.
"""
from __future__ import annotations

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import qfhe

ROOT = Path(__file__).resolve().parent.parent
ALL_SOURCES = sorted(path for folder in ("src/qfhe", "tests", "scripts") for path in (ROOT / folder).rglob("*.py"))
SOURCES = [path for path in ALL_SOURCES if path.name != "__init__.py"]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import statement and never read anywhere in the module."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds "a"
                imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert not unused_imports(ast.parse(path.read_text(), str(path)))


def test_detector_flags_an_unused_name():
    tree = ast.parse("from __future__ import annotations\nimport os, os.path\nfrom m import a, b as c\nc(a)\n")
    assert unused_imports(tree) == ["line 2: os"]


def top_level_definitions(tree: ast.Module):
    """(name, node) for each name bound at module level by an assignment, def or class, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names if not name.startswith("__"))


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Single-underscore names bound at module level by an assignment, def or class."""
    defined: dict[str, int] = {}
    for name, node in top_level_definitions(tree):
        if name.startswith("_"):
            defined.setdefault(name, node.lineno)
    return defined


def names_read(tree: ast.AST) -> set[str]:
    """Names loaded, attributes loaded, and names imported from another module."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def dead_private_names(defining: dict[str, ast.Module], reading: list[ast.Module]) -> list[str]:
    read = set().union(*(names_read(tree) for tree in reading))
    return [
        f"{where} line {line}: {name}"
        for where, tree in defining.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def test_no_dead_private_names():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in ALL_SOURCES}
    package = ROOT / "src" / "qfhe"
    defining = {str(p.relative_to(ROOT)): t for p, t in trees.items() if p.is_relative_to(package)}
    assert not dead_private_names(defining, list(trees.values()))


def test_detector_flags_a_dead_private_name():
    module = ast.parse(
        "_dead = 1\n_a, _b = 2, 3\n_c: int = 4\n__dunder__ = 5\npublic = 6\n"
        "def _f():\n    _local = _c\n    return _local\n"
        "class _K:\n    _attr = 7\n"
        "_dead2 = 8\n_dead2 = 9\n"
    )
    # a store is not a read: m._dead stays dead
    reader = ast.parse("from m import _f\nimport m\nprint(m._b, m._K)\nm._dead = 0\n")
    assert dead_private_names({"m": module}, [module, reader]) == [
        "m line 1: _dead", "m line 2: _a", "m line 11: _dead2"
    ]


def unreached_definitions(modules: dict[str, ast.Module], roots) -> list[str]:
    """Top-level definitions that no walk from the root names reaches.

    A reached definition reaches every top-level definition, in any module, of
    each name it reads (``names_read``, its decorators included): a name read
    anywhere keeps every definition of that name.
    """
    defined: dict[str, list[tuple[str, ast.AST]]] = {}
    for where, tree in modules.items():
        for name, node in top_level_definitions(tree):
            defined.setdefault(name, []).append((where, node))
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached and name in defined:
            reached.add(name)
            todo += [read for _, node in defined[name] for read in names_read(node)]
    return [f"{where} line {node.lineno}: {name}"
            for name, found in defined.items() if name not in reached for where, node in found]


#: module entry points that README documents beyond ``qfhe.__all__``, as module.name
DOCUMENTED_ENTRY_POINTS = ("rewrite.scheme_evaluate", "rewrite.rewrite_gate")


def test_every_definition_in_the_package_is_reached():
    readme = (ROOT / "README.md").read_text()
    assert all(f"`{entry}" in readme for entry in DOCUMENTED_ENTRY_POINTS)
    package = ROOT / "src" / "qfhe"
    modules = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    for entry in DOCUMENTED_ENTRY_POINTS:
        where, name = entry.split(".")
        assert name in dict(top_level_definitions(modules[where]))
    roots = [*qfhe.__all__, "entry", *(entry.split(".")[1] for entry in DOCUMENTED_ENTRY_POINTS)]
    assert unreached_definitions(modules, roots) == []


def test_detector_flags_an_unreached_definition():
    modules = {
        "m": ast.parse(
            "import os\n_TABLE = {1: 2}\n"
            "def root():\n    return helper(_TABLE)\n"
            "@_cache\ndef helper(x):\n    return K().method(x)\n"
            "class K:\n    def method(self):\n        return _inner()\n"
            "def _inner():\n    os.sep\n"
            "def _dead():\n    return _only_from_dead(root)\n"
            "def _only_from_dead(f):\n    pass\n"
            "_cache = functools.lru_cache\nDEAD = _dead\n__all__ = ['root']\n"
        ),
        "n": ast.parse("def method():\n    pass\ndef unused():\n    pass\n_TABLE = None\n"),
    }
    # a decorator is read by its def; a name read reaches its definitions in every module,
    # and a dead definition reaches nothing
    assert unreached_definitions(modules, ["root"]) == [
        "m line 13: _dead", "m line 15: _only_from_dead", "m line 18: DEAD", "n line 3: unused"
    ]


def test_all_lists_exactly_the_bound_public_names():
    assert len(qfhe.__all__) == len(set(qfhe.__all__))
    bound = {
        name for name, value in vars(qfhe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(qfhe.__all__) == bound


def package_names_taken(tree: ast.Module) -> dict[str, int]:
    """Names taken from the package, by first line: ``from qfhe import X`` and reads of ``q.X`` or ``self.q.X``."""
    taken: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "qfhe":
            for alias in node.names:
                taken.setdefault(alias.name, node.lineno)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            owner = node.value
            if (owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)) == "q":
                taken.setdefault(node.attr, node.lineno)
    return taken


#: the demos and the benchmark's workloads, which reach the package only through its public names
API_CALLERS = [*sorted((ROOT / "scripts").glob("*.py")), ROOT / "perfbench" / "workloads.py"]


@pytest.mark.parametrize("path", API_CALLERS, ids=lambda p: str(p.relative_to(ROOT)))
def test_demos_and_workloads_use_only_the_public_api(path):
    public = {*qfhe.__all__, "cli"}
    taken = package_names_taken(ast.parse(path.read_text(), str(path)))
    assert {name: line for name, line in taken.items() if name not in public} == {}


def test_detector_finds_the_package_names_taken():
    tree = ast.parse(
        "from qfhe import a, b\nfrom qfhe.cli import main\nimport qfhe\n"
        "def f(q):\n    q.c(q.a)\n    self.q.d\n    q.e = 1\n    other.f\n    q.cli.main\n"
    )
    assert package_names_taken(tree) == {"a": 1, "b": 1, "c": 5, "d": 6, "cli": 9}


#: names numpy 2 added, by the module that holds them; "" holds ndarray attributes
NUMPY2_ONLY = {
    "": {"mT"},
    "numpy": {
        "concat", "permute_dims", "matrix_transpose", "vecdot", "astype", "bitwise_count",
        "unstack", "isdtype", "cumulative_sum", "bool", "trapezoid",
    },
    "numpy.linalg": {"matrix_transpose", "vecdot", "vector_norm", "matrix_norm", "svdvals"},
}


def numpy2_names(tree: ast.Module) -> list[str]:
    """Reads of NUMPY2_ONLY names: attributes of np, numpy, np.linalg or any array, and imports."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            owner = ast.unparse(node.value)
            if owner == "np" or owner.startswith("np."):
                owner = "numpy" + owner[2:]
            if node.attr in NUMPY2_ONLY[""] or node.attr in NUMPY2_ONLY.get(owner, ()):
                found.append(f"line {node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: {node.module}.{alias.name}" for alias in node.names
                      if alias.name in NUMPY2_ONLY.get(node.module, ())]
    return found


@pytest.mark.parametrize(
    "path", [p for p in ALL_SOURCES if not p.is_relative_to(ROOT / "tests")], ids=lambda p: str(p.relative_to(ROOT))
)
def test_no_numpy2_only_names(path):
    assert not numpy2_names(ast.parse(path.read_text(), str(path)))


def test_detector_flags_numpy2_names():
    tree = ast.parse(
        "import numpy as np\nimport numpy\nfrom numpy import concat, stack\nfrom numpy.linalg import svdvals, norm\n"
        "a.mT\nnp.concat\nnumpy.bool\nnp.linalg.vecdot\nnp.linalg.norm\nnp.bool_\nlinalg.vecdot\nx.astype\nnp.swapaxes\n"
    )
    assert numpy2_names(tree) == [
        "line 3: numpy.concat", "line 4: numpy.linalg.svdvals",
        "line 5: a.mT", "line 6: np.concat", "line 7: numpy.bool", "line 8: np.linalg.vecdot",
    ]


def direct_imports() -> list[str]:
    """The absolute modules ``src/qfhe`` imports anywhere, ``__future__`` aside, sorted."""
    found = set()
    for path in sorted((ROOT / "src" / "qfhe").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module != "__future__":
                found.add(node.module)
    return sorted(found)


def modules_added_by(statement: str) -> list[str]:
    """Modules a fresh interpreter adds to sys.modules running statement after importing ``direct_imports()``."""
    code = (
        f"import sys\nimport {', '.join(direct_imports())}\nbefore = set(sys.modules)\n"
        f"{statement}\nprint(*sorted(set(sys.modules) - before))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env).stdout.split()


def test_the_package_imports_only_numpy_and_the_stdlib():
    assert "numpy" in direct_imports()
    assert [m for m in direct_imports() if m != "numpy" and m.split(".")[0] not in sys.stdlib_module_names] == []


def test_importing_the_package_loads_only_its_own_modules():
    added = modules_added_by("import qfhe, qfhe.cli")
    assert "qfhe.cli" in added
    assert [m for m in added if m not in ("qfhe", "__future__") and not m.startswith("qfhe.")] == []


def test_detector_sees_a_module_the_import_adds():
    assert "fractions" in modules_added_by("import qfhe, qfhe.cli, fractions")
