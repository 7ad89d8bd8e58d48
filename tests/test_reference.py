"""The brute-force oracles stay out of the production path.

No production module imports ``omniex.reference``, which the source
checks below confirm.  At run time the package root imports it on the
first request for one of the reference names it re-exports, and the CLI
only inside ``selfcheck``; a child interpreter checks that the solver
commands never load it.
"""

import ast
import json
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import omniex
from omniex import fixtures

from conftest import child_env

# Runs the CLI commands given as a JSON list of argument lists, then
# reports their exit codes, whether ``omniex.reference`` was loaded, and
# how the root resolves reference names and an unknown name.
CHILD = r"""
import contextlib, io, json, sys
import omniex
from omniex.cli import main

with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
loaded = "omniex.reference" in sys.modules
from omniex import MulticastNetwork, dual, is_submodular
from omniex import reference
same = [MulticastNetwork is reference.MulticastNetwork, dual is reference.dual,
        is_submodular is reference.is_submodular]
try:
    omniex.no_such_name
    unknown = "resolved"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"codes": codes, "loaded": loaded, "same": same,
                  "unknown": unknown}))
"""

PMF = {"source": {"kind": "pmf", "alphabets": [2, 2, 2], "entries": {
    "0,0,0": 0.25, "0,1,1": 0.25, "1,0,1": 0.25, "1,1,0": 0.125, "1,1,1": 0.125}}}


def run_child(runs: list[list[str]]) -> dict:
    done = subprocess.run([sys.executable, "-c", CHILD, json.dumps(runs)],
                          env=child_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_solver_commands_never_load_reference(tmp_path):
    ex1 = str(fixtures.path("example1"))
    pmf = tmp_path / "pmf.json"
    pmf.write_text(json.dumps(PMF))
    report = run_child([["rates", ex1], ["ilp", ex1],
                        ["code", ex1, "--out", str(tmp_path / "scheme.json")],
                        ["verify", ex1, str(fixtures.path("example1_scheme"))],
                        ["rates", str(pmf)]])
    assert report["codes"] == [0] * 5
    assert report["loaded"] is False
    # The root still resolves the reference names, to the module's objects.
    assert report["same"] == [True] * 3
    assert report["unknown"] == "module 'omniex' has no attribute 'no_such_name'"


def test_selfcheck_loads_reference():
    report = run_child([["selfcheck", str(fixtures.path("example1"))]])
    assert report["codes"] == [0]
    assert report["loaded"] is True

PRODUCTION = ("field", "setfun", "sources", "rates", "netcode", "documents")


def imports_reference(source: str) -> bool:
    """Whether any import statement in ``source`` names a module or
    attribute called ``reference``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("reference" in path.split(".") for path in paths):
            return True
    return False


@pytest.mark.parametrize("module", PRODUCTION)
def test_production_module_does_not_import_reference(module):
    path = Path(omniex.__file__).with_name(f"{module}.py")
    assert not imports_reference(path.read_text())


def unused_imports(source: str) -> list[str]:
    """Names that an import statement in ``source`` binds and that no
    expression in it reads.  A deletion can leave such names behind, and
    no linter runs over the package."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


MODULES = sorted(path.stem for path in Path(omniex.__file__).parent.glob("*.py")
                 if path.stem != "__init__")


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    path = Path(omniex.__file__).with_name(f"{module}.py")
    assert unused_imports(path.read_text()) == []


# The FieldMatrix route to an elimination: each call stacks matrices or
# eliminates one afresh, where production eliminates rows it packed once.
FIELDMATRIX_CALLS = ("rank", "solve", "stacked", "stack")


def fieldmatrix_calls(source: str) -> list[int]:
    """Lines of ``source`` that call a name or method in
    ``FIELDMATRIX_CALLS``, outside the body of a function called
    ``stacked`` (``LinearSource.stacked``, the stacked view that the tests
    compare ranks against)."""
    lines = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef) and child.name == "stacked":
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in FIELDMATRIX_CALLS:
                    lines.append(child.lineno)
            visit(child)

    visit(ast.parse(source))
    return sorted(lines)


@pytest.mark.parametrize("module", [m for m in MODULES if m not in ("field", "reference")])
def test_production_module_eliminates_only_packed_rows(module):
    path = Path(omniex.__file__).with_name(f"{module}.py")
    assert fieldmatrix_calls(path.read_text()) == []


def test_packed_rows_check_sees_every_call_form():
    source = ("def stacked(self, mask):\n    return ff.stack(parts)\n"
              "x = self.stacked(3).rank()\n"
              "y = ff.stack(parts)\n"
              "z = stack(parts).solve(b)\n"
              "r = space.rank + len(rank_table)\n")
    assert fieldmatrix_calls(source) == [3, 3, 4, 5, 5]


def test_dead_import_check_sees_unused_names():
    source = ("from __future__ import annotations\nimport numpy as np\n"
              "import os.path\nfrom typing import Optional, Sequence\n"
              "from . import field as ff\n"
              "def f(x: Sequence[int]) -> int:\n    return ff.p(os.sep)\n")
    assert unused_imports(source) == ["Optional", "np"]


def test_boundary_check_sees_every_import_form():
    for source in ("from . import reference", "from .reference import dual",
                   "from omniex.reference import dual", "import omniex.reference",
                   "from omniex import reference", "def f():\n    from . import reference"):
        assert imports_reference(source), source
    assert not imports_reference("from .rates import verify_feasible")


def test_root_resolves_every_reference_name():
    from omniex import reference
    for name in sorted(omniex._REFERENCE):
        assert getattr(omniex, name) is getattr(reference, name), name


ROOT = Path(__file__).resolve().parent.parent


def root_imports(source: str) -> set[str]:
    """Names that ``from omniex import ...`` statements in ``source`` take
    from the package root."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "omniex"
            and node.level == 0 for alias in node.names}


def library_example() -> str:
    """The Python example under README's Library heading."""
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Library\n+```python\n(.*?)^```", readme,
                     re.M | re.S).group(1)


def test_root_exports_only_names_its_callers_import():
    sources = [path.read_text() for folder in ("tests", "perfbench")
               for path in sorted((ROOT / folder).glob("*.py"))]
    imported = set().union(*map(root_imports, sources + [CHILD, library_example()]))
    public = {name for name, value in vars(omniex).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(public - imported) == []
    assert sorted(omniex._REFERENCE - imported) == []


def test_root_import_check_sees_every_name_form():
    source = ("import omniex\nfrom omniex import (a, b as c)\n"
              "from omniex.rates import d\nfrom . import e\n"
              "def f():\n    from omniex import g\n")
    assert root_imports(source) == {"a", "b", "g"}
