"""The brute-force oracles stay out of the production path.

``omniex/__init__`` re-exports ``omniex.reference``, so the module is
always loaded at run time; the boundary is checked on the source instead.
"""

import ast
from pathlib import Path

import pytest

import omniex

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


def test_boundary_check_sees_every_import_form():
    for source in ("from . import reference", "from .reference import dual",
                   "from omniex.reference import dual", "import omniex.reference",
                   "from omniex import reference", "def f():\n    from . import reference"):
        assert imports_reference(source), source
    assert not imports_reference("from .rates import verify_feasible")
