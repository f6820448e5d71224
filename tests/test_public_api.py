"""Every name in a module's ``__all__`` has a caller in the package or the
benchmark harness.

A use is a load of the name (a call, an attribute read such as
``mazur.mazur_sphere_map`` or an annotation) anywhere under
``src/banachgap/`` or ``perfbench/``, outside the name's own ``def`` or
``class``.  Imports, ``__all__`` entries and string mentions do not count,
so a name that only its own tests call fails here.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "banachgap"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Public names kept without a caller in the package, each for its own reason.
KEPT = {
    "stabilized_map": "the paper's stabilized map; its tests check equivariance properties no other test checks",
    "read_action_file": "reads the action.txt that gross --out writes, and refuses malformed outside input",
    "kappa_residuals": "the seam where the tests compare the kappa kernel with its reference",
}


def _exported(path):
    """The names listed in the module's top-level ``__all__``."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return [elt.value for elt in node.value.elts]
    return []


def _uses(tree):
    """The names loaded (as a Name or an Attribute) outside a top-level def
    or class of the same name."""
    found = set()
    for top in tree.body:
        loads = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.add(node.attr)
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            loads.discard(top.name)
        found |= loads
    return found


def _used_names():
    return set().union(*(_uses(ast.parse(path.read_text())) for path in SOURCES))


EXPORTS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in _exported(path)]


def test_every_module_is_parsed():
    assert {"distortion", "groups", "mazur", "realization", "_kernels"} <= {module for module, _ in EXPORTS}
    assert set(KEPT) <= {name for _, name in EXPORTS}


def test_every_public_name_has_a_caller():
    used = _used_names()
    orphans = sorted(f"{module}.{name}" for module, name in EXPORTS if name not in used and name not in KEPT)
    assert not orphans, f"public names that nothing in src/banachgap or perfbench uses: {orphans}"


def test_kept_names_are_still_uncalled():
    """An exception that gains a caller no longer needs its entry."""
    used = _used_names()
    assert not sorted(name for name in KEPT if name in used)


@pytest.mark.parametrize(
    "source,uses",
    [
        ("def f():\n    return g(1)\n", True),
        ("x = mod.g\n", True),
        ("def f(a: g):\n    pass\n", True),
        ("raise ValueError('g needs at least one component')\n", False),
        ("def g():\n    return g()\n", False),
        ("x = g\ndef g():\n    pass\n", True),
        ("from m import g\n__all__ = ['g']\n", False),
    ],
)
def test_what_counts_as_a_use(source, uses):
    assert ("g" in _uses(ast.parse(source))) is uses
