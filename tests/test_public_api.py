"""Every name in a module's ``__all__``, every class member and every
defaulted parameter under ``src/banachgap/`` has a caller.

- **Names.** A use is a load of the name (a call, an attribute read such as
  ``mazur.mazur_sphere_map`` or an annotation) anywhere under
  ``src/banachgap/`` or ``perfbench/``, outside the name's own ``def`` or
  ``class``.  Imports, ``__all__`` entries and string mentions do not count,
  so a name that only its own tests call fails here.
- **Members.** Each method, property and cached property of a class must be
  loaded as an attribute in those files, outside a ``def`` of the same name.
  Dunder methods are exempt, and so are dataclass fields: they are records,
  not members.
- **Parameters.** Each parameter with a default, in every function and
  method (private and nested ones included), must be set by a call under
  ``src/banachgap/``, ``perfbench/`` or ``tools/``: by keyword, by position
  (after ``self`` for a method called as an attribute), or by unpacking
  ``**kwargs``.  Unpacking ``*args`` can set positional parameters but not
  keyword-only ones.  A called name resolves through ``from ... import ...
  as`` aliases, so ``spectral_gap(...)`` calls ``gap``.

Members and calls are matched by name alone.  So a member escapes when
another attribute has its name (a property ``d`` would pass on the loads of
``MetricTable.d``), and a parameter escapes when another function of the
same name sets it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "banachgap"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "tools").glob("*.py"))

# Items kept without a caller, each for its own reason: a public name, a
# ``Class.member`` or a ``function(parameter)``.
KEPT = {
    "stabilized_map": "the paper's stabilized map; its tests check equivariance properties no other test checks",
    "read_action_file": "reads the action.txt that gross --out writes, and refuses malformed outside input",
    "kappa_residuals": "the seam where the tests compare the kappa kernel with its reference",
}


def _tree(path):
    return ast.parse(path.read_text())


def _exported(path):
    """The names listed in the module's top-level ``__all__``."""
    for node in _tree(path).body:
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
    return set().union(*(_uses(_tree(path)) for path in SOURCES))


EXPORTS = [(path.stem, name) for path in sorted(PACKAGE.glob("*.py")) for name in _exported(path)]

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _methods(tree):
    """The ``(class, def)`` pairs of the functions defined in a class body."""
    return [(cls, node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body if isinstance(node, _FUNCTIONS)]


def _members(tree):
    """``Class.member`` and the member's name for each method, property and
    cached property that is not a dunder."""
    return {
        f"{cls.name}.{node.name}": node.name
        for cls, node in _methods(tree)
        if not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _attribute_loads(tree):
    """The attribute names loaded outside a def of the same name."""
    found = set()

    def visit(node, inside):
        if isinstance(node, _FUNCTIONS):
            inside = inside | {node.name}
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr not in inside:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return found


def _defaults(tree):
    """``(function, parameter, index)`` for each parameter with a default;
    ``index`` counts the positional arguments of a call (after ``self`` for
    a method) and is None for a keyword-only parameter."""
    methods = {id(node) for _, node in _methods(tree)}  # the package has no static or class methods
    for node in ast.walk(tree):
        if not isinstance(node, _FUNCTIONS):
            continue
        a = node.args
        positional = [x.arg for x in a.posonlyargs + a.args]
        skip = 1 if id(node) in methods else 0
        first = len(positional) - len(a.defaults)
        for i in range(first, len(positional)):
            yield node.name, positional[i], i - skip
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def _calls(tree):
    """``(name, positional, starred, keywords)`` per call of a plain or
    attribute name: the positional arguments before any ``*args``, whether
    there is one, and the keyword names (None for ``**kwargs``)."""
    aliases = {a.asname: a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names if a.asname}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name):
            name = aliases.get(f.id, f.id)
        elif isinstance(f, ast.Attribute):
            name = f.attr
        else:
            continue
        starred = [i for i, x in enumerate(node.args) if isinstance(x, ast.Starred)]
        yield name, starred[0] if starred else len(node.args), bool(starred), {k.arg for k in node.keywords}


def _unset(defining, calling):
    """``function(parameter)`` for each defaulted parameter in the trees
    ``defining`` that no call in the trees ``calling`` sets."""
    calls = {}
    for tree in calling:
        for name, *call in _calls(tree):
            calls.setdefault(name, []).append(call)
    unset = set()
    for tree in defining:
        for fn, param, index in _defaults(tree):
            if not any(
                None in keywords or param in keywords or (index is not None and (index < positional or starred))
                for positional, starred, keywords in calls.get(fn, [])
            ):
                unset.add(f"{fn}({param})")
    return unset


def _unused_members():
    loads = set().union(*(_attribute_loads(_tree(path)) for path in SOURCES))
    members = {}
    for path in sorted(PACKAGE.glob("*.py")):
        members.update(_members(_tree(path)))
    return {item for item, name in members.items() if name not in loads}


def _unset_defaults():
    return _unset([_tree(path) for path in sorted(PACKAGE.glob("*.py"))], [_tree(path) for path in CALLERS])


def test_every_module_is_parsed():
    assert {"distortion", "groups", "mazur", "realization", "_kernels"} <= {module for module, _ in EXPORTS}
    assert {name for name in KEPT if "." not in name and "(" not in name} <= {name for _, name in EXPORTS}


def test_every_public_name_has_a_caller():
    used = _used_names()
    orphans = sorted(f"{module}.{name}" for module, name in EXPORTS if name not in used and name not in KEPT)
    assert not orphans, f"public names that nothing in src/banachgap or perfbench uses: {orphans}"


def test_every_member_has_a_caller():
    orphans = sorted(_unused_members() - set(KEPT))
    assert not orphans, f"class members that nothing in src/banachgap or perfbench loads: {orphans}"


def test_every_default_is_set_by_a_call():
    unset = sorted(_unset_defaults() - set(KEPT))
    assert not unset, f"defaulted parameters that no call in src/banachgap, perfbench or tools sets: {unset}"


def test_kept_names_are_still_uncalled():
    """An exception that gains a caller no longer needs its entry."""
    used = _used_names()
    uncalled = {name for _, name in EXPORTS if name not in used} | _unused_members() | _unset_defaults()
    assert not sorted(name for name in KEPT if name not in uncalled)


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


@pytest.mark.parametrize(
    "source,unused",
    [
        ("class C:\n    def m(self):\n        pass\nx = y.m()\n", set()),
        ("class C:\n    @property\n    def m(self):\n        return 1\n", {"C.m"}),
        ("class C:\n    def m(self):\n        return self.m()\n", {"C.m"}),
        ("class C:\n    m: int = 0\n    def __len__(self):\n        return 0\n", set()),
    ],
)
def test_what_counts_as_a_member_use(source, unused):
    tree = ast.parse(source)
    assert {item for item, name in _members(tree).items() if name not in _attribute_loads(tree)} == unused


@pytest.mark.parametrize(
    "source,unset",
    [
        ("def f(a=1):\n    pass\nf()\n", True),
        ("def f(a=1):\n    pass\nf(2)\n", False),
        ("def f(a=1):\n    pass\nm.f(a=2)\n", False),
        ("def f(*, a=1):\n    pass\nf(**kw)\n", False),
        ("def f(a=1):\n    pass\nf(*args)\n", False),
        ("def f(*, a=1):\n    pass\nf(*args)\n", True),
        ("from m import f as g\ndef f(a=1):\n    pass\ng(2)\n", False),
        ("class C:\n    def f(self, a=1):\n        pass\nx.f(2)\n", False),
        ("class C:\n    def f(self, b, a=1):\n        pass\nx.f(2)\n", True),
    ],
)
def test_what_sets_a_parameter(source, unset):
    tree = ast.parse(source)
    assert (_unset([tree], [tree]) == {"f(a)"}) is unset
