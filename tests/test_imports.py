"""Every import in the package's modules is used by that module and sits at
module level, every private module-level definition is used somewhere in
the package, every name the package exports is used by it or is a named
library entry point, only the harness's ladder-check helper names the ladder
statistics, the face layer's one-sided derivative and inward sign are read
only in geometry (and the sign in T_A's layer chain), and numpy.linalg is
reached only by one geometry helper, for LAPACK's determinant."""

import ast
from pathlib import Path

import pytest

import gaugekit

_PACKAGE = Path(gaugekit.__file__).parent
# the package's __init__ imports only to re-export
_MODULES = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def _function_imports(source):
    """Lines of the import statements inside a function or lambda."""
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    return sorted({
        node.lineno
        for fn in ast.walk(ast.parse(source)) if isinstance(fn, funcs)
        for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
    })


def _unused_private_definitions(module, sources):
    """Module-level `_`-prefixed functions and classes of sources[module]
    that no Name, Attribute or import alias in any of the sources names."""
    named = set()
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return sorted(
        node.name
        for node in ast.parse(sources[module]).body
        if isinstance(node, defs) and node.name.startswith("_") and node.name not in named
    )


#: the statistics ladder checks are made of, and the one function that may use them
_LADDER_STATISTICS = {"convergence_order", "_monotone_ratio"}
_LADDER_HELPER = ("harness.py", "_ladder_checks")


def _ladder_statistic_uses(source, helper=None):
    """(line, name) of each use of a ladder statistic in `source` outside the
    module-level function `helper`, and the uses inside it."""
    tree = ast.parse(source)

    def uses(root):
        found = set()
        for node in ast.walk(root):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in _LADDER_STATISTICS:
                found.add((node.lineno, node.col_offset, name))
        return found

    inside = set().union(*(
        uses(fn) for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == helper
    ))
    return sorted(uses(tree) - inside), sorted(inside)


def test_the_check_sees_a_hand_built_ladder_check():
    src = (
        "def _ladder_checks(hs, e):\n    return convergence_order(hs, e)\n"
        "def suite(hs, e):\n"
        "    def rung():\n        return h._monotone_ratio(e)\n"
        "    return convergence_order(hs, e)\n"
        "order = convergence_order\n"
    )
    outside, inside = _ladder_statistic_uses(src, "_ladder_checks")
    assert [(line, name) for line, _, name in outside] == [
        (5, "_monotone_ratio"), (6, "convergence_order"), (7, "convergence_order"),
    ]
    assert [(line, name) for line, _, name in inside] == [(2, "convergence_order")]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_the_ladder_helper_uses_the_ladder_statistics(path):
    helper = _LADDER_HELPER[1] if path.name == _LADDER_HELPER[0] else None
    outside, inside = _ladder_statistic_uses(path.read_text(), helper)
    assert outside == []
    if helper:
        # one call site each, in the helper
        assert sorted(name for _, _, name in inside) == sorted(_LADDER_STATISTICS)


#: the face layer's names, and where each may be read outside geometry.py:
#: every other boundary evaluation goes through geometry.normal_derivative
#: or geometry.along_normal
_FACE_LAYER = {
    "one_sided_deriv_at_face": None,
    "inward_sign": ("operators.py", "boundary_operator_T"),
}


def _face_layer_uses(source, name, helper=None):
    """(line, col) of each read of `name` (a Name or an attribute) in
    `source` outside the module-level function `helper`, and the count of
    those inside it."""
    tree = ast.parse(source)

    def uses(root):
        return {
            (node.lineno, node.col_offset) for node in ast.walk(root)
            if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name
        }

    inside = set().union(*(
        uses(fn) for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == helper
    ))
    return sorted(uses(tree) - inside), len(inside)


def test_the_check_sees_a_hand_built_face_layer():
    src = (
        "def boundary_operator_T(f, fc):\n    return fc.inward_sign * f\n"
        "def nu(ch, fc):\n"
        "    d = st.one_sided_deriv_at_face(ch.vol, 1, ch.h[-1], fc.side)\n"
        "    return fc.inward_sign * d / np.sqrt(ch.g[..., -1])\n"
        "sign = Face(0).inward_sign\n"
    )
    assert _face_layer_uses(src, "inward_sign", "boundary_operator_T") == (
        [(5, 11), (6, 7)], 1
    )
    assert _face_layer_uses(src, "one_sided_deriv_at_face") == ([(4, 8)], 0)


@pytest.mark.parametrize("name", sorted(_FACE_LAYER))
@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_geometry_builds_the_face_layer(path, name):
    if path.name in ("geometry.py", "_stencils.py"):
        return  # the face layer's home, and the stencil's definition
    allowed = _FACE_LAYER[name]
    helper = allowed[1] if allowed and path.name == allowed[0] else None
    outside, inside = _face_layer_uses(path.read_text(), name, helper)
    assert outside == []
    if helper:
        # the layer chain orients its normal derivatives
        assert inside >= 1


#: the one function that may use numpy.linalg: the chart's volume factor
#: keeps LAPACK's determinant, whose rounding the reports depend on
_LINALG_HELPER = ("geometry.py", "_sqrt_det")


def _linalg_uses(source, helper=None):
    """Lines that reach numpy.linalg outside the module-level function
    `helper` (a `.linalg` attribute, or an import of numpy.linalg or of its
    names), and the numpy.linalg functions that `helper` calls."""
    tree = ast.parse(source)

    def lines(root):
        found = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and node.attr == "linalg":
                found.add(node.lineno)
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.linalg") for a in node.names
            ):
                found.add(node.lineno)
            elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.linalg")
                or (node.module == "numpy" and any(a.name == "linalg" for a in node.names))
            ):
                found.add(node.lineno)
        return found

    helpers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == helper]
    inside = set().union(*(lines(fn) for fn in helpers))
    called = sorted(
        node.func.attr
        for fn in helpers for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "linalg"
    )
    return sorted(lines(tree) - inside), called


def test_the_check_sees_a_linalg_use():
    src = (
        "import numpy as np\nfrom numpy import linalg, sum\n"
        "import numpy.linalg as la\nfrom numpy.linalg import det\n"
        "x = np.sqrt(np.sum(a * a))\ny = np.linalg.norm(a)\n"
        "def _sqrt_det(g):\n    return np.sqrt(np.linalg.det(g))\n"
        "def vol(g):\n    return np.linalg.det(g)\n"
    )
    assert _linalg_uses(src) == ([2, 3, 4, 6, 8, 10], [])
    assert _linalg_uses(src, "_sqrt_det") == ([2, 3, 4, 6, 10], ["det"])


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_geometry_module_uses_linalg(path):
    helper = _LINALG_HELPER[1] if path.name == _LINALG_HELPER[0] else None
    outside, called = _linalg_uses(path.read_text(), helper)
    assert outside == []
    if helper:
        # one determinant call, in the helper
        assert called == ["det"]


def test_the_check_sees_an_unused_import():
    src = "import os\nfrom math import pi, tau as t\nimport a.b\nprint(pi, a)\n"
    assert _unused_imports(src) == [(1, "os"), (2, "t")]


def test_the_check_sees_a_function_level_import():
    src = (
        "import os\n"
        "def f():\n    from math import pi\n    return pi\n"
        "class C:\n    def g(self):\n        import sys\n"
    )
    assert _function_imports(src) == [3, 7]


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": "def _used():\n    pass\ndef _dead():\n    pass\nclass _Kept:\n    pass\n",
        "b": "from a import _Kept\nimport a\na._used()\n",
    }
    assert _unused_private_definitions("a", sources) == ["_dead"]


#: exported names that no package module uses, each a library entry point
_ENTRY_POINTS = {
    # the positive theorem's algebraic step (acceptance criterion 13)
    "commutator_decompose",
    # the paper's flat restriction operator, next to its connected form
    "boundary_operator_T0",
    # reads back what `gaugekit dump` writes
    "load_field",
    # the metric's star on 2-d one- and two-forms, which the package applies
    # through its private kernels (`_star_oneform`, `_star_twoform`)
    "hodge_star",
}


def _exported_names(init_source):
    """The names the package's __init__ imports to re-export."""
    return sorted(
        alias.asname or alias.name
        for node in ast.parse(init_source).body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )


def _unused_exports(init_source, sources):
    """Names exported by `init_source` that no Name, Attribute or import
    alias in the package modules' `sources` reads (a definition is not a
    read), less the library entry points."""
    named = set()
    for src in sources.values():
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return [n for n in _exported_names(init_source) if n not in named | _ENTRY_POINTS]


def test_the_check_sees_an_unused_export():
    init = "from .a import helper, kept, load_field\nfrom .b import Used\n"
    sources = {
        "a.py": "def helper():\n    pass\ndef kept():\n    return helper\n"
                "def load_field():\n    pass\n",
        "b.py": "from .a import kept\nclass Used:\n    pass\n",
        "c.py": "import b\nb.Used()\n",
    }
    assert _unused_exports(init, sources) == []
    sources["a.py"] = "def helper():\n    pass\ndef kept():\n    pass\n"
    assert _unused_exports(init, sources) == ["helper"]


def test_every_export_is_used_or_an_entry_point():
    sources = {p.name: p.read_text() for p in _MODULES}
    init = (_PACKAGE / "__init__.py").read_text()
    assert _unused_exports(init, sources) == []
    # each entry point is still exported
    assert _ENTRY_POINTS <= set(_exported_names(init))


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert _unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_at_module_level(path):
    assert _function_imports(path.read_text()) == []


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_private_definitions_are_used(path):
    sources = {p.name: p.read_text() for p in _PACKAGE.glob("*.py")}
    assert _unused_private_definitions(path.name, sources) == []
