"""Every import in the package's modules is used by that module and sits at
module level, every private module-level definition is used somewhere in
the package, every name the package exports is used by it or is a named
library entry point, every defaulted parameter of a public function is
passed by some package or benchmark call or is a named entry parameter, only
the harness's ladder-check helper names the ladder statistics, the face
layer's one-sided derivative and inward sign are read only in geometry,
numpy.linalg is reached only by one geometry helper, for LAPACK's
determinant, numpy.fft only by the separable solve, every call of it with
out=, only the harness's pair projection starts threads, only the
stencils' pair helpers compute an axis stride or slice a flat array by it,
and the command line has exactly its pinned commands and flags."""

import argparse
import ast
from pathlib import Path

import pytest

import gaugekit
from gaugekit import cli

_PACKAGE = Path(gaugekit.__file__).parent
_PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
#: nowhere, since every boundary evaluation goes through
#: geometry.normal_derivative or geometry.along_normal (the face-layer
#: Laplacian of T_A takes the face's side, not its sign)
_FACE_LAYER = {
    "one_sided_deriv_at_face": None,
    "inward_sign": None,
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


#: the one function that may use numpy.fft: the separable solve, whose
#: transforms write into the Green solve's scratch
_FFT_HELPER = ("operators.py", "_separable_solver")


def _fft_uses(source, helper=None):
    """Lines that reach numpy.fft outside the module-level function `helper`
    (a `.fft` attribute, or an import of numpy.fft or of its names), the
    numpy.fft functions that `helper` calls, and the lines of those calls
    that pass no `out=`."""
    tree = ast.parse(source)

    def lines(root):
        found = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                found.add(node.lineno)
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("numpy.fft") for a in node.names
            ):
                found.add(node.lineno)
            elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").startswith("numpy.fft")
                or (node.module == "numpy" and any(a.name == "fft" for a in node.names))
            ):
                found.add(node.lineno)
        return found

    helpers = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name == helper]
    inside = set().union(*(lines(fn) for fn in helpers))
    calls = [
        node for fn in helpers for node in ast.walk(fn)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Attribute) and node.func.value.attr == "fft"
    ]
    called = sorted({node.func.attr for node in calls})
    no_out = sorted(node.lineno for node in calls if all(k.arg != "out" for k in node.keywords))
    return sorted(lines(tree) - inside), called, no_out


def test_the_check_sees_an_fft_without_out():
    src = (
        "import numpy as np\nfrom numpy import fft, sum\n"
        "import numpy.fft as nf\nfrom numpy.fft import rfft\n"
        "y = np.fft.rfftn(a)\n"
        "def _separable_solver(ch, spec):\n"
        "    def solve(r, out):\n"
        "        np.fft.rfft(r, axis=1, out=spec)\n"
        "        np.fft.irfft(spec, n=4, axis=1)\n"
        "    return solve\n"
        "def other(r):\n    return np.fft.fft(r, out=r)\n"
    )
    assert _fft_uses(src) == ([2, 3, 4, 5, 8, 9, 12], [], [])
    assert _fft_uses(src, "_separable_solver") == ([2, 3, 4, 5, 12], ["irfft", "rfft"], [9])


@pytest.mark.parametrize("path", sorted(_PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_only_the_separable_solve_uses_fft_and_always_with_out(path):
    helper = _FFT_HELPER[1] if path.name == _FFT_HELPER[0] else None
    outside, called, no_out = _fft_uses(path.read_text(), helper)
    assert outside == [] and no_out == []
    if helper:
        # one axis at a time, each transform written into the scratch
        assert called == ["fft", "ifft", "irfft", "rfft"]


#: the one function that starts threads, and the names that start them
_THREAD_HELPER = ("harness.py", "_project_pair")
_THREAD_NAMES = {"threading", "ThreadPoolExecutor"}
_THREAD_MODULES = ("threading", "concurrent")


def _thread_uses(source, helper=None):
    """Lines that name `threading` or `ThreadPoolExecutor` outside the
    module-level function `helper`, the lines inside it that do, and the
    lines that import the modules that hold them."""
    tree = ast.parse(source)

    def names(root):
        return {
            node.lineno for node in ast.walk(root)
            if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
            in _THREAD_NAMES
        }

    imports = sorted(
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(a.name.split(".")[0] in _THREAD_MODULES for a in node.names))
        or (isinstance(node, ast.ImportFrom)
            and (node.module or "").split(".")[0] in _THREAD_MODULES)
    )
    inside = set().union(*(
        names(fn) for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == helper
    ))
    return sorted(names(tree) - inside), sorted(inside), imports


def test_the_check_sees_a_thread():
    src = (
        "import threading as th\nfrom concurrent.futures import ThreadPoolExecutor\n"
        "import concurrent.futures\nx = 1\n"
        "with ThreadPoolExecutor(1) as pool:\n    pass\nt = threading.Thread()\n"
        "p = concurrent.futures.ThreadPoolExecutor(2)\n"
        "def _project_pair(a, b):\n"
        "    with ThreadPoolExecutor(max_workers=1) as pool:\n        return pool\n"
        "def run_all(names):\n"
        "    with ThreadPoolExecutor(max_workers=2) as pool:\n        return pool\n"
    )
    assert _thread_uses(src) == ([5, 7, 8, 10, 13], [], [1, 2, 3])
    assert _thread_uses(src, "_project_pair") == ([5, 7, 8, 13], [10], [1, 2, 3])


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_the_harness_starts_threads(path):
    helper = _THREAD_HELPER[1] if path.name == _THREAD_HELPER[0] else None
    outside, inside, imports = _thread_uses(path.read_text(), helper)
    assert outside == []
    if helper:
        # the pair projection's one worker, from one module-level import
        assert len(inside) == 1 and len(imports) == 1
    else:
        assert inside == imports == []


#: the stencils' pair helpers, the one home of the axis stride of a
#: contiguous array and of the flat slices shifted by it
_STRIDE_HELPERS = ("_stencils.py", {"_pair", "_pair_t"})
_FLATTENERS = {"ravel", "flatten"}


def _stride_uses(source):
    """(line, function, kind) of each axis-stride product
    (`prod(<array>.shape[<axis> + 1:])`, kind "stride") and of each slice
    of a flat array by a variable offset (`flat[k:]`, `flat[:-k]`, kind
    "shift") in `source`; a flat array is a `.reshape(-1)`, `.ravel()` or
    `.flatten()` of one, or a name assigned one. `function` is the
    module-level function holding the use, or None."""
    tree = ast.parse(source)

    def flattens(node):
        if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Attribute):
            return False
        if node.func.attr in _FLATTENERS:
            return True
        return node.func.attr == "reshape" and len(node.args) == 1 and (
            ast.unparse(node.args[0]) in ("-1", "(-1,)"))

    flat_names = {
        t.id for node in ast.walk(tree) if isinstance(node, ast.Assign) and flattens(node.value)
        for t in node.targets if isinstance(t, ast.Name)
    }

    def offset(bound):
        if isinstance(bound, ast.UnaryOp) and isinstance(bound.op, ast.USub):
            bound = bound.operand
        return isinstance(bound, ast.Name)

    def kind(node):
        if (isinstance(node, ast.Call) and node.args
                and (node.func.id if isinstance(node.func, ast.Name)
                     else getattr(node.func, "attr", None)) == "prod"):
            arg = node.args[0]
            if (isinstance(arg, ast.Subscript) and isinstance(arg.value, ast.Attribute)
                    and arg.value.attr == "shape" and isinstance(arg.slice, ast.Slice)
                    and isinstance(arg.slice.lower, ast.BinOp)
                    and isinstance(arg.slice.lower.op, ast.Add)
                    and ast.unparse(arg.slice.lower.right) == "1"):
                return "stride"
        if (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Slice)
                and (flattens(node.value)
                     or isinstance(node.value, ast.Name) and node.value.id in flat_names)
                and any(offset(b) for b in (node.slice.lower, node.slice.upper) if b)):
            return "shift"
        return None

    found = []
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(top):
            k = kind(node)
            if k:
                found.append((node.lineno, name, k))
    return sorted(found, key=lambda u: (u[0], u[2]))


def test_the_check_sees_a_hand_built_stride():
    src = (
        "import math\n"
        "def _pair(v, axis, op, out):\n"
        "    k = math.prod(v.shape[axis + 1:])\n"
        "    flat = v.reshape(-1)\n"
        "    op(flat[k:], flat[:-k], out=out.reshape(-1)[:-k])\n"
        "def replay(x, ax, n):\n"
        "    s = np.prod(x.shape[ax + 1:])\n"
        "    y = x.ravel()[n:]\n"
        "    z = x.reshape(-1)[: x.size]\n"
        "    return x.shape[ax + 1:], math.prod(x.shape[1:-2]), x[n:], y[2:]\n"
        "w = buf.flatten()\nhead = w[:-k]\n"
    )
    assert _stride_uses(src) == [
        (3, "_pair", "stride"), (5, "_pair", "shift"), (5, "_pair", "shift"),
        (5, "_pair", "shift"), (7, "replay", "stride"), (8, "replay", "shift"),
        (12, None, "shift"),
    ]


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: p.name)
def test_only_the_pair_helpers_index_by_the_axis_stride(path):
    uses = _stride_uses(path.read_text())
    if path.name != _STRIDE_HELPERS[0]:
        assert uses == []
        return
    assert {fn for _, fn, _ in uses} == _STRIDE_HELPERS[1]
    # each helper: one stride, and the flat shifted slices that use it
    for fn in _STRIDE_HELPERS[1]:
        kinds = [k for _, f, k in uses if f == fn]
        assert kinds.count("stride") == 1 and kinds.count("shift") >= 2


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
    init = "from .a import helper, kept, hodge_star\nfrom .b import Used\n"
    sources = {
        "a.py": "def helper():\n    pass\ndef kept():\n    return helper\n"
                "def hodge_star():\n    pass\n",
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


#: defaulted parameters of public functions that no package or benchmark
#: call passes, each a library entry point: (function, parameter)
_ENTRY_PARAMETERS = {
    # a window inverse's collar depth; the suites use the default 0.8 of the
    # normal extent
    ("boundary_chart_inverse", "depth"),
    # the covariant star route under a connection; the package reaches it
    # through `_codiff_2form_data`
    ("codiff_2form", "A"),
    # the Green solve's iteration cap, below the default 200 sqrt(#nodes)
    # for a caller that bounds a solve's time
    ("green_A", "maxiter"),
    # the command line's arguments, which the console script reads from sys.argv
    ("main", "argv"),
    # the group logarithm's margin from the cut locus, which its property
    # test sweeps
    ("quat_log", "tol"),
}


def _public_functions(sources):
    """The public module-level function definitions in `sources`."""
    return [
        fn for src in sources.values() for fn in ast.parse(src).body
        if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
    ]


def _defaulted_parameters(sources):
    """(function, parameter) of each parameter with a default of each public
    module-level function in `sources`."""
    found = set()
    for fn in _public_functions(sources):
        a = fn.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):] + [
            arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
        ]
        found.update((fn.name, arg.arg) for arg in defaulted)
    return found


def _passed_parameters(defs_sources, call_sources):
    """The (function, parameter) pairs of the public functions in
    `defs_sources` that some call in `call_sources` passes, by position or
    keyword; a `*sequence` passes every later position and a `**mapping`
    every parameter. A call names its function by a name or an attribute."""
    params = {}  # function -> (positional parameters, all parameters)
    for fn in _public_functions(defs_sources):
        a = fn.args
        positional = [x.arg for x in a.posonlyargs + a.args]
        params[fn.name] = (positional, positional + [x.arg for x in a.kwonlyargs])
    passed = set()
    for src in call_sources.values():
        for call in ast.walk(ast.parse(src)):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name not in params:
                continue
            positional, every = params[name]
            for i, arg in enumerate(call.args):
                if isinstance(arg, ast.Starred):
                    passed.update((name, p) for p in positional[i:])
                    break
                passed.update((name, p) for p in positional[i:i + 1])
            for kw in call.keywords:
                passed.update((name, p) for p in (every if kw.arg is None else [kw.arg]))
    return passed


def _unpassed_parameters(defs_sources, call_sources):
    """Defaulted parameters of the public functions in `defs_sources` that no
    call in `call_sources` passes, sorted."""
    return sorted(
        _defaulted_parameters(defs_sources) - _passed_parameters(defs_sources, call_sources)
    )


def test_the_check_sees_an_unpassed_parameter():
    defs = {"a.py": (
        "def f(x, y=1, /, z=2, *, w=3, v=4):\n    pass\n"
        "def g(p=0, q=1):\n    pass\n"
        "def h(r=1, s=2):\n    pass\n"
        "def _k(t=1):\n    pass\n"
        "def m(u=1):\n    pass\n"
    )}
    calls = {"b.py": (
        "f(1, 2)\nobj.f(1, v=3)\nkw = {}\ng(**kw)\nh(*xs)\n"
        "m\nrun(m, u=2)\n"
    )}
    assert _unpassed_parameters(defs, calls) == [("f", "w"), ("f", "z"), ("m", "u")]
    calls["b.py"] += "f(1, 2, 3, w=4)\n"
    assert _unpassed_parameters(defs, calls) == [("m", "u")]


def test_every_defaulted_parameter_is_passed_or_an_entry_parameter():
    public = {p.name: p.read_text() for p in _MODULES if not p.name.startswith("_")}
    callers = {
        str(p): p.read_text()
        for p in sorted(_PACKAGE.glob("*.py")) + sorted(_PERFBENCH.glob("*.py"))
    }
    assert sorted(set(_unpassed_parameters(public, callers)) - _ENTRY_PARAMETERS) == []
    # each entry parameter still exists
    assert _ENTRY_PARAMETERS <= _defaulted_parameters(public)


#: the command line: each command's flags and positional arguments. A new
#: command or flag edits this pin, with the reason it is needed, as a
#: defaulted parameter that nothing passes edits `_ENTRY_PARAMETERS`
_RUN_FLAGS = ["--config", "--seed", "--grid", "--domain", "--out"]
_COMMAND_LINE = {
    "verify": (_RUN_FLAGS + ["--format"], ["suites"]),
    "study": (_RUN_FLAGS, ["suites"]),
}


def _command_line(parser):
    """{command: (flags, positional arguments)} of an argparse parser's
    subcommands, without the help flag."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        name: (
            [f for a in sp._actions for f in a.option_strings if f not in ("-h", "--help")],
            [a.dest for a in sp._actions if not a.option_strings],
        )
        for name, sp in sub.choices.items()
    }


def test_the_command_line_is_pinned():
    parser = cli.build_parser()
    assert _command_line(parser) == _COMMAND_LINE
    # no flag before the command
    assert [f for a in parser._actions for f in a.option_strings] == ["-h", "--help"]
