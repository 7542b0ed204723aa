"""Every name a ``lqglm`` module imports is used there or re-exported."""

import ast
import inspect
from pathlib import Path

import pytest

import lqglm

SRC = Path(__file__).resolve().parent.parent / "src" / "lqglm"


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_an_unused_import():
    source = "import os\nfrom sys import argv, path\nimport numpy as np\n__all__ = ['path']\nnp.ones(1)\n"
    assert _unused_imports(source) == [(1, "os"), (2, "argv")]


# the package's __init__ imports only to re-export
@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


# Each module imports only from modules of a lower layer; the package's
# __init__ re-exports every layer and __main__ only starts the CLI.
LAYERS = [
    {"errors"},
    {"numerics", "families"},
    {"model"},
    {"fit", "datasets"},
    {"diagnostics", "qselect", "simulate"},
    {"cli"},
]
LAYER = {module: k for k, layer in enumerate(LAYERS) for module in layer}


def _package_imports(source):
    """The ``lqglm`` modules a source file imports, with their line numbers."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module] if node.module else [a.name for a in node.names]
            found += [(node.lineno, name.split(".")[0]) for name in names]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("lqglm."):
            found.append((node.lineno, node.module.split(".")[1]))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, a.name.split(".")[1]) for a in node.names
                      if a.name.startswith("lqglm.")]
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in SRC.glob("*.py")} - {"__init__", "__main__"}
    assert modules == set(LAYER)


def test_checker_finds_an_upward_import():
    source = "from .errors import UsageError\nfrom .simulate import BLOCK\nimport lqglm.cli\n"
    assert _package_imports(source) == [(1, "errors"), (2, "simulate"), (3, "cli")]


@pytest.mark.parametrize("module", sorted(LAYER))
def test_imports_only_from_lower_layers(module):
    source = (SRC / f"{module}.py").read_text()
    upward = [(line, name) for line, name in _package_imports(source)
              if LAYER[name] >= LAYER[module]]
    assert upward == []


# The fitting core: every fit reaches these through fit._start and fit._fit.
FIT_CORE = {"_irls", "_profile", "_classical_start"}


def _names(source):
    """Every identifier a source file binds, reads or imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return found


def test_checker_finds_a_core_name():
    source = "from .fit import _irls as run\nfrom lqglm import fit\nfit._profile(1)\n"
    assert _names(source) & FIT_CORE == {"_irls", "_profile"}


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "fit.py"}),
                         ids=lambda p: p.name)
def test_only_fit_names_the_fitting_core(path):
    assert _names(path.read_text()) & FIT_CORE == set()


def _readers(source, name):
    """The top-level definitions of a source file that read ``name`` (a
    call, or a reference that could alias it); a statement outside any
    definition counts as ``"<module>"``."""
    return {getattr(node, "name", "<module>") for node in ast.parse(source).body
            if any(isinstance(n, ast.Name) and n.id == name for n in ast.walk(node))}


def test_checker_finds_a_reader():
    source = ("def a():\n    _irls(1)\n\ndef b():\n    run = _irls\n\n"
              "def c():\n    def d():\n        return x._irls\n\ndef _irls():\n    pass\n\n"
              "class K:\n    def m(self):\n        _irls()\n\nalias = _irls\n")
    assert _readers(source, "_irls") == {"a", "b", "K", "<module>"}


def test_only_the_fit_staging_calls_the_loop():
    # one staging of the recursion: the start (the q = 1 fit), the fit at
    # q from it, and the profiled dispersion's refits
    assert _readers((SRC / "fit.py").read_text(), "_irls") == {"_start", "_fit", "_profile"}


# The band layout of X' diag(d) X, its solves, and the dense per-row
# inverses: fit reads them, and every other module takes its matrices
# from fit (fit._matrices_ab, fit._hat).
BAND_KERNEL = {"gram_cache", "weighted_gram", "unpack_band", "solve_spd_rows",
               "_inverse_each", "_sensitivity"}


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py")) - {SRC / "fit.py",
                                                                  SRC / "numerics.py"}),
                         ids=lambda p: p.name)
def test_only_fit_and_numerics_name_the_band_kernel(path):
    assert _names(path.read_text()) & BAND_KERNEL == set()


def test_each_cholesky_kernel_has_one_job():
    # the band solves every step and reports its own pivots, with no dense
    # retry; the dense inverses serve B_n^-1 and the hat alone
    numerics = ast.parse((SRC / "numerics.py").read_text())
    solve = next(f for f in numerics.body
                 if isinstance(f, ast.FunctionDef) and f.name == "solve_spd_rows")
    dense = {"_solve_spd_each", "_inverse_each", "dpotrf", "dpotrs"}
    assert _names(ast.unparse(solve)) & dense == set()
    assert _readers((SRC / "fit.py").read_text(), "_inverse_each") == {"_fitted", "_hat"}


# Each CLI command returns its document; main alone tags it with the
# schema, serializes it and writes it.
DOCUMENT_WRITING = {"_emit", "json", "SCHEMA"}


def test_only_main_writes_the_cli_documents():
    tree = ast.parse((SRC / "cli.py").read_text())
    # the names of each function's body, so that _emit's own definition does not count
    named = {f.name: set().union(*(_names(ast.unparse(s)) for s in f.body)) & DOCUMENT_WRITING
             for f in tree.body if isinstance(f, ast.FunctionDef)}
    assert {name: found for name, found in named.items() if found} == {
        "main": DOCUMENT_WRITING}


# The model is (X, y, phi) as its ModelData holds it: no public callable
# takes an offset, a search bracket, or a solver or escort tolerance.
REMOVED_PARAMETERS = {"offset", "expand", "sym_tol", "tail_tol"}


def test_no_public_callable_takes_a_removed_parameter():
    found = []
    for name in dir(lqglm):
        obj = getattr(lqglm, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # an exception class keeps BaseException's signature
            continue
        found += [(name, p) for p in parameters if p in REMOVED_PARAMETERS]
    assert found == []


def _absolute_imports(source):
    """The modules a source file imports by absolute name, with their line
    numbers, anywhere in it; ``from a import b`` counts as ``a.b``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, a.name) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"{node.module}.{a.name}") for a in node.names]
    return found


def _integrates(source):
    return [line for line, name in _absolute_imports(source)
            if name == "scipy.integrate" or name.startswith("scipy.integrate.")]


def test_checker_finds_a_scipy_integrate_import():
    source = ("import scipy.integrate\nfrom scipy import integrate, special\n"
              "def f():\n    from scipy.integrate import quad\nimport scipy.interpolate\n")
    assert _integrates(source) == [1, 2, 4]


# The escort densities derive the estimator and are none of its outputs:
# the premise tests keep them in tests/conftest.py, quadrature included.
def test_the_escort_stays_in_the_tests():
    assert [name for name in dir(lqglm) if name.startswith("escort")] == []
    found = {path.name: _integrates(path.read_text()) for path in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}
