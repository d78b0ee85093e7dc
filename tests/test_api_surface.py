"""The library's public surface: every name has a caller, every import a use.

The checks read source with `ast` only.  A name counts as referenced when
it appears as a name or an attribute anywhere in `src/`, `demos/` or
`bench/` outside its own definition; the package's re-exports in
`__init__.py` and `__all__` entries do not count, string constants under
`bench/` (its `REPLAY_TARGETS`) do.  Every public def or class and every
private def or method of `src/` must be referenced so.  The classes of
`errors.py` are the error vocabulary of the exit-2 paths, so each but the
base class `LlycurvError` must also be raised somewhere in `src/`.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "llycurv"


def _references(node: ast.AST, strings: bool) -> Counter[str]:
    found: Counter[str] = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found[sub.value] += 1
    return found


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _unreferenced(private: bool) -> list[str]:
    # Imports and __all__ entries are not names or attributes, so the
    # package's re-exports count for nothing.
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "demos").glob("*.py")) + sorted(
        (ROOT / "bench").glob("*.py")
    )
    everywhere: Counter[str] = Counter()
    defined: list[tuple[str, ast.AST]] = []
    for path in sources:
        tree = ast.parse(path.read_text())
        everywhere += _references(tree, strings=path.parent.name == "bench")
        if path.parent != PACKAGE:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _is_private(node.name) == private:
                defined.append((f"{path.stem}.{node.name}", node))
            if private and isinstance(node, ast.ClassDef):
                defined += [
                    (f"{path.stem}.{node.name}.{sub.name}", sub)
                    for sub in node.body
                    if isinstance(sub, ast.FunctionDef) and _is_private(sub.name)
                ]
    # A definition's own body does not count, so neither does recursion.
    return sorted(
        qualified
        for qualified, node in defined
        if everywhere[node.name] == _references(node, strings=False)[node.name]
    )


def _unused_imports() -> list[str]:
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound[alias.asname or alias.name.split(".")[0]] = node
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    bound[alias.asname or alias.name] = node
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.stem}.{name}" for name in bound if name not in used]
    return sorted(unused)


def _errors_never_raised() -> list[str]:
    raised: set[str] = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(_references(node.exc, strings=False))
    classes = [
        node.name
        for node in ast.parse((PACKAGE / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    return [name for name in classes if name != "LlycurvError" and name not in raised]


def _calls_of(name: str) -> list[str]:
    """The top-level defs of `src/` that call `name`, once per call site."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            sites += [
                f"{path.stem}.{getattr(node, 'name', node.lineno)}"
                for sub in ast.walk(node)
                if isinstance(sub, ast.Call) and name in _references(sub.func, strings=False)
            ]
    return sites


def test_every_public_name_has_a_caller():
    assert _unreferenced(private=False) == []


def test_every_private_def_and_method_has_a_caller():
    assert _unreferenced(private=True) == []


def test_every_error_class_is_raised():
    assert _errors_never_raised() == []


def test_no_module_imports_a_name_it_never_uses():
    assert _unused_imports() == []


def test_h_xy_has_one_builder():
    # H(x, y) is built for a graph and for P(q) alike by graphs._split.
    assert _calls_of("EdgeNeighborhood") == ["graphs._split"]


def test_no_class_in_src_does_field_arithmetic():
    # A GF(q) element is its index in src/: fields._subtract and the power
    # walk's step are its arithmetic, and no class overloads an operator.
    operators = {"__add__", "__sub__", "__neg__", "__mul__", "__pow__"}
    overloaded = [
        f"{path.stem}.{node.name}.{sub.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        for sub in node.body
        if isinstance(sub, ast.FunctionDef) and sub.name in operators
    ]
    assert overloaded == []


PUBLIC_NAMES = [
    "CatalogEntry",
    "Certificate",
    "ConditionReport",
    "CorollaryReport",
    "CurvatureReport",
    "CurvatureSpectrum",
    "EdgeNeighborhood",
    "Eigenvalue",
    "FiniteField",
    "Graph",
    "LlycurvError",
    "MatchingResult",
    "ObstructionQuadratic",
    "ProbabilityMeasure",
    "RegularityClass",
    "RegularityKind",
    "SharpnessReport",
    "SpectrumReport",
    "SrgParams",
    "TransportPlan",
    "bfs_distances",
    "catalog",
    "certify",
    "certify_curvature",
    "classify_regularity",
    "curvature_spectrum",
    "decompose_edge",
    "enumerate_sharp_candidates",
    "errors",
    "evaluate_conditions",
    "families",
    "fields",
    "find_pattern_witness",
    "from_graph6",
    "from_json",
    "graphio",
    "graphs",
    "idleness_identity_check",
    "is_nonzero_square",
    "lazy_walk_measure",
    "lichnerowicz_report",
    "lly_curvature",
    "load_graph",
    "local_perfect_matching",
    "make_field",
    "matching",
    "named_graph",
    "numerical_lambda2",
    "obstruction_quadratic",
    "ollivier_kappa_p",
    "paley_gamma_orders",
    "paley_graph",
    "paley_kappa",
    "residues",
    "scan_parameters",
    "spectral",
    "srg_spectrum",
    "to_graph6",
    "to_json",
    "transport",
    "verify_corollary",
    "wasserstein_w1",
]


def test_public_names_are_pinned():
    # In a fresh interpreter, so only the submodules the package itself
    # imports are attributes of it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import llycurv; print(*(n for n in dir(llycurv) if not n.startswith('_')))"
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.split() == PUBLIC_NAMES
