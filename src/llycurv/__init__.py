"""Exact curvature toolkit for regular graphs.

Computes Lin-Lu-Yau and p-Ollivier curvature in rational arithmetic,
certifies when the curvature upper bound (2+alpha)/d is attained, both from
concrete graphs (optimal transport and local matchings) and from
strongly/amply regular parameters alone (closed-form conditions and a
discriminant sweep), and verifies the spectral and quadratic-residue
consequences.
"""

from .certify import (
    Certificate,
    ConditionReport,
    ObstructionQuadratic,
    certify_curvature,
    evaluate_conditions,
    obstruction_quadratic,
    scan_parameters,
)
from .errors import LlycurvError
from .families import (
    CatalogEntry,
    catalog,
    named_graph,
    paley_gamma_orders,
    paley_graph,
)
from .fields import FiniteField, is_nonzero_square, make_field
from .graphio import from_graph6, from_json, load_graph, to_graph6, to_json
from .graphs import (
    EdgeNeighborhood,
    Graph,
    RegularityClass,
    RegularityKind,
    SrgParams,
    bfs_distances,
    classify_regularity,
    decompose_edge,
)
from .matching import MatchingResult, local_perfect_matching
from .residues import CorollaryReport, find_pattern_witness, verify_corollary
from .spectral import (
    Eigenvalue,
    SharpnessReport,
    SpectrumReport,
    enumerate_sharp_candidates,
    lichnerowicz_report,
    numerical_lambda2,
    srg_spectrum,
)
from .transport import (
    CurvatureReport,
    CurvatureSpectrum,
    ProbabilityMeasure,
    TransportPlan,
    idleness_identity_check,
    curvature_spectrum,
    lazy_walk_measure,
    lly_curvature,
    ollivier_kappa_p,
    paley_kappa,
    wasserstein_w1,
)

__version__ = "0.1.0"
