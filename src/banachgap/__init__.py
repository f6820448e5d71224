"""banachgap: spectral gaps of finite multigraphs in l_q^d geometries,
displacement constants of permutation actions, sphere-map moduli,
even-regular Schreier realizations, and metric distortion bounds."""

from .graphs import MetricTable, MultiGraph, all_pairs_distances, build_graph, gen_family
from .spectral import GapEstimate, VectorMap, gap_estimate, gap_exact_2, gap_oracle_small, rayleigh_quotient

__version__ = "0.1.0"

__all__ = [
    "MultiGraph",
    "MetricTable",
    "build_graph",
    "gen_family",
    "all_pairs_distances",
    "VectorMap",
    "GapEstimate",
    "rayleigh_quotient",
    "gap_exact_2",
    "gap_estimate",
    "gap_oracle_small",
    "__version__",
]
