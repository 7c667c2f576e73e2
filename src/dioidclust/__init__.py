"""Hierarchical clustering of asymmetric dissimilarity networks.

Clustering methods for directed networks computed with matrix powers in
the (min, max) dioid algebra, together with ultrametric/dendrogram
conversion, exporters, a brute-force oracle for small instances, and a
command-line interface.
"""

from .dioid import dioid_power, dioid_product, quasi_inverse
from .hierarchy import (
    Dendrogram,
    DendrogramStructureError,
    InvalidUltrametricError,
    MergeEvent,
    Partition,
    Provenance,
    Ultrametric,
    UltrametricReport,
    cut_at_resolution,
    from_dendrogram,
    to_dendrogram,
    validate_ultrametric,
)
from .methods import (
    GraftCounterexample,
    MethodSpec,
    MethodSpecError,
    convex_combination,
    graft_rnr,
    graft_rr_invalid,
    graft_rrmax,
    intermediate,
    nonreciprocal,
    reciprocal,
    run_method,
    semi_reciprocal,
    single_linkage,
)
from .network import (
    Network,
    NetworkFormatError,
    NetworkReport,
    UsesTable,
    from_uses_table,
    load_network,
    load_uses_table,
    save_network,
    validate_network,
)

__version__ = "0.1.0"

__all__ = [
    "Dendrogram",
    "DendrogramStructureError",
    "GraftCounterexample",
    "InvalidUltrametricError",
    "MergeEvent",
    "MethodSpec",
    "MethodSpecError",
    "Network",
    "NetworkFormatError",
    "NetworkReport",
    "Partition",
    "Provenance",
    "Ultrametric",
    "UltrametricReport",
    "UsesTable",
    "convex_combination",
    "cut_at_resolution",
    "dioid_power",
    "dioid_product",
    "from_dendrogram",
    "from_uses_table",
    "graft_rnr",
    "graft_rr_invalid",
    "graft_rrmax",
    "intermediate",
    "load_network",
    "load_uses_table",
    "nonreciprocal",
    "quasi_inverse",
    "reciprocal",
    "run_method",
    "save_network",
    "semi_reciprocal",
    "single_linkage",
    "to_dendrogram",
    "validate_network",
    "validate_ultrametric",
]
