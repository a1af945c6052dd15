"""Data-center network topology workbench.

Builds the surveyed topologies (fat tree, DCell, BCube, MDCube, Scafida,
HCN/BCN, Jellyfish, F10, Facebook fabric), computes structural metrics, and
evaluates them under synthetic traffic with a flit-level simulator.
"""

from .graph import (
    Address,
    Link,
    Node,
    NodeKind,
    Topology,
    TopologyError,
    ValidationError,
    export_edge_list,
    import_edge_list,
    validate,
)
from .builders import (
    PRESETS,
    TAXONOMY,
    SizeCapError,
    TaxonomyRecord,
    build_bcn,
    build_bcube,
    build_dcell,
    build_f10,
    build_facebook_fabric,
    build_fat_tree,
    build_hcn,
    build_jellyfish,
    build_mdcube,
    build_preset,
    build_scafida,
    dcell_host_count,
    expand_jellyfish,
)

__all__ = [
    "Address",
    "Link",
    "Node",
    "NodeKind",
    "TaxonomyRecord",
    "Topology",
    "TopologyError",
    "ValidationError",
    "SizeCapError",
    "export_edge_list",
    "import_edge_list",
    "validate",
    "PRESETS",
    "TAXONOMY",
    "build_bcn",
    "build_bcube",
    "build_dcell",
    "build_f10",
    "build_facebook_fabric",
    "build_fat_tree",
    "build_hcn",
    "build_jellyfish",
    "build_mdcube",
    "build_preset",
    "build_scafida",
    "dcell_host_count",
    "expand_jellyfish",
]
