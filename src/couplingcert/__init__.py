"""Finite-window certificates for topological couplings built from coarse
equivalences of finitely generated groups.

The pipeline: group models with exact normal forms -> word-metric windows
and greedy nets -> compression/expansion moduli of a coarse map ->
partition of unity and the map psi into exact sparse densities -> checked
quantitative certificates for the properness / cocompactness claims.
"""

from .certify import Certificate, CheckResult, run_all
from .coarse import (
    CoarseMap,
    Moduli,
    analytic_moduli,
    apply,
    choose_scale,
    cobounded_radius,
    estimate_moduli,
    load_map_table,
    make_coarse_map,
)
from .coupling import (
    OrbitPoint,
    PartitionOfUnity,
    SparseDensity,
    act_left,
    build_partition,
    l1_distance,
    orbit_point,
    psi,
    serialize_density,
    support_diameter,
    support_distance,
)
from .groups import GroupModel, make_group
from .windows import (
    Net,
    PackingResult,
    Window,
    build_window,
    greedy_net,
    packing_bound,
    packing_number,
)

__all__ = [
    "Certificate",
    "CheckResult",
    "CoarseMap",
    "GroupModel",
    "Moduli",
    "Net",
    "OrbitPoint",
    "PackingResult",
    "PartitionOfUnity",
    "SparseDensity",
    "Window",
    "act_left",
    "analytic_moduli",
    "apply",
    "build_partition",
    "build_window",
    "choose_scale",
    "cobounded_radius",
    "estimate_moduli",
    "greedy_net",
    "l1_distance",
    "load_map_table",
    "make_coarse_map",
    "make_group",
    "orbit_point",
    "packing_bound",
    "packing_number",
    "psi",
    "run_all",
    "serialize_density",
    "support_diameter",
    "support_distance",
]

__version__ = "0.1.0"
