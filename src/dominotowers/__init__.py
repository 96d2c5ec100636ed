"""Exact enumeration, recurrences, generating functions, and asymptotics
for convex domino towers."""

from .model import (
    Dissection,
    Domino,
    TowerClass,
    TowerShape,
    classify,
    dissect,
    is_convex,
    is_left_skewed,
    is_right_skewed,
    is_stack,
    is_supporting,
    recombine,
    validate,
)
from .enumerator import (
    CapExceeded,
    census,
    enumerate_towers,
    gapfree_partition_census,
)
from .recurrences import UnsupportedK, c, g, g_k, h, h_k, r, r_k, table
from .series import (
    GeometricFactor,
    SubsetBlowup,
    TruncatedSeries,
    build_C,
    build_G,
    build_H,
    build_R,
    expand_geometric,
)
from .asymptotics import (
    ConvergenceReport,
    UnsupportedB,
    approx_theta,
    convergence_report,
    denominator_derivative_at_half,
    limit_constant_digits,
    numerator_bar_at_half,
    numerator_hat_at_half,
    theta_exact,
    theta_from_parts,
)

__version__ = "0.1.0"
