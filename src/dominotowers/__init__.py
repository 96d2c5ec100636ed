"""Exact enumeration, recurrences, generating functions, and asymptotics
for convex domino towers."""

from .model import (
    Dissection,
    TowerClass,
    TowerShape,
    classify,
    dissect,
    is_convex,
    is_supporting,
    recombine,
    validate,
)
from .enumerator import CapExceeded, census, enumerate_towers
from .recurrences import UnsupportedK, c, family_value, g, h, r, table
from .series import (
    SubsetBlowup,
    TruncatedSeries,
    build_C,
    build_G,
    build_H,
    build_R,
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
