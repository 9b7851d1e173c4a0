"""Shared samplers for the randomized suites.

Valid X-state parameters satisfy |c1 - c2| <= 1 + c3 and
|c1 + c2| <= 1 - c3 (all four spectrum entries nonnegative). The samplers
draw inside that region with a margin so numerical noise never lands a
case on the boundary.
"""

import math

import numpy as np

from xdiscord import XStateParams

# zero, tiny, huge, negative, infinite and nan values for the contract properties
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, -1.5, -1e300,
                  math.inf, -math.inf, math.nan]
# magnitudes whose products in pairs and triples, eta omega_c T say, under- or overflow
EXTREME_MAGNITUDES = [1e-160, 1e154, 1e200]
EXTREME_FLOATS = SPECIAL_FLOATS + [s * v for v in EXTREME_MAGNITUDES for s in (1.0, -1.0)]


def sample_x_params(rng: np.random.Generator, margin: float = 0.98) -> XStateParams:
    """Uniform draw over the valid X family, strictly interior spectrum."""
    c3 = float(rng.uniform(-0.9, 0.9))
    outer = float(rng.uniform(0.0, (1.0 + c3) * margin))  # |c1 - c2|
    inner = float(rng.uniform(0.0, (1.0 - c3) * margin))  # |c1 + c2|
    s_outer = 1.0 if rng.random() < 0.5 else -1.0
    s_inner = 1.0 if rng.random() < 0.5 else -1.0
    c1 = 0.5 * (s_inner * inner + s_outer * outer)
    c2 = 0.5 * (s_inner * inner - s_outer * outer)
    return XStateParams(c1, c2, c3)


def sample_slope_params(rng: np.random.Generator) -> XStateParams:
    """Draw with 0 <= c2 < c1 < 1, away from spectrum boundaries.

    This is the region where the slope decomposition carries its sign
    guarantees; a clear pole (|c3| bounded away from 0) keeps the branch
    assignment unambiguous.
    """
    while True:
        c1 = float(rng.uniform(0.15, 0.85))
        c2 = float(rng.uniform(0.0, 0.85 * c1))
        lo = c1 - c2 - 1.0
        hi = 1.0 - c1 - c2
        if hi - lo < 0.1:
            continue
        pad = 0.08 * (hi - lo)
        c3 = float(rng.uniform(lo + pad, hi - pad))
        if abs(c3) < 0.02:
            continue
        return XStateParams(c1, c2, c3)
