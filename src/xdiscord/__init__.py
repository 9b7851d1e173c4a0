"""Exact dephasing dynamics and quantum discord of two uncoupled qubits
sharing an Ohmic reservoir.

The package is layered bottom-up: states (density matrices, entropies),
reservoir (bath kernels and decay factors), evolution (the exact
dephasing map as one elementwise mask over the level-energy gaps, plus the
X-state fast path), discord (analytic X-state formulas plus a brute-force
measurement minimizer), analysis (critic times, amplification,
protection), cli (CSV sweeps).
"""

import types

from .analysis import (
    AmplificationIndicator,
    AmplificationReport,
    AmplificationScan,
    CriticTimeResult,
    ProtectedDiscord,
    amplification_indicator,
    amplification_rate,
    asymptotic_discord_identical,
    critic_time,
    critic_time_closed_form_detuned,
    critic_time_closed_form_identical,
    initial_discord_identical,
    protected_discord,
    scan_amplification_rate,
)
from .discord import (
    REGIME_AFTER,
    REGIME_BEFORE,
    REGIME_NONE,
    DiscordBreakdown,
    MeasurementBasis,
    classical_correlation,
    classical_correlation_value,
    discord_analytic,
    discord_bruteforce,
    measurement_spread,
    mutual_information,
    optimal_measurement_spread,
    x_state_eigenvalues,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InvalidStateError,
    RootFindError,
)
from .evolution import (
    EvolvedXState,
    assemble_density,
    evolve_density,
    evolve_x_state,
    x_state_from_factors,
)
from .reservoir import (
    DecayFactors,
    ReservoirConfig,
    decay_factors,
    dephasing_exponent,
    phase_exponent,
)
from .states import (
    BASIS_LABELS,
    QubitPairConfig,
    TwoQubitDensity,
    XStateParams,
    entropy_bits,
    partial_trace,
    von_neumann_entropy,
    x_state_density,
    xlog2,
)

# every name imported above, and nothing else
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
