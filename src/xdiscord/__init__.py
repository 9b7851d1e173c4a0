"""Exact dephasing dynamics and quantum discord of two uncoupled qubits
sharing an Ohmic reservoir.

The package is layered bottom-up: states (density matrices, entropies),
reservoir (bath kernels and decay factors), evolution (the exact
dephasing map as one elementwise mask over the level-energy gaps, plus the
X-state fast path), discord (analytic X-state formulas plus a brute-force
measurement minimizer), analysis (critic times, amplification,
protection), cli (CSV sweeps).

Importing the package loads none of these modules: each public name below
is imported from its module on first use, so `import xdiscord.cli` pays
only for the layers the command line needs.
"""

# the public names of each module
_EXPORTS = {
    "analysis": "AmplificationIndicator AmplificationReport AmplificationScan CriticTimeResult "
                "ProtectedDiscord amplification_indicator amplification_rate critic_time "
                "protected_discord scan_amplification_rate",
    "discord": "REGIME_AFTER REGIME_BEFORE REGIME_NONE DiscordBreakdown "
               "classical_correlation_value discord_analytic discord_bruteforce",
    "errors": "ConfigError ConvergenceError DomainError InvalidStateError RootFindError",
    "evolution": "EvolvedXState assemble_density evolve_density evolve_x_state "
                 "x_state_from_factors",
    "reservoir": "DecayFactors ReservoirConfig decay_factors dephasing_exponent phase_exponent",
    "states": "QubitPairConfig TwoQubitDensity XStateParams entropy_bits partial_trace "
              "von_neumann_entropy x_state_density xlog2",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import a public name from its module and keep it here for later lookups."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module("." + module, __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
