"""The result and parameter records: immutable named tuples.

Every record of the package prints as Name(field=value, ...), refuses
attribute assignment, builds from positional or keyword arguments, and
runs its validation on every construction, _replace and _make included.
"""

import importlib
import inspect
import math
import pickle

import numpy as np
import pytest

import xdiscord
from xdiscord import (
    AmplificationIndicator,
    AmplificationReport,
    AmplificationScan,
    CriticTimeResult,
    DecayFactors,
    DiscordBreakdown,
    EvolvedXState,
    InvalidStateError,
    ProtectedDiscord,
    QubitPairConfig,
    ReservoirConfig,
    TwoQubitDensity,
    XStateParams,
    cli,
)

# one instance of every record, by keyword, and the repr it prints
RECORDS = [
    (XStateParams(c1=0.6, c2=0.0, c3=0.3), "XStateParams(c1=0.6, c2=0.0, c3=0.3)"),
    (QubitPairConfig(omega_a=2.0, omega_b=1.0),
     "QubitPairConfig(omega_a=2.0, omega_b=1.0)"),
    (TwoQubitDensity(entries=np.eye(4) / 4.0),
     "TwoQubitDensity(entries=array([[0.25+0.j, 0.  +0.j, 0.  +0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.25+0.j, 0.  +0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.  +0.j, 0.25+0.j, 0.  +0.j],\n"
     "       [0.  +0.j, 0.  +0.j, 0.  +0.j, 0.25+0.j]]))"),
    (ReservoirConfig(eta=1.0, omega_c=2.0, temperature=0.5),
     "ReservoirConfig(eta=1.0, omega_c=2.0, temperature=0.5)"),
    (DecayFactors(gamma1=0.25, gamma2=0.5, t=1.0),
     "DecayFactors(gamma1=0.25, gamma2=0.5, t=1.0)"),
    (EvolvedXState(mu=0.5, nu=0.25, delta1=3.0, delta2=1.0, c3=0.3, t=1.0),
     "EvolvedXState(mu=0.5, nu=0.25, delta1=3.0, delta2=1.0, c3=0.3, t=1.0)"),
    (DiscordBreakdown(mutual_information=0.5, classical_correlation=0.25, discord=0.25,
                      chi=0.6, regime="before-critic", t=2.0),
     "DiscordBreakdown(mutual_information=0.5, classical_correlation=0.25, discord=0.25, "
     "chi=0.6, regime='before-critic', t=2.0)"),
    (CriticTimeResult(tc=math.inf), "CriticTimeResult(tc=inf)"),
    (AmplificationReport(c1=0.5, initial=0.125, asymptotic=0.25, rate=2.0),
     "AmplificationReport(c1=0.5, initial=0.125, asymptotic=0.25, rate=2.0)"),
    (AmplificationScan(c1=[0.5], initial=[0.125], asymptotic=[0.25], rate=[2.0],
                       rate_max=2.0, c1_at_max=0.5),
     "AmplificationScan(c1=[0.5], initial=[0.125], asymptotic=[0.25], rate=[2.0], "
     "rate_max=2.0, c1_at_max=0.5)"),
    (AmplificationIndicator(f_value=-0.5, g_value=0.25, h_value=0.0,
                            d_discord_d_gamma1=-0.25, time_slope_sign=1,
                            regime="before-critic"),
     "AmplificationIndicator(f_value=-0.5, g_value=0.25, h_value=0.0, "
     "d_discord_d_gamma1=-0.25, time_slope_sign=1, regime='before-critic')"),
    (ProtectedDiscord(before_critic=0.5, after_critic=0.25),
     "ProtectedDiscord(before_critic=0.5, after_critic=0.25)"),
    (cli.RunConfig(points=40, output="x.csv"),
     "RunConfig(c1=0.6, c2=0.0, c3=0.3, omega_a=1.0, omega_b=1.0, eta=1.0, omega_c=1.0, "
     "temperature=0.0, t_min=0.0, t_max=10.0, points=40, spacing='linear', "
     "large_detuning=False, output='x.csv', time=0.0, oracle=False, coupling_min=0.25, "
     "coupling_max=2.5, coupling_points=100, fraction_min=0.5, fraction_max=1.0, "
     "fraction_points=100, c1_min=0.0001, c1_max=0.6666666666666666, c1_step=0.0001)"),
]
IDS = [type(record).__name__ for record, _ in RECORDS]


@pytest.mark.parametrize("record, shown", RECORDS, ids=IDS)
def test_repr(record, shown):
    assert repr(record) == shown


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_records_are_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1.0  # __slots__ = (): no instance dict


@pytest.mark.parametrize("record", [r for r, _ in RECORDS], ids=IDS)
def test_positional_keyword_and_replayed_construction(record):
    cls = type(record)
    values = [getattr(record, name) for name in record._fields]
    for again in (cls(*values), cls(**dict(zip(record._fields, values))),
                  cls._make(values), record._replace()):
        assert type(again) is cls
        assert repr(again) == repr(record)


@pytest.mark.parametrize("record", [r for r, _ in RECORDS if type(r) is not TwoQubitDensity],
                         ids=[i for i in IDS if i != "TwoQubitDensity"])
def test_records_pickle(record):
    assert pickle.loads(pickle.dumps(record)) == record


def test_defaults():
    assert ReservoirConfig(1.0, 1.0).temperature == 0.0
    assert ReservoirConfig._field_defaults == {"temperature": 0.0}
    assert DecayFactors(0.25, 0.5).t is None
    assert DiscordBreakdown(0.5, 0.25, 0.25, 0.6, "before-critic").t is None
    assert cli.RunConfig() == cli.RunConfig(**cli.RunConfig._field_defaults)
    assert cli.RunConfig().points == 400 and cli.RunConfig().output is None


def test_density_entries_are_a_read_only_copy():
    given = np.eye(4) / 4.0
    rho = TwoQubitDensity(given)
    given[0, 0] = 1.0
    assert rho.entries[0, 0] == 0.25 and rho.entries.dtype == complex
    with pytest.raises(ValueError):
        rho.entries[0, 0] = 1.0


def _not_hermitian():
    m = np.eye(4, dtype=complex) / 4.0
    m[0, 1] = 0.1
    return m


# each validation and the message it raised as a dataclass
INVALID = [
    (lambda: XStateParams(2.0, 0.0, 0.0), r"^c1=2\.0 lies outside \[-1, 1\]$"),
    (lambda: XStateParams(0.0, 0.0, math.nan), r"^c3=nan lies outside \[-1, 1\]$"),
    (lambda: XStateParams(1.0, 0.0, 0.3),
     r"^\(c1, c2, c3\)=\(1\.0, 0\.0, 0\.3\) induce a negative eigenvalue -7\.500000e-02$"),
    (lambda: QubitPairConfig(0.0, 1.0), r"^omega_a=0\.0 must be positive$"),
    (lambda: QubitPairConfig(1.0, math.inf), r"^omega_b=inf must be positive$"),
    (lambda: QubitPairConfig(1e300, 1e300),
     r"^\(omega_a, omega_b\)=\(1e\+300, 1e\+300\): \(omega_a \+ omega_b\)\^2 overflows a "
     r"float$"),
    (lambda: TwoQubitDensity(np.eye(2) / 2.0),
     r"^expected a 4x4 matrix, got shape \(2, 2\)$"),
    (lambda: TwoQubitDensity(_not_hermitian()),
     r"^matrix is not hermitian: max deviation 1\.000e-01$"),
    # NumPy 2 prints the trace as np.complex128(2+0j)
    (lambda: TwoQubitDensity(np.eye(4) / 2.0),
     r"^trace (np\.complex128)?\(2\+0j\) differs from 1 beyond tolerance$"),
    (lambda: TwoQubitDensity(np.diag([1.5, -0.5, 0.0, 0.0])),
     r"^negative eigenvalue -5\.000000e-01 beyond tolerance$"),
    (lambda: ReservoirConfig(0.0, 1.0), r"^eta=0\.0 must be positive$"),
    (lambda: ReservoirConfig(1.0, -1.0), r"^omega_c=-1\.0 must be positive$"),
    (lambda: ReservoirConfig(1.0, 1.0, -0.1), r"^temperature=-0\.1 must be nonnegative$"),
    (lambda: DecayFactors(0.5, 0.25),
     r"^decay factors \(0\.5, 0\.25\) violate 0 <= gamma1 <= gamma2 <= 1$"),
    (lambda: DecayFactors([0.25, 0.5], [0.5, 0.25], [0.0, 1.0]),
     r"^decay factors \(0\.5, 0\.25\) violate 0 <= gamma1 <= gamma2 <= 1 at t=1\.0$"),
    (lambda: EvolvedXState(0.5, 0.25, 0.0, 0.0, 0.3, -1.0), r"^t=-1\.0 must be nonnegative$"),
    (lambda: EvolvedXState(1.5, 0.25, 0.0, 0.0, 0.3, 1.0),
     r"^\(mu, nu, c3\)=\(1\.5, 0\.25, 0\.3\) induce a negative eigenvalue -5\.000000e-02 "
     r"at t=1\.0$"),
    (lambda: DiscordBreakdown(0.5, 0.25, 0.5, 0.6, "before-critic"),
     r"^discord 0\.5 must equal I - C = 0\.5 - 0\.25$"),
    (lambda: DiscordBreakdown(0.25, 0.5, -0.25, 0.6, "before-critic"),
     r"^classical correlation 0\.5 outside \[0, I=0\.25\]$"),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_validation_messages(build, message):
    with pytest.raises(InvalidStateError, match=message):
        build()


def test_replace_and_make_validate():
    with pytest.raises(InvalidStateError, match=r"^temperature=-1\.0 must be nonnegative$"):
        ReservoirConfig(1.0, 1.0)._replace(temperature=-1.0)
    with pytest.raises(InvalidStateError, match=r"^c1=2\.0 lies outside"):
        XStateParams._make([2.0, 0.0, 0.0])


def test_records_compare_as_tuples():
    # equality is tuple equality, and a record unpacks like one
    params = XStateParams(0.6, 0.0, 0.3)
    assert params == (0.6, 0.0, 0.3)
    c1, c2, c3 = params
    assert (c1, c2, c3) == (0.6, 0.0, 0.3)
    assert hash(params) == hash((0.6, 0.0, 0.3))
    assert params._fields == ("c1", "c2", "c3")


ALL = [
    "AmplificationIndicator", "AmplificationReport", "AmplificationScan", "ConfigError",
    "ConvergenceError", "CriticTimeResult", "DecayFactors", "DiscordBreakdown",
    "DomainError", "EvolvedXState", "InvalidStateError", "ProtectedDiscord",
    "QubitPairConfig", "REGIME_AFTER", "REGIME_BEFORE", "REGIME_NONE", "ReservoirConfig",
    "RootFindError", "TwoQubitDensity", "XStateParams", "amplification_indicator",
    "amplification_rate", "assemble_density", "asymptotic_discord_identical",
    "classical_correlation_value", "critic_time", "critic_time_closed_form_detuned",
    "critic_time_closed_form_identical", "decay_factors", "dephasing_exponent",
    "discord_analytic", "discord_bruteforce", "entropy_bits", "evolve_density",
    "evolve_x_state", "initial_discord_identical", "partial_trace", "phase_exponent",
    "protected_discord", "scan_amplification_rate", "von_neumann_entropy",
    "x_state_density", "x_state_from_factors", "xlog2",
]


def test_public_names_resolve():
    # the package loads its modules on first use of a name
    assert xdiscord.__all__ == ALL
    assert set(ALL) <= set(dir(xdiscord))
    star = {}
    exec("from xdiscord import *", star)
    for name in ALL:
        assert star[name] is getattr(xdiscord, name) is vars(xdiscord)[name]
    assert xdiscord.critic_time is xdiscord.analysis.critic_time
    with pytest.raises(AttributeError, match="has no attribute 'beta'"):
        xdiscord.beta
    with pytest.raises(AttributeError, match="has no attribute 'measurement_spread'"):
        xdiscord.measurement_spread
    # each module exports exactly the public functions and classes it defines,
    # and the regime labels are its only other names
    constants = set()
    for module, names in xdiscord._EXPORTS.items():
        mod = importlib.import_module("xdiscord." + module)
        defined = {name for name, obj in vars(mod).items()
                   if (inspect.isfunction(obj) or inspect.isclass(obj))
                   and obj.__module__ == mod.__name__ and not name.startswith("_")}
        exported = set(names.split())
        assert {n for n in exported if callable(getattr(mod, n))} == defined, module
        constants |= exported - defined
    assert constants == {"REGIME_AFTER", "REGIME_BEFORE", "REGIME_NONE"}
