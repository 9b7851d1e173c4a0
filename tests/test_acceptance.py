"""Acceptance gate: nine go/no-go checks, one visible line each.

Every check prints `PASS <name>: <measured numbers>` (or FAIL) even under
pytest's capture, so a full run leaves an auditable scorecard on the
terminal. Tolerances here are release gates, not unit-test bounds; they
are deliberately looser than the module tests and must never be widened
to make a run green.
"""

import math
import time

import numpy as np
import pytest

from xdiscord import (
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    TwoQubitDensity,
    XStateParams,
    amplification_indicator,
    assemble_density,
    classical_correlation_value,
    critic_time,
    decay_factors,
    discord_analytic,
    discord_bruteforce,
    evolve_density,
    evolve_x_state,
    partial_trace,
    protected_discord,
    scan_amplification_rate,
    x_state_density,
)

from helpers import sample_slope_params, sample_x_params
from oracles import (
    asymptotic_discord_identical,
    bath_dephasing_integral,
    bath_dephasing_low_temperature,
    bath_phase_integral,
    critic_time_closed_form_detuned,
    critic_time_closed_form_identical,
)


def _report(capsys, ok: bool, label: str, detail: str):
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


def test_criterion_1_oracle_equivalence(capsys, rng):
    ratios = (1.0, 1.7, 3.0)
    n = 200
    worst = 0.0
    start = time.perf_counter()
    for i in range(n):
        params = sample_x_params(rng)
        qubits = QubitPairConfig(ratios[i % 3], 1.0)
        res = ReservoirConfig(
            0.5 + 0.25 * (i % 4), 1.0, 0.0 if i % 2 == 0 else 0.4
        )
        t = 0.0 if i % 8 == 0 else float(rng.uniform(0.0, 4.0))
        x = evolve_x_state(params, t, qubits, res)
        gap = abs(
            discord_analytic(x).discord
            - discord_bruteforce(assemble_density(x)).discord
        )
        worst = max(worst, gap)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report(
        capsys, ok, "oracle equivalence",
        f"max |analytic - bruteforce| = {worst:.3e} over {n} states "
        f"({elapsed:.1f} s)",
    )


def test_criterion_2_reservoir_closed_forms(capsys):
    res = ReservoirConfig(0.8, 1.3, 0.0)
    worst_phase = 0.0
    worst_vacuum = 0.0
    for tau in np.geomspace(1e-3, 1e3, 50):
        t = float(tau) / res.omega_c
        phase_exact = res.eta * math.atan(res.omega_c * t)
        worst_phase = max(
            worst_phase,
            abs(bath_phase_integral(t, res) - phase_exact) / phase_exact,
        )
        q_exact = 0.5 * res.eta * math.log1p((res.omega_c * t) ** 2)
        worst_vacuum = max(
            worst_vacuum,
            abs(bath_dephasing_integral(t, res) - q_exact) / q_exact,
        )
    cold = ReservoirConfig(1.0, 1.0, 0.01)  # beta * omega_c = 100
    worst_low = 0.0
    for t in np.geomspace(0.05, 2000.0, 25):
        exact = bath_dephasing_integral(float(t), cold)
        approx = bath_dephasing_low_temperature(float(t), cold)
        worst_low = max(worst_low, abs(approx - exact) / exact)
    ok = worst_phase < 1e-8 and worst_vacuum < 1e-8 and worst_low < 0.01
    _report(
        capsys, ok, "reservoir closed forms",
        f"phase rel {worst_phase:.2e}, vacuum rel {worst_vacuum:.2e}, "
        f"low-T rel {worst_low:.2e}",
    )


def test_criterion_3_critic_time_closed_forms(capsys):
    worst_same = 0.0
    c1 = 0.5
    for k, coupling in enumerate(np.linspace(0.25, 2.5, 20)):
        omega = 1.0 if k % 2 == 0 else 1.3
        eta = float(coupling) / omega**2
        qubits = QubitPairConfig(omega, omega)
        res = ReservoirConfig(eta, 1.0, 0.0)
        for fraction in np.linspace(0.52, 0.98, 20):
            c3 = c1 * float(fraction)
            got = critic_time(XStateParams(c1, 0.0, c3), qubits, res).tc
            want = critic_time_closed_form_identical(c1, c3, eta, omega, 1.0)
            worst_same = max(worst_same, abs(got - want) / want)

    worst_limit = 0.0
    for k, coupling in enumerate(np.linspace(0.25, 4.0, 20)):
        omega_a = 1.0 if k % 2 == 0 else 1.5
        eta = float(coupling) / omega_a**2
        qubits = QubitPairConfig(omega_a, 1.0)
        res = ReservoirConfig(eta, 1.0, 0.0)
        for c in np.linspace(0.05, 0.95, 20):
            params = XStateParams(1.0, -float(c), float(c))
            got = critic_time(
                params, qubits, res, large_detuning_limit=True
            ).tc
            want = critic_time_closed_form_detuned(float(c), eta, omega_a, 1.0)
            worst_limit = max(worst_limit, abs(got - want) / want)

    boundary = critic_time(
        XStateParams(0.5, 0.0, 0.25),
        QubitPairConfig(1.0, 1.0),
        ReservoirConfig(1.0, 1.0, 0.0),
    )
    ok = worst_same < 1e-8 and worst_limit < 1e-8 and boundary.is_infinite
    _report(
        capsys, ok, "critic-time closed forms",
        f"identical-qubit grid rel {worst_same:.2e}, limit-mode grid rel "
        f"{worst_limit:.2e}, half-fraction boundary infinite: "
        f"{boundary.is_infinite}",
    )


def test_criterion_4_stable_amplification(capsys):
    c1 = 0.6
    params = XStateParams(c1, 0.0, c1 / 2.0)
    qubits = QubitPairConfig(1.0, 1.0)
    res = ReservoirConfig(1.0, 1.0, 0.0)
    taus = np.linspace(0.0, 1e3, 400)
    values = np.array([
        discord_analytic(evolve_x_state(params, float(t), qubits, res)).discord
        for t in taus
    ])
    min_step = float(np.diff(values).min())
    tail_gap = abs(values[-1] - asymptotic_discord_identical(c1))
    anchor_gap = abs(asymptotic_discord_identical(2.0 / 3.0) - 1.0 / 3.0)
    ok = min_step >= -1e-12 and tail_gap < 1e-4 and anchor_gap < 1e-10
    _report(
        capsys, ok, "stable amplification",
        f"min grid step {min_step:.2e}, late-time gap {tail_gap:.2e}, "
        f"peak-family anchor gap {anchor_gap:.2e}",
    )


def test_criterion_5_amplification_rate(capsys):
    scan = scan_amplification_rate()
    rate_min = min(scan.rate)
    ok = abs(scan.rate_max - 2.17) < 0.05 and rate_min > 1.0
    _report(
        capsys, ok, "amplification rate",
        f"max rate {scan.rate_max:.7f} at c1 = {scan.c1_at_max:.7f} "
        f"(reported from the scan), min rate {rate_min:.4f}",
    )


def test_criterion_6_sudden_change(capsys):
    params = XStateParams(0.6, 0.0, 0.3)
    res = ReservoirConfig(1.0, 1.0, 0.0)
    frozen = classical_correlation_value(0.3)
    tcs = []
    decreasing_before = True
    worst_after = 0.0
    for r in (1.5, 2.0, 5.0):
        qubits = QubitPairConfig(r, 1.0)
        tc = critic_time(params, qubits, res).tc
        tcs.append(tc)
        cs = [
            discord_analytic(
                evolve_x_state(params, float(t), qubits, res)
            ).classical_correlation
            for t in np.linspace(0.02 * tc, 0.98 * tc, 40)
        ]
        if not all(a > b for a, b in zip(cs, cs[1:])):
            decreasing_before = False
        for t in np.linspace(1.02 * tc, 3.0 * tc, 40):
            c_after = discord_analytic(
                evolve_x_state(params, float(t), qubits, res)
            ).classical_correlation
            worst_after = max(worst_after, abs(c_after - frozen))
    ordered = tcs[0] > tcs[1] > tcs[2]
    ok = decreasing_before and worst_after < 1e-10 and ordered
    _report(
        capsys, ok, "sudden change",
        f"t_c = {tcs[0]:.6f} > {tcs[1]:.6f} > {tcs[2]:.6f}, strictly "
        f"decreasing before: {decreasing_before}, max deviation after "
        f"{worst_after:.2e}",
    )


def test_criterion_7_protected_discord(capsys):
    c = 0.5
    params = XStateParams(1.0, -c, c)
    qubits = QubitPairConfig(1.0, 1.0)
    res = ReservoirConfig(1.0, 1.0, 0.0)
    tc = critic_time(params, qubits, res, large_detuning_limit=True).tc
    want_tc = critic_time_closed_form_detuned(c, 1.0, 1.0, 1.0)
    tc_rel = abs(tc - want_tc) / want_tc

    plateau = protected_discord(c, 1.0).before_critic
    plateau_gap = abs(plateau - 0.18872187554086717)
    worst_before = 0.0
    for t in np.linspace(0.01, tc - 0.01, 60):
        d = discord_analytic(
            evolve_x_state(params, float(t), qubits, res, large_detuning_limit=True)
        ).discord
        worst_before = max(worst_before, abs(d - plateau))

    worst_after = 0.0
    for t in np.linspace(1.02 * tc, 4.0 * tc, 60):
        d = discord_analytic(
            evolve_x_state(params, float(t), qubits, res, large_detuning_limit=True)
        ).discord
        g1 = decay_factors(
            float(t), qubits, res, large_detuning_limit=True
        ).gamma1
        want = protected_discord(c, g1).after_critic
        worst_after = max(worst_after, abs(d - want))

    ok = (
        tc_rel < 1e-8
        and plateau_gap < 1e-15
        and worst_before < 1e-10
        and worst_after < 1e-10
    )
    _report(
        capsys, ok, "protected discord",
        f"t_c rel {tc_rel:.2e} (closed form {want_tc:.6f}), plateau "
        f"deviation {worst_before:.2e}, tail-branch deviation "
        f"{worst_after:.2e}",
    )


def test_criterion_8_derivative_sign(capsys, rng):
    step = 1e-5
    accepted = 0
    mismatches = 0
    attempts = 0
    while accepted < 100 and attempts < 2000:
        attempts += 1
        params = sample_slope_params(rng)
        r = float(rng.choice([1.0, 1.25, 2.0, 4.0]))
        qubits = QubitPairConfig(r, 1.0)
        res = ReservoirConfig(
            float(rng.uniform(0.3, 1.5)),
            1.0,
            0.0 if rng.random() < 0.5 else 0.2,
        )
        t = float(rng.uniform(0.05, 3.0))
        try:
            tc = critic_time(params, qubits, res)
        except RootFindError:
            # crossing beyond any reachable horizon: firmly before it
            regime = "before"
        else:
            if tc.never_crosses:
                regime = "after"
            elif tc.is_infinite:
                regime = "before"
            elif abs(t - tc.tc) < 1e-3:
                continue  # the sign is genuinely discontinuous at the crossing
            else:
                regime = "before" if t < tc.tc else "after"

        def d_at(tt):
            x = evolve_x_state(params, tt, qubits, res)
            return discord_analytic(x, tc_regime=regime).discord

        fd = (d_at(t + step) - d_at(t - step)) / (2.0 * step)
        if abs(fd) < 1e-7:
            continue  # below the resolvable floor of the centered difference
        x = evolve_x_state(params, t, qubits, res)
        ind = amplification_indicator(
            x, params, qubits, res, tc_regime=regime
        )
        accepted += 1
        if ind.time_slope_sign != int(np.sign(fd)):
            mismatches += 1
    ok = accepted >= 100 and mismatches == 0
    _report(
        capsys, ok, "derivative-sign consistency",
        f"{mismatches} sign mismatches over {accepted} admissible points "
        f"({attempts} sampled)",
    )


def test_criterion_9_structural_invariants(capsys, rng):
    cases = 0
    worst_trace = 0.0
    worst_herm = 0.0
    worst_negative = 0.0
    worst_identity = 0.0
    window_ok = True
    for i in range(700):
        params = sample_x_params(rng)
        qubits = QubitPairConfig(float(rng.uniform(1.0, 5.0)), 1.0)
        res = ReservoirConfig(
            float(rng.uniform(0.2, 2.0)), 1.0, 0.0 if i % 2 == 0 else 0.35
        )
        t = float(rng.uniform(0.0, 5.0))
        x = evolve_x_state(params, t, qubits, res)
        rho = np.array(assemble_density(x).entries)
        worst_trace = max(worst_trace, abs(complex(np.trace(rho)) - 1.0))
        worst_herm = max(
            worst_herm, float(np.max(np.abs(rho - rho.conj().T)))
        )
        worst_negative = max(
            worst_negative, -float(np.linalg.eigvalsh(rho).min())
        )
        b = discord_analytic(x)
        worst_identity = max(
            worst_identity,
            abs(b.discord - (b.mutual_information - b.classical_correlation)),
        )
        if not (-1e-12 <= b.classical_correlation <= b.mutual_information + 1e-12):
            window_ok = False
        cases += 1

    worst_path = 0.0
    worst_marginal = 0.0
    for i in range(300):
        params = sample_x_params(rng)
        qubits = QubitPairConfig(float(rng.uniform(1.0, 3.0)), 1.0)
        res = ReservoirConfig(
            float(rng.uniform(0.3, 1.2)), 1.0, 0.0 if i % 3 else 0.25
        )
        t = float(rng.uniform(0.0, 3.0))
        fast = np.array(assemble_density(
            evolve_x_state(params, t, qubits, res)
        ).entries)
        general = evolve_density(x_state_density(params), t, qubits, res)
        worst_path = max(
            worst_path, float(np.max(np.abs(fast - general.entries)))
        )
        for side in ("A", "B"):
            marginal = partial_trace(general, side)
            worst_marginal = max(
                worst_marginal,
                float(np.max(np.abs(marginal - np.eye(2) / 2.0))),
            )
        cases += 1

    worst_residual = 0.0
    worst_seam = 0.0
    for _ in range(50):
        c1 = float(rng.uniform(0.3, 0.5))
        c3 = c1 * float(rng.uniform(0.55, 0.95))
        params = XStateParams(c1, 0.0, c3)
        qubits = QubitPairConfig(float(rng.uniform(1.2, 4.0)), 1.0)
        res = ReservoirConfig(float(rng.uniform(0.4, 1.5)), 1.0, 0.0)
        tc = critic_time(params, qubits, res).tc
        f = decay_factors(tc, qubits, res)
        residual = abs(0.5 * c1 * (f.gamma1 + f.gamma2) - c3)
        worst_residual = max(worst_residual, residual)
        x = evolve_x_state(params, tc, qubits, res)
        seam = abs(
            discord_analytic(x, tc_regime="before").discord
            - discord_analytic(x, tc_regime="after").discord
        )
        worst_seam = max(worst_seam, seam)
        cases += 1

    ok = (
        cases >= 1000
        and worst_trace < 1e-14
        and worst_herm < 1e-14
        and worst_negative < 1e-12
        and worst_identity < 1e-12
        and window_ok
        and worst_path < 1e-13
        and worst_marginal < 1e-14
        and worst_residual < 1e-9
        and worst_seam < 1e-10
    )
    _report(
        capsys, ok, "structural invariants",
        f"{cases} cases; trace {worst_trace:.1e}, hermiticity "
        f"{worst_herm:.1e}, negativity {worst_negative:.1e}, identity "
        f"{worst_identity:.1e}, path gap {worst_path:.1e}, marginal gap "
        f"{worst_marginal:.1e}, crossing residual {worst_residual:.1e}, "
        f"branch seam {worst_seam:.1e}",
    )
