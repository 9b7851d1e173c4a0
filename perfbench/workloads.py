"""Seeded request generators for the xdiscord benchmark.

A workload turns a seed into an endless stream of requests. A request is
the argv of one `xdiscord` subcommand without `--output`, which the worker
appends. The program sees nothing but these argv lists.

Requests come in shuffled blocks with a fixed mix, so every run of a
workload sees the same share of each request kind whatever its seed and
however many requests fit in its time. Within a block, the parameters that
set a request's cost (grid size, t_max, T, eta, query time) are stratified:
the k requests of one kind take one value from each of k equal slices of
the range. That keeps the cost of a block, and so the figures of a run,
from swinging with the seed. Everything else is drawn independently.

Sampling shared by every workload:

- state (c1, c2, c3): uniform over the valid X family, by rejection from
  the cube [-1, 1]^3 (all four spectrum entries (1 + c3 -/+ (c1 - c2))/4,
  (1 - c3 -/+ (c1 + c2))/4 nonnegative); critic-time keeps only states
  whose branches cross at a finite, positive time, so that every one runs
  the root finder
- coupling eta: log-uniform on [0.01, 2]
- frequency ratio omega_a/omega_b: 1 with probability 0.2, otherwise
  uniform on [1, 4]
- temperature T, where a request runs warm: log-uniform on [0.01, 2]

The program searches for a critic time up to omega_c t = 1e6 and exits 3
past it. A timed critic-time request keeps only draws that cross, by the
benchmark's closed form, by omega_c t = SAFE_TAU, a tenth of that horizon,
so no timed request fails. The draws that cross later are not dropped from
view: the HORIZON stream sends such requests at weak coupling, untimed, and
run.py reports how many the program refuses.
"""

from __future__ import annotations

import random

WORKLOADS = ("tables-vacuum", "evolve-thermal", "critic-oracle")
HORIZON = "critic-horizon"
HORIZON_PROBES = 24
SAFE_TAU = 1e5

SPECS = {
    "tables-vacuum": (
        "blocks of 10 at T = 0: 8 evolve (900-1100 points, t_max log-uniform "
        "on [1, 100], 4 linear and 4 log spaced), 1 critic-surface (32x32), "
        "1 amplification (about 1000 rows)"
    ),
    "evolve-thermal": (
        "blocks of 16 evolve at T log-uniform on [0.01, 2], 20-60 points, "
        "t_max log-uniform on [1, 100], 8 linear and 8 log spaced"
    ),
    "critic-oracle": (
        "blocks of 24: 16 critic-time (crossing by omega_c t = 1e5) and 8 discord --oracle "
        "(time log-uniform on [0.01, 100]); half of each at T = 0, half warm; "
        "one in four of each with --large-detuning"
    ),
    HORIZON: (
        "untimed, 24 per critic-oracle run: critic-time at eta log-uniform on "
        "[0.01, 0.05] and T = 0, crossing after omega_c t = 1e5; one in four "
        "with --large-detuning"
    ),
}

def _flag(name: str, value) -> str:
    # "--x=v" form: argparse would take a bare "-1e-05" for an option
    return f"--{name}={value!r}"


def _strata(rng: random.Random, k: int) -> list:
    """k uniforms on [0, 1), one in each of k equal slices, in random order."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return u


def _log_scale(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _is_state(c1: float, c2: float, c3: float) -> bool:
    # strictly inside, so printing and re-parsing never lands on the boundary
    return abs(c1 - c2) < 1.0 + c3 and abs(c1 + c2) < 1.0 - c3


def _state(rng: random.Random, c2_zero: bool = False) -> tuple:
    while True:
        c1, c2, c3 = (rng.uniform(-1.0, 1.0) for _ in range(3))
        if c2_zero:
            c2 = 0.0
        if _is_state(c1, c2, c3):
            return c1, c2, c3


def _ratio(rng: random.Random) -> float:
    return 1.0 if rng.random() < 0.2 else rng.uniform(1.0, 4.0)


def _common(state: tuple, eta: float, ratio: float) -> list:
    return [_flag("c1", state[0]), _flag("c2", state[1]), _flag("c3", state[2]),
            _flag("eta", eta), _flag("ratio", ratio)]


def _evolve(rng: random.Random, points: int, u_tmax: float, spacing: str, u_temp=None) -> list:
    t_max = _log_scale(u_tmax, 1.0, 100.0)
    argv = ["evolve"] + _common(_state(rng), _log_scale(rng.random(), 0.01, 2.0), _ratio(rng))
    argv += [_flag("points", points), _flag("t-max", t_max)]
    if spacing == "log":
        argv += ["--spacing=log", _flag("t-min", t_max * 10.0 ** rng.uniform(-4.0, -2.0))]
    if u_temp is not None:
        argv.append(_flag("temperature", _log_scale(u_temp, 0.01, 2.0)))
    return argv


def _critic_surface(rng: random.Random) -> list:
    # the surface is a T = 0, identical-qubit, c2 = 0 result
    c1, _, c3 = _state(rng, c2_zero=True)
    coupling_min = _log_scale(rng.random(), 0.01, 2.0)
    return ["critic-surface", _flag("c1", c1), "--c2=0.0", _flag("c3", c3),
            _flag("coupling-min", coupling_min),
            _flag("coupling-max", coupling_min * rng.uniform(2.0, 10.0)),
            "--coupling-points=32", "--fraction-points=32"]


def _amplification(rng: random.Random) -> list:
    lo = rng.uniform(1e-3, 0.05)
    hi = rng.uniform(0.5, 0.66)
    return ["amplification"] + _common(_state(rng), _log_scale(rng.random(), 0.01, 2.0), _ratio(rng)) + [
        _flag("c1-min", lo), _flag("c1-max", hi), _flag("c1-step", (hi - lo) / 1000.0),
    ]


def _crosses(state: tuple, ratio: float, detuned: bool) -> bool:
    # the branches cross at a finite, positive time, so critic-time has a root to find
    c1, c2, c3 = state
    floor = 0.5 * abs(c1 + c2) if ratio == 1.0 and not detuned else 0.0
    return floor < abs(c3) < max(abs(c1), abs(c2))


def _crosses_late(state: tuple, eta: float, ratio: float, temperature: float,
                  detuned: bool) -> bool:
    # imported here so that the worker imports scipy through the package first
    import checks
    exponents = checks.decay_exponents(SAFE_TAU, eta, ratio, 1.0, 1.0, temperature, detuned)
    return checks.crossing_gap(*state, *exponents) > 0.0


def _critic_time(rng: random.Random, eta: float, detuned: bool, u_temp=None,
                 late: bool = False) -> list:
    temperature = 0.0 if u_temp is None else _log_scale(u_temp, 0.01, 2.0)
    while True:
        state, ratio = _state(rng), _ratio(rng)
        if (_crosses(state, ratio, detuned)
                and _crosses_late(state, eta, ratio, temperature, detuned) == late):
            break
    argv = ["critic-time"] + _common(state, eta, ratio)
    if u_temp is not None:
        argv.append(_flag("temperature", temperature))
    return argv + (["--large-detuning"] if detuned else [])


def _oracle(rng: random.Random, u_time: float, detuned: bool, u_temp=None) -> list:
    argv = ["discord", "--oracle"] + _common(_state(rng), _log_scale(rng.random(), 0.01, 2.0),
                                             _ratio(rng))
    argv.append(_flag("time", _log_scale(u_time, 0.01, 100.0)))
    if u_temp is not None:
        argv.append(_flag("temperature", _log_scale(u_temp, 0.01, 2.0)))
    return argv + (["--large-detuning"] if detuned else [])


def _block(name: str, rng: random.Random) -> list:
    # parameters that set a request's cost are stratified within the block
    if name == "tables-vacuum":
        spacings = ["linear", "log"] * 4
        block = [_evolve(rng, 900 + int(201 * u), v, sp)
                 for u, v, sp in zip(_strata(rng, 8), _strata(rng, 8), spacings)]
        block += [_critic_surface(rng), _amplification(rng)]
    elif name == "evolve-thermal":
        spacings = ["linear", "log"] * 8
        block = [_evolve(rng, 20 + int(41 * u), v, sp, w)
                 for u, v, sp, w in zip(_strata(rng, 16), _strata(rng, 16), spacings,
                                        _strata(rng, 16))]
    elif name == "critic-oracle":
        detuned = [False, False, False, True] * 2
        block = [_critic_time(rng, _log_scale(u, 0.01, 2.0), d)
                 for u, d in zip(_strata(rng, 8), detuned)]
        block += [_critic_time(rng, _log_scale(u, 0.01, 2.0), d, w)
                  for u, d, w in zip(_strata(rng, 8), detuned, _strata(rng, 8))]
        block += [_oracle(rng, u, d) for u, d in zip(_strata(rng, 4), detuned)]
        block += [_oracle(rng, u, d, w)
                  for u, d, w in zip(_strata(rng, 4), detuned, _strata(rng, 4))]
    elif name == HORIZON:
        detuned = [False, False, False, True]
        # at T > 0 the thermal decay grows linearly in t, so late crossings are T = 0 ones
        block = [_critic_time(rng, _log_scale(rng.random(), 0.01, 0.05), d, late=True)
                 for d in detuned]
    else:
        raise AssertionError(name)
    rng.shuffle(block)
    return block


def _stream(name: str, rng: random.Random):
    while True:
        yield from _block(name, rng)


def requests(name: str, seed: int):
    """Endless, reproducible stream of argv lists for one workload or HORIZON."""
    if name not in WORKLOADS + (HORIZON,):
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return _stream(name, random.Random(f"{name}:{seed}"))
