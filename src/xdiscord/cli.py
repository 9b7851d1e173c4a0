"""Command-line front end: parameter sweeps emitted as CSV.

Subcommands: evolve (time series of decay factors, correlations and
discord), critic-surface (scaled crossing time over coupling strength and
c3/c1), amplification (late/initial discord ratio over c1), critic-time
and discord (single-point queries).

Output contract: a leading `#` comment block with the fully resolved
configuration, one header row, then comma-separated values with 17
significant digits and LF line endings. Infinite values are emitted as
`inf`, invalid surface cells as `nan`; a surface cell whose omega_c t_c
overflows a float reads `inf`. Runs with identical configuration
produce byte-identical output. A run that fails with exit code 3 or 4
writes only the comment block, which names its inputs, and no header or
rows.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (root
finding, grid refinement), 4 domain error during computation.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    critic_time,
    critic_time_closed_form_identical,
    scan_amplification_rate,
)
from .discord import discord_analytic, discord_bruteforce
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InvalidStateError,
    RootFindError,
)
from .evolution import EvolvedXState, assemble_density, x_state_from_factors
from .reservoir import ReservoirConfig, decay_factors
from .states import QubitPairConfig, XStateParams

# either give both absolute frequencies, or a reference omega_b plus ratio
_FREQ_ABSOLUTE = ("omega_a", "omega_b")
_FREQ_RELATIVE = ("omega", "ratio")

_SPACINGS = ("linear", "log")


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; every field already validated.

    The field defaults are the command-line defaults, and each field's type
    is the type its config-file value is parsed into.
    """

    c1: float = 0.6
    c2: float = 0.0
    c3: float = 0.3
    omega_a: float = 1.0
    omega_b: float = 1.0
    eta: float = 1.0
    omega_c: float = 1.0
    temperature: float = 0.0
    t_min: float = 0.0
    t_max: float = 10.0
    points: int = 400
    spacing: str = "linear"
    large_detuning: bool = False
    output: str | None = None

    def state_params(self) -> XStateParams:
        return XStateParams(self.c1, self.c2, self.c3)

    def qubits(self) -> QubitPairConfig:
        return QubitPairConfig(self.omega_a, self.omega_b)

    def reservoir(self) -> ReservoirConfig:
        return ReservoirConfig(self.eta, self.omega_c, self.temperature)

    def time_grid(self) -> np.ndarray:
        # values of omega_c * t; conversion to bare time happens per row
        if self.spacing == "linear":
            return np.linspace(self.t_min, self.t_max, self.points)
        return np.geomspace(self.t_min, self.t_max, self.points)


# the frequencies are resolved from either style by _resolve_frequencies
_DEFAULTS = {
    f.name: f.default for f in fields(RunConfig) if f.name not in _FREQ_ABSOLUTE
}
# `str | None` parses as str
_KEY_TYPES = {
    name: (typing.get_args(hint) or (hint,))[0]
    for name, hint in typing.get_type_hints(RunConfig).items()
}
_KEY_TYPES.update(dict.fromkeys(_FREQ_RELATIVE, float))
_STAMP_FIELDS = tuple(f.name for f in fields(RunConfig) if f.name != "output")


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(key: str, raw: str, where: str):
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            return _parse_bool(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{where}: value {raw!r} for key {key!r} is not a valid "
            f"{kind.__name__}"
        ) from None


def read_config_file(path: str) -> dict:
    """Parse a key=value config file; `#` lines and blanks are skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    values = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {text!r}")
        key, _, raw = text.partition("=")
        key = key.strip().lower().replace("-", "_")
        if key not in _KEY_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip(), f"{path}:{lineno}")
    return values


def _resolve_frequencies(given: dict) -> tuple:
    has_abs = [k for k in _FREQ_ABSOLUTE if k in given]
    has_rel = [k for k in _FREQ_RELATIVE if k in given]
    if has_abs and has_rel:
        raise ConfigError(
            f"contradictory frequency settings: {'/'.join(has_abs)} cannot be "
            f"combined with {'/'.join(has_rel)}"
        )
    if has_abs:
        if len(has_abs) != 2:
            missing = set(_FREQ_ABSOLUTE).difference(has_abs).pop()
            raise ConfigError(
                f"absolute frequencies need both omega_a and omega_b "
                f"(missing {missing})"
            )
        return float(given["omega_a"]), float(given["omega_b"])
    omega_b = float(given.get("omega", 1.0))
    ratio = float(given.get("ratio", 1.0))
    return ratio * omega_b, omega_b


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win)."""
    given = {}
    if getattr(args, "config", None):
        given.update(read_config_file(args.config))
    for key in _KEY_TYPES:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            given[key] = flag_value

    omega_a, omega_b = _resolve_frequencies(given)
    merged = {key: given.get(key, default) for key, default in _DEFAULTS.items()}

    if merged["spacing"] not in _SPACINGS:
        raise ConfigError(
            f"spacing={merged['spacing']!r}; expected one of {_SPACINGS}"
        )
    cfg = RunConfig(
        omega_a=omega_a,
        omega_b=omega_b,
        **{
            key: value if value is None else _KEY_TYPES[key](value)
            for key, value in merged.items()
        },
    )
    # re-run the module-level validations now so bad values exit with code 2
    try:
        cfg.state_params()
        cfg.qubits()
        cfg.reservoir()
    except (InvalidStateError, DomainError) as exc:
        raise ConfigError(str(exc)) from None
    if cfg.points < 2:
        raise ConfigError(f"points={cfg.points} must be at least 2")
    if not (math.isfinite(cfg.t_min) and math.isfinite(cfg.t_max)):
        raise ConfigError("time bounds must be finite")
    if cfg.t_min < 0.0:
        raise ConfigError(f"t_min={cfg.t_min!r} must be nonnegative")
    if cfg.t_max <= cfg.t_min:
        raise ConfigError(
            f"t_max={cfg.t_max!r} must exceed t_min={cfg.t_min!r}"
        )
    if cfg.spacing == "log" and cfg.t_min <= 0.0:
        raise ConfigError("log spacing needs t_min > 0")
    return cfg


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, str)):
        return str(v)
    # prints nan, inf and -inf as they are
    return format(v, ".17g")


class _CsvWriter:
    def __init__(self, stream):
        self.stream = stream

    def comment(self, text: str):
        self.stream.write(f"# {text}\n")

    def table(self, header, formats, rows):
        """The header line, then each row through one %-format per column.

        '%.17g' prints a float as format(x, '.17g') does, nan, inf and -0
        included; labels use '%s'.
        """
        line = ",".join(formats) + "\n"
        self.stream.write(",".join(header) + "\n" + "".join([line % row for row in rows]))


def _stamp(w: _CsvWriter, command: str, cfg: RunConfig, extra=()):
    w.comment(f"command = {command}")
    for name in _STAMP_FIELDS:
        w.comment(f"{name} = {_format_value(getattr(cfg, name))}")
    for key, value in extra:
        w.comment(f"{key} = {_format_value(value)}")


_SERIES_HEADER = (
    "omega_c_t",
    "gamma1",
    "gamma2",
    "mu",
    "nu",
    "chi",
    "mutual_information",
    "classical_correlation",
    "discord",
    "regime",
)


_FLOAT = ("%.17g",)
_SERIES_FORMATS = _FLOAT * 9 + ("%s",)


def _series(cfg: RunConfig, tau: np.ndarray):
    """The evolved state and the table columns at the omega_c t values tau."""
    qubits = cfg.qubits()
    # quiet, as float arithmetic is: a huge tau / omega_c or (omega_a + omega_b) t
    # overflows to inf
    with np.errstate(over="ignore"):
        t = tau / cfg.omega_c
        f = decay_factors(t, qubits, cfg.reservoir(), large_detuning_limit=cfg.large_detuning)
        x = x_state_from_factors(cfg.state_params(), t, qubits, f)
        b = discord_analytic(x)
    columns = [
        tau, f.gamma1, f.gamma2, x.mu, x.nu, b.chi,
        b.mutual_information, b.classical_correlation, b.discord, b.regime,
    ]
    return x, [c.tolist() for c in columns]


def cmd_evolve(cfg: RunConfig, args, w: _CsvWriter) -> int:
    _stamp(w, "evolve", cfg)
    _, columns = _series(cfg, cfg.time_grid())
    w.table(_SERIES_HEADER, _SERIES_FORMATS, zip(*columns))
    return 0


def cmd_discord(cfg: RunConfig, args, w: _CsvWriter) -> int:
    tau = float(args.time)
    if not tau >= 0.0:
        raise ConfigError(f"--time {tau!r} must be nonnegative")
    _stamp(w, "discord", cfg, extra=(("time", tau), ("oracle", bool(args.oracle))))
    x, columns = _series(cfg, np.array([tau]))
    header, formats = _SERIES_HEADER, _SERIES_FORMATS
    if args.oracle:
        point = EvolvedXState(x.mu.item(), x.nu.item(), x.delta1.item(), x.delta2.item(),
                              x.c3, x.t.item())
        columns.append([discord_bruteforce(assemble_density(point)).discord])
        header, formats = header + ("discord_bruteforce",), formats + _FLOAT
    w.table(header, formats, zip(*columns))
    return 0


def cmd_critic_time(cfg: RunConfig, args, w: _CsvWriter) -> int:
    _stamp(w, "critic-time", cfg)
    result = critic_time(
        cfg.state_params(), cfg.qubits(), cfg.reservoir(),
        large_detuning_limit=cfg.large_detuning,
    )
    if result.never_crosses:
        row = (math.nan, "no-crossing", result.method)
    elif result.is_infinite:
        row = (math.inf, "infinite", result.method)
    else:
        row = (cfg.omega_c * result.tc, "finite", result.method)
    w.table(("omega_c_tc", "status", "method"), _FLOAT + ("%s", "%s"), [row])
    return 0


def cmd_critic_surface(cfg: RunConfig, args, w: _CsvWriter) -> int:
    if cfg.temperature != 0.0:
        raise ConfigError("critic-surface is a zero-temperature result; drop T")
    if cfg.omega_a != cfg.omega_b:
        raise ConfigError("critic-surface assumes identical qubits")
    if cfg.c2 != 0.0:
        raise ConfigError("critic-surface assumes c2 = 0")
    for name in ("coupling", "fraction"):
        lo = getattr(args, f"{name}_min")
        hi = getattr(args, f"{name}_max")
        n = getattr(args, f"{name}_points")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(f"bad {name} range [{lo!r}, {hi!r}]")
        if n < 1:
            raise ConfigError(f"{name}_points={n} must be at least 1")
    if args.coupling_min <= 0.0:
        raise ConfigError("coupling (eta * omega^2) must be positive")
    extra = [(f"{name}_{end}", getattr(args, f"{name}_{end}"))
             for name in ("coupling", "fraction") for end in ("min", "max", "points")]
    _stamp(w, "critic-surface", cfg, extra=extra)
    couplings = np.linspace(args.coupling_min, args.coupling_max, args.coupling_points)
    fractions = np.linspace(args.fraction_min, args.fraction_max, args.fraction_points)
    rows = []
    for coupling in couplings.tolist():
        for fraction in fractions.tolist():
            try:
                # only c3/c1 and eta*omega^2 enter; c1 = 1/2 is representative
                tc = critic_time_closed_form_identical(
                    c1=0.5,
                    c3=0.5 * fraction,
                    eta=coupling,
                    omega=1.0,
                    omega_c=cfg.omega_c,
                )
                scaled = cfg.omega_c * tc
            except DomainError:
                scaled = math.nan
            rows.append((coupling, fraction, scaled))
    w.table(("eta_omega_sq", "c3_over_c1", "omega_c_tc"), _FLOAT * 3, rows)
    return 0


def cmd_amplification(cfg: RunConfig, args, w: _CsvWriter) -> int:
    lo, hi, step = args.c1_min, args.c1_max, args.c1_step
    if not (0.0 < lo < hi <= 2.0 / 3.0):
        raise ConfigError(
            f"c1 range ({lo!r}, {hi!r}) must sit inside (0, 2/3]"
        )
    if not (0.0 < step <= hi - lo):
        raise ConfigError(f"c1_step={step!r} out of range")
    extra = (("c1_min", lo), ("c1_max", hi), ("c1_step", step))
    _stamp(w, "amplification", cfg, extra=extra)
    scan = scan_amplification_rate(lo, hi, step)
    columns = (scan.c1, scan.initial, scan.asymptotic, scan.rate)
    w.table(("c1", "initial_discord", "asymptotic_discord", "rate"), _FLOAT * 4,
            zip(*(c.tolist() for c in columns)))
    w.comment(
        f"rate_max = {_format_value(scan.rate_max)} "
        f"at c1 = {_format_value(scan.c1_at_max)}"
    )
    return 0


_GNUPLOT_BODY = {
    "evolve": (
        'set xlabel "omega_c t"\n'
        'set ylabel "correlations"\n'
        'plot datafile skip 1 using 1:9 with lines title "discord", \\\n'
        '     datafile skip 1 using 1:8 with lines title "classical"\n'
    ),
    "discord": (
        'set xlabel "omega_c t"\n'
        'set ylabel "discord"\n'
        'plot datafile skip 1 using 1:9 with points title "discord"\n'
    ),
    "amplification": (
        'set xlabel "c1"\n'
        'set ylabel "rate"\n'
        'plot datafile skip 1 using 1:4 with lines title "late/initial discord"\n'
    ),
    "critic-surface": (
        'set xlabel "eta omega^2"\n'
        'set ylabel "c3/c1"\n'
        "set view map\n"
        'splot datafile skip 1 using 1:2:3 with pm3d title "omega_c t_c"\n'
    ),
    "critic-time": None,
}


def _write_gnuplot(path: str, command: str, csv_path: str):
    body = _GNUPLOT_BODY.get(command)
    if body is None:
        raise ConfigError(f"--gnuplot is not available for {command!r}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set datafile separator comma\n")
        fh.write("set datafile commentschars '#'\n")
        fh.write(f'datafile = "{csv_path}"\n')
        fh.write(body)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="xdiscord",
        description=(
            "Dephasing dynamics and quantum discord of two uncoupled qubits "
            "in a common Ohmic reservoir."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--config", "-c", metavar="FILE",
                       help="key=value config file; flags override it")
        p.add_argument("--c1", type=float, help="initial Bloch tensor c1 (default 0.6)")
        p.add_argument("--c2", type=float, help="initial Bloch tensor c2 (default 0)")
        p.add_argument("--c3", type=float, help="initial Bloch tensor c3 (default 0.3)")
        p.add_argument("--omega-a", type=float, dest="omega_a",
                       help="qubit A level splitting (needs --omega-b)")
        p.add_argument("--omega-b", type=float, dest="omega_b",
                       help="qubit B level splitting (needs --omega-a)")
        p.add_argument("--omega", type=float,
                       help="reference splitting for qubit B (default 1)")
        p.add_argument("--ratio", "-r", type=float,
                       help="frequency ratio omega_a / omega_b (default 1)")
        p.add_argument("--eta", type=float, help="Ohmic coupling strength (default 1)")
        p.add_argument("--omega-c", type=float, dest="omega_c",
                       help="reservoir cutoff frequency (default 1)")
        p.add_argument("--temperature", "-T", type=float,
                       help="reservoir temperature (default 0)")
        p.add_argument("--large-detuning", action="store_const", const=True,
                       dest="large_detuning",
                       help="force both decay factors onto the gamma1 exponent")
        p.add_argument("--output", "-o", metavar="FILE",
                       help="write CSV here instead of stdout")
        p.add_argument("--gnuplot", metavar="FILE",
                       help="also write a gnuplot script reading the CSV "
                            "(needs --output)")

    def add_grid(p: argparse.ArgumentParser):
        p.add_argument("--t-min", type=float, dest="t_min",
                       help="grid start in omega_c*t units (default 0)")
        p.add_argument("--t-max", type=float, dest="t_max",
                       help="grid end in omega_c*t units (default 10)")
        p.add_argument("--points", type=int, help="grid size (default 400)")
        p.add_argument("--spacing", choices=_SPACINGS,
                       help="grid spacing (default linear)")

    p_evolve = sub.add_parser(
        "evolve", help="time series of decay factors, correlations and discord"
    )
    add_common(p_evolve)
    add_grid(p_evolve)
    p_evolve.set_defaults(func=cmd_evolve)

    p_discord = sub.add_parser("discord", help="single-point discord query")
    add_common(p_discord)
    p_discord.add_argument("--time", "-t", type=float, default=0.0,
                           help="query time in omega_c*t units (default 0)")
    p_discord.add_argument("--oracle", action="store_true",
                           help="append a brute-force minimization column")
    p_discord.set_defaults(func=cmd_discord)

    p_tc = sub.add_parser("critic-time", help="crossing time of the two branches")
    add_common(p_tc)
    p_tc.set_defaults(func=cmd_critic_time)

    p_surface = sub.add_parser(
        "critic-surface",
        help="scaled critic time over coupling strength and c3/c1",
    )
    add_common(p_surface)
    p_surface.add_argument("--coupling-min", type=float, default=0.25,
                           help="eta * omega^2 lower edge (default 0.25)")
    p_surface.add_argument("--coupling-max", type=float, default=2.5,
                           help="eta * omega^2 upper edge (default 2.5)")
    p_surface.add_argument("--coupling-points", type=int, default=100,
                           help="grid size along the coupling axis (default 100)")
    p_surface.add_argument("--fraction-min", type=float, default=0.5,
                           help="c3/c1 lower edge (default 0.5)")
    p_surface.add_argument("--fraction-max", type=float, default=1.0,
                           help="c3/c1 upper edge (default 1)")
    p_surface.add_argument("--fraction-points", type=int, default=100,
                           help="grid size along the c3/c1 axis (default 100)")
    p_surface.set_defaults(func=cmd_critic_surface)

    p_amp = sub.add_parser(
        "amplification", help="late/initial discord ratio over the c1 family"
    )
    add_common(p_amp)
    p_amp.add_argument("--c1-min", type=float, default=1e-4,
                       help="scan start (default 1e-4)")
    p_amp.add_argument("--c1-max", type=float, default=2.0 / 3.0,
                       help="scan end (default 2/3)")
    p_amp.add_argument("--c1-step", type=float, default=1e-4,
                       help="scan step (default 1e-4)")
    p_amp.set_defaults(func=cmd_amplification)

    return parser


def _emit(output: str | None, text: str):
    if output:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args)
        if args.gnuplot and not cfg.output:
            raise ConfigError("--gnuplot needs --output so the script has a file to read")
        buffer = io.StringIO()
        try:
            code = args.func(cfg, args, _CsvWriter(buffer))
        except (RootFindError, ConvergenceError, DomainError, InvalidStateError):
            # tables are written once computed, so this is the stamp alone: the
            # inputs are on record, but no header row lets it pass for an empty result
            _emit(cfg.output, buffer.getvalue())
            raise
        _emit(cfg.output, buffer.getvalue())
        if args.gnuplot:
            _write_gnuplot(args.gnuplot, args.command, cfg.output)
        return code
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RootFindError, ConvergenceError) as exc:
        best = getattr(exc, "best_so_far", None)
        found = "" if best is None else f"; best discord found {best.discord:.17g}"
        print(f"numeric failure: {exc}{found}", file=sys.stderr)
        return 3
    except (DomainError, InvalidStateError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 4


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
