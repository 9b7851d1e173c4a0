"""Command-line front end: parameter sweeps emitted as CSV.

Subcommands: evolve (time series of decay factors, correlations and
discord), critic-surface (scaled crossing time over coupling strength and
c3/c1), amplification (late/initial discord ratio over c1), critic-time
and discord (single-point queries).

Parameters: _KEYS is the one table of them, a dict from each key to its
default, help text, type, flag aliases and further argparse keywords.
Each key is both a config-file key and a flag. RunConfig, the named tuple
a run reads its parameters from, takes its fields and defaults from that
table, all but omega and ratio, which resolve into omega_a and omega_b.
_COMMAND_KEYS names the keys that belong to one subcommand, and the rest
are shared. A config file accepts the shared keys plus those of the
subcommand it runs. The time grid keys are shared but flags of evolve only.

Output contract: a leading `#` comment block with the fully resolved
configuration, one header row, then comma-separated values with 17
significant digits and LF line endings. Infinite values are emitted as
`inf`. A surface cell is critic-time's omega_c t_c for c1 = 1/2, c2 = 0,
c3 = c1 c3/c1 at eta = the coupling and T = 0, with no horizon: `nan`
where the pole branch already wins at t = 0 (|c3/c1| > 1, no crossing),
`inf` where the branches meet only as t -> inf (|c3/c1| <= 1/2) or where
omega_c t_c overflows a float, `0` on the tie |c3/c1| = 1. Runs with
identical configuration produce byte-identical output, and the comment
block minus its `command` line, read back with --config, replays the
run. In evolve and discord, a finite omega_c t whose bare time
(omega_c t)/omega_c overflows a float is a configuration error. A run
that fails with exit code 3 or 4 writes only the comment block, which
names its inputs, and no header or rows.

Exit codes: 0 success, 2 configuration error, 3 numeric failure (root
finding, grid refinement), 4 domain error during computation. A table of
more than _MAX_ROWS rows is a configuration error, refused before it is
built.

Only the brute-force oracle (discord --oracle) loads NumPy; every other
run computes on Python floats. Only critic-time, critic-surface and
amplification load the analysis module, when they run.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from collections import namedtuple

from .discord import discord_analytic, discord_bruteforce
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    InvalidStateError,
    RootFindError,
)
from .evolution import EvolvedXState, assemble_density, x_state_from_factors
from .reservoir import ReservoirConfig, _decay_rates, decay_factors
from .states import QubitPairConfig, XStateParams

# either give both absolute frequencies, or a reference omega_b plus ratio
_FREQ_ABSOLUTE = ("omega_a", "omega_b")
# keys that are no RunConfig field: _resolve_frequencies turns them into omega_a, omega_b
_FREQ_RELATIVE = ("omega", "ratio")

_SPACINGS = ("linear", "log")

# the most rows one table may have: an evolve row peaks at about 800 bytes
# in memory, so 0.8 GB; the largest documented table has 40,000 rows
_MAX_ROWS = 10**6

# one parameter: its default, help text, the type a value is parsed into,
# the short aliases of its flag and any further add_argument keywords
_Key = namedtuple("_Key", "default help type flags kw")


def _key(default, help, *flags, type=None, **kw):
    """A parameter whose type is its default's unless given."""
    return _Key(default, help, type or default.__class__, flags, kw)


# the parameter table: name -> _Key, in the order of --help and of the stamps
_KEYS = {
    "c1": _key(0.6, "initial Bloch tensor c1"),
    "c2": _key(0.0, "initial Bloch tensor c2"),
    "c3": _key(0.3, "initial Bloch tensor c3"),
    "omega_a": _key(1.0, "qubit A level splitting (needs --omega-b)"),
    "omega_b": _key(1.0, "qubit B level splitting (needs --omega-a)"),
    "eta": _key(1.0, "Ohmic coupling strength"),
    "omega_c": _key(1.0, "reservoir cutoff frequency"),
    "temperature": _key(0.0, "reservoir temperature", "-T"),
    "t_min": _key(0.0, "grid start in omega_c*t units"),
    "t_max": _key(10.0, "grid end in omega_c*t units"),
    "points": _key(400, "grid size"),
    "spacing": _key("linear", "grid spacing", choices=_SPACINGS),
    "large_detuning": _key(False, "force both decay factors onto the gamma1 exponent"),
    "output": _key(None, "write CSV here instead of stdout", "-o", type=str, metavar="FILE"),
    "time": _key(0.0, "query time in omega_c*t units", "-t"),
    "oracle": _key(False, "append a brute-force minimization column"),
    "coupling_min": _key(0.25, "eta * omega^2 lower edge"),
    "coupling_max": _key(2.5, "eta * omega^2 upper edge"),
    "coupling_points": _key(100, "grid size along the coupling axis"),
    "fraction_min": _key(0.5, "c3/c1 lower edge"),
    "fraction_max": _key(1.0, "c3/c1 upper edge"),
    "fraction_points": _key(100, "grid size along the c3/c1 axis"),
    "c1_min": _key(1e-4, "scan start"),
    "c1_max": _key(2.0 / 3.0, "scan end"),
    "c1_step": _key(1e-4, "scan step"),
    "omega": _key(1.0, "reference splitting for qubit B"),
    "ratio": _key(1.0, "frequency ratio omega_a / omega_b", "-r"),
}
_FIELDS = tuple(key for key in _KEYS if key not in _FREQ_RELATIVE)


class RunConfig(namedtuple("RunConfig", _FIELDS, defaults=[_KEYS[k].default for k in _FIELDS])):
    """Fully resolved run parameters; every field already validated.

    Its fields are the keys of _KEYS, the parameter table of the command
    line, but omega and ratio. Each key is a config-file key and a flag,
    --<key> with dashes for underscores; its default is the default of
    both.
    """

    __slots__ = ()

    def state_params(self) -> XStateParams:
        return XStateParams(self.c1, self.c2, self.c3)

    def qubits(self) -> QubitPairConfig:
        return QubitPairConfig(self.omega_a, self.omega_b)

    def reservoir(self) -> ReservoirConfig:
        return ReservoirConfig(self.eta, self.omega_c, self.temperature)

    def time_grid(self) -> list:
        # values of omega_c * t; conversion to bare time happens per row
        lo, hi, n = self.t_min, self.t_max, self.points
        if self.spacing == "linear":
            return _linspace(lo, hi, n)
        # from the nearer end, exp(v) sees -ln(hi/lo)/2 <= v <= 0: less to magnify, no overflow
        r = (math.log(hi / lo) if hi / lo < math.inf else math.log(hi) - math.log(lo)) / (n - 1)
        return [lo / math.exp(-i * r) if 2 * i < n else hi * math.exp((i + 1 - n) * r)
                for i in range(n)]


def _linspace(lo: float, hi: float, n: int) -> list:
    """np.linspace(lo, hi, n).tolist(), bit for bit, in Python floats."""
    div = n - 1
    if div <= 0:
        return [i * (hi - lo) + lo for i in range(n)]
    step = (hi - lo) / div
    if step == 0.0:
        # a subnormal range: scale by i/div first, as NumPy does
        grid = [i / div * (hi - lo) + lo for i in range(n)]
    else:
        grid = [i * step + lo for i in range(n)]
    grid[-1] = hi
    return grid


# the keys each subcommand adds to the shared ones, in stamp order
_COMMAND_KEYS = {
    "evolve": (),
    "discord": ("time", "oracle"),
    "critic-time": (),
    "critic-surface": tuple(
        f"{axis}_{end}" for axis in ("coupling", "fraction") for end in ("min", "max", "points")
    ),
    "amplification": ("c1_min", "c1_max", "c1_step"),
}
_SHARED_KEYS = tuple(
    key for key in _KEYS if not any(key in own for own in _COMMAND_KEYS.values())
)
# shared keys, and so in every stamp and config file, but flags of evolve only
_GRID_KEYS = ("t_min", "t_max", "points", "spacing")
_STAMP_FIELDS = tuple(k for k in _SHARED_KEYS if k not in (*_FREQ_RELATIVE, "output"))


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _convert(key: str, raw: str, where: str):
    kind = _KEYS[key].type
    try:
        if kind is bool:
            return _parse_bool(raw)
        return kind(raw)
    except ValueError:
        raise ConfigError(
            f"{where}: value {raw!r} for key {key!r} is not a valid "
            f"{kind.__name__}"
        ) from None


def read_config_file(path: str, keys) -> dict:
    """Parse a key=value config file of the given keys; `#` lines and blanks
    are skipped."""
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _convert(key, raw.strip(), f"{path}:{lineno}")
    return values


def _resolve_frequencies(given: dict) -> tuple:
    """(omega_a, omega_b) from either style; a bad pair from omega and ratio names them."""
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
    omega_b = float(given.get("omega", _KEYS["omega"].default))
    ratio = float(given.get("ratio", _KEYS["ratio"].default))
    try:
        QubitPairConfig.from_ratio(omega_b, ratio)
    except InvalidStateError as exc:
        raise ConfigError(f"(omega, ratio)=({omega_b!r}, {ratio!r}): {exc}") from None
    return ratio * omega_b, omega_b


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config-file values, and flags (flags win)."""
    keys = _SHARED_KEYS + _COMMAND_KEYS[args.command]
    given = read_config_file(args.config, keys) if args.config else {}
    for key in keys:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            given[key] = flag_value

    omega_a, omega_b = _resolve_frequencies(given)
    # omega_a and omega_b come from _resolve_frequencies
    merged = {key: given.get(key, default) for key, default in RunConfig._field_defaults.items()
              if key not in _FREQ_ABSOLUTE}

    if merged["spacing"] not in _SPACINGS:
        raise ConfigError(
            f"spacing={merged['spacing']!r}; expected one of {_SPACINGS}"
        )
    cfg = RunConfig(
        omega_a=omega_a,
        omega_b=omega_b,
        **{
            key: value if value is None else _KEYS[key].type(value)
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
        raise ConfigError(f"t_min={cfg.t_min!r} and t_max={cfg.t_max!r} must be finite")
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


def _check_rows(rows: float, keys: str):
    """Refuse, before it is built, a table of more than _MAX_ROWS rows."""
    if rows > _MAX_ROWS:
        raise ConfigError(f"{keys} give a table of {rows:.6g} rows, more than the "
                          f"{_MAX_ROWS} allowed")


def _stamp(w: _CsvWriter, command: str, cfg: RunConfig):
    w.comment(f"command = {command}")
    for name in _STAMP_FIELDS + _COMMAND_KEYS[command]:
        w.comment(f"{name} = {_format_value(getattr(cfg, name))}")


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


def _series(cfg: RunConfig, tau: list):
    """The evolved state and the table columns at the omega_c t values tau."""
    qubits = cfg.qubits()
    omega_c = cfg.omega_c
    t = [v / omega_c for v in tau]
    # a finite tau whose bare time overflows is refused: every decay factor would read 0
    if math.inf in t:
        for v, tv in zip(tau, t):
            if tv == math.inf and v != math.inf:
                raise ConfigError(f"omega_c t={v!r} at omega_c={omega_c!r} is a bare "
                                  "time t past the float range")
    f = decay_factors(t, qubits, cfg.reservoir(), large_detuning_limit=cfg.large_detuning)
    x = x_state_from_factors(cfg.state_params(), t, qubits, f)
    b = discord_analytic(x)
    columns = [
        tau, f.gamma1, f.gamma2, x.mu, x.nu, b.chi,
        b.mutual_information, b.classical_correlation, b.discord, b.regime,
    ]
    return x, columns


def cmd_evolve(cfg: RunConfig, w: _CsvWriter):
    """time series of decay factors, correlations and discord"""
    _check_rows(cfg.points, "points")
    _, columns = _series(cfg, cfg.time_grid())
    w.table(_SERIES_HEADER, _SERIES_FORMATS, zip(*columns))


def cmd_discord(cfg: RunConfig, w: _CsvWriter):
    """single-point discord query"""
    if not cfg.time >= 0.0:
        raise ConfigError(f"--time {cfg.time!r} must be nonnegative")
    x, columns = _series(cfg, [cfg.time])
    header, formats = _SERIES_HEADER, _SERIES_FORMATS
    if cfg.oracle:
        point = EvolvedXState(x.mu[0], x.nu[0], x.delta1[0], x.delta2[0], x.c3, x.t[0])
        try:
            rho = assemble_density(point)  # the first NumPy import
        except ImportError:
            raise ConfigError("--oracle needs NumPy: pip install 'xdiscord[oracle]'") from None
        columns.append([discord_bruteforce(rho).discord])
        header, formats = header + ("discord_bruteforce",), formats + _FLOAT
    w.table(header, formats, zip(*columns))


def cmd_critic_time(cfg: RunConfig, w: _CsvWriter):
    """crossing time of the two branches"""
    from .analysis import critic_time

    result = critic_time(
        cfg.state_params(), cfg.qubits(), cfg.reservoir(),
        large_detuning_limit=cfg.large_detuning,
    )
    if result.never_crosses:
        row = (math.nan, "no-crossing")
    elif result.is_infinite:
        row = (math.inf, "infinite")
    else:
        row = (cfg.omega_c * result.tc, "finite")
    w.table(("omega_c_tc", "status", "method"), _FLOAT + ("%s", "%s"), [row + ("root-find",)])


def cmd_critic_surface(cfg: RunConfig, w: _CsvWriter):
    """scaled critic time over coupling strength and c3/c1"""
    from .analysis import _zero_temperature_crossing

    if cfg.temperature != 0.0:
        raise ConfigError(
            f"temperature={cfg.temperature!r}: critic-surface is a zero-temperature result"
        )
    if cfg.omega_a != cfg.omega_b:
        raise ConfigError(
            f"critic-surface assumes identical qubits, not omega_a={cfg.omega_a!r} and "
            f"omega_b={cfg.omega_b!r} (ratio {cfg.omega_a / cfg.omega_b!r})"
        )
    if cfg.c2 != 0.0:
        raise ConfigError(f"c2={cfg.c2!r}: critic-surface assumes c2 = 0")
    axes = []
    for name in ("coupling", "fraction"):
        lo, hi, n = (getattr(cfg, f"{name}_{end}") for end in ("min", "max", "points"))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
            raise ConfigError(
                f"{name}_min={lo!r} and {name}_max={hi!r} must be finite, "
                f"{name}_min <= {name}_max"
            )
        if n < 1:
            raise ConfigError(f"{name}_points={n} must be at least 1")
        axes.append((lo, hi, n))
    _check_rows(cfg.coupling_points * cfg.fraction_points, "coupling_points * fraction_points")
    axes = [_linspace(*axis) for axis in axes]
    if cfg.coupling_min <= 0.0:
        raise ConfigError(
            f"coupling_min={cfg.coupling_min!r}: the coupling eta * omega^2 must be positive"
        )
    # only c3/c1 and eta*omega^2 enter: c1 = 1/2 keeps 2 c3 - c1 exact, and at
    # omega = omega_c = 1 the cell is omega_c t_c itself, as critic-time prints it
    a1, _, kappa = _decay_rates(QubitPairConfig(1.0, 1.0), False)
    rows = [
        (coupling, fraction,
         _zero_temperature_crossing(0.5, 0.0, 0.5 * fraction, a1, kappa, coupling)[1])
        for coupling in axes[0] for fraction in axes[1]
    ]
    w.table(("eta_omega_sq", "c3_over_c1", "omega_c_tc"), _FLOAT * 3, rows)


def cmd_amplification(cfg: RunConfig, w: _CsvWriter):
    """late/initial discord ratio over the c1 family"""
    from .analysis import scan_amplification_rate

    lo, hi, step = cfg.c1_min, cfg.c1_max, cfg.c1_step
    if not (0.0 < lo < hi <= 2.0 / 3.0):
        raise ConfigError(
            f"c1_min={lo!r} and c1_max={hi!r} must satisfy 0 < c1_min < c1_max <= 2/3"
        )
    if not (0.0 < step <= hi - lo):
        raise ConfigError(f"c1_step={step!r} out of range (0, c1_max - c1_min]")
    span = (hi - lo) / step
    _check_rows(math.floor(span) + 2 if span <= _MAX_ROWS else span, "c1_step")
    scan = scan_amplification_rate(lo, hi, step)
    w.table(("c1", "initial_discord", "asymptotic_discord", "rate"), _FLOAT * 4,
            zip(scan.c1, scan.initial, scan.asymptotic, scan.rate))
    w.comment(
        f"rate_max = {_format_value(scan.rate_max)} "
        f"at c1 = {_format_value(scan.c1_at_max)}"
    )


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


def _check_gnuplot(path: str, command: str, csv_path: str | None):
    """Refuse, before any work, a gnuplot script that cannot follow the CSV."""
    if not csv_path:
        raise ConfigError("--gnuplot needs --output so the script has a file to read")
    if _GNUPLOT_BODY[command] is None:
        raise ConfigError(f"--gnuplot is not available for {command!r}")
    if os.path.realpath(path) == os.path.realpath(csv_path):
        raise ConfigError(f"--gnuplot {path!r} and --output {csv_path!r} name the same file")


def _write_gnuplot(path: str, command: str, csv_path: str):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("set datafile separator comma\n")
        fh.write("set datafile commentschars '#'\n")
        fh.write(f'datafile = "{csv_path}"\n')
        fh.write(_GNUPLOT_BODY[command])


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
    for command, own in _COMMAND_KEYS.items():
        # looked up by name as the parser is built, so a rebound cmd_* runs
        func = globals()["cmd_" + command.replace("-", "_")]
        p = sub.add_parser(command, help=func.__doc__)
        p.add_argument("--config", "-c", metavar="FILE",
                       help="key=value config file; flags override it")
        for key in _SHARED_KEYS + own:
            if key in _GRID_KEYS and command != "evolve":
                continue
            spec = _KEYS[key]
            shown = "" if spec.default is None else f" (default {spec.default})"
            # no flag default: parse_config tells a given flag by a value not None
            how = ({"action": "store_const", "const": True} if spec.type is bool
                   else {"type": spec.type})
            p.add_argument("--" + key.replace("_", "-"), *spec.flags, dest=key,
                           help=spec.help + shown, **how, **spec.kw)
        p.add_argument("--gnuplot", metavar="FILE",
                       help="also write a gnuplot script reading the CSV (needs --output)")
        p.set_defaults(func=func)
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
        if args.gnuplot:
            _check_gnuplot(args.gnuplot, args.command, cfg.output)
        buffer = io.StringIO()
        w = _CsvWriter(buffer)
        _stamp(w, args.command, cfg)
        try:
            args.func(cfg, w)
        except (RootFindError, ConvergenceError, DomainError, InvalidStateError):
            # tables are written once computed, so this is the stamp alone: the
            # inputs are on record, but no header row lets it pass for an empty result
            _emit(cfg.output, buffer.getvalue())
            raise
        _emit(cfg.output, buffer.getvalue())
        if args.gnuplot:
            _write_gnuplot(args.gnuplot, args.command, cfg.output)
        return 0
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
