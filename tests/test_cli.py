import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xdiscord import (
    ConvergenceError,
    DiscordBreakdown,
    DomainError,
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    XStateParams,
    cli,
    decay_factors,
    discord_analytic,
    evolve_x_state,
)

from oracles import discord_reference, family_rate_reference
from test_golden import GOLDEN


def run(args):
    return cli.main(list(args))


def run_fresh(args):
    """Run python with args in a new interpreter that imports this xdiscord."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


def split_output(text):
    comments, rows = [], []
    for line in text.splitlines():
        (comments if line.startswith("#") else rows).append(line)
    return comments, rows


def parse_rows(text):
    comments, rows = split_output(text)
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:]]
    return comments, header, data


def stamp_dict(comments):
    out = {}
    for line in comments:
        m = re.match(r"# (\w+) = (.*)$", line)
        if m:
            out[m.group(1)] = m.group(2)
    return out


# ------------------------------------------------------------------- evolve


def test_evolve_defaults(tmp_path):
    out = tmp_path / "series.csv"
    assert run(["evolve", "-o", str(out)]) == 0
    comments, header, data = parse_rows(out.read_text())
    assert len(comments) == 14
    assert header == list(cli._SERIES_HEADER)
    assert len(data) == 400
    # defaults are stamped at full precision
    stamps = stamp_dict(comments)
    assert stamps["c1"] == "0.59999999999999998"
    assert stamps["temperature"] == "0"
    assert stamps["spacing"] == "linear"
    # the first row sits at t = 0 with unit decay factors
    first = data[0]
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0 and float(first[2]) == 1.0
    assert data[0][-1] == "before-critic"


def test_evolve_output_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["evolve", "--ratio", "2", "--temperature", "0.2", "--points", "40"]
    assert run(args + ["-o", str(a)]) == 0
    assert run(args + ["-o", str(b)]) == 0
    raw = a.read_bytes()
    assert raw == b.read_bytes()
    assert b"\r" not in raw


def test_evolve_rows_match_library(tmp_path):
    out = tmp_path / "series.csv"
    args = [
        "evolve", "--ratio", "2", "--eta", "0.9", "--temperature", "0.3",
        "--omega-c", "0.8", "--points", "5", "--t-max", "2", "-o", str(out),
    ]
    assert run(args) == 0
    _, header, data = parse_rows(out.read_text())
    params = XStateParams(0.6, 0.0, 0.3)
    qubits = QubitPairConfig(2.0, 1.0)
    res = ReservoirConfig(0.9, 0.8, 0.3)
    col = {name: i for i, name in enumerate(header)}
    for row in data:
        tau = float(row[col["omega_c_t"]])
        t = tau / 0.8
        f = decay_factors(t, qubits, res)
        x = evolve_x_state(params, t, qubits, res)
        b = discord_analytic(x)
        assert float(row[col["gamma1"]]) == pytest.approx(f.gamma1, rel=1e-12)
        assert float(row[col["gamma2"]]) == pytest.approx(f.gamma2, rel=1e-12)
        assert float(row[col["mu"]]) == pytest.approx(x.mu, rel=1e-12)
        assert float(row[col["nu"]]) == pytest.approx(x.nu, rel=1e-12)
        assert float(row[col["discord"]]) == pytest.approx(b.discord, rel=1e-12)
        assert row[col["regime"]] == b.regime


def test_evolve_regime_switches_at_the_critic_time(capsys):
    # detuned T = 0 states with |c3| down to 1e-16: a pole that small still
    # takes over at t_c, so only c3 = 0 reads no-critic
    from xdiscord.analysis import _zero_temperature_crossing
    from xdiscord.reservoir import _decay_rates

    rng = random.Random(8)
    for _ in range(40):
        c1 = rng.choice((-1, 1)) * rng.uniform(0.2, 0.6)
        c2 = rng.uniform(-0.3, 0.3)
        c3 = rng.choice((-1, 1)) * 10.0 ** rng.uniform(-16, math.log10(0.1 * abs(c1)))
        ratio, eta = rng.uniform(1.2, 4.0), rng.uniform(0.3, 2.0)
        a1, _, kappa = _decay_rates(QubitPairConfig(ratio, 1.0), False)
        tc = _zero_temperature_crossing(c1, c2, c3, a1, kappa, eta)[1]
        assert 0.0 < tc < math.inf
        assert run(["evolve", f"--c1={c1!r}", f"--c2={c2!r}", f"--c3={c3!r}",
                    "--ratio", repr(ratio), "--eta", repr(eta), "--spacing", "log",
                    "--t-min", repr(tc / 1e4), "--t-max", repr(tc * 1e4), "--points", "41"]) == 0
        rows = parse_rows(capsys.readouterr().out)[2]
        for row in rows:
            tau = float(row[0])
            if tau < tc * (1 - 1e-9):
                assert row[-1] == "before-critic", (c1, c2, c3, ratio, eta, tau, tc)
            elif tau > tc * (1 + 1e-9):
                assert row[-1] == "after-critic", (c1, c2, c3, ratio, eta, tau, tc)


def test_evolve_writes_to_stdout_by_default(capsys):
    assert run(["evolve", "--points", "3", "--t-max", "1"]) == 0
    captured = capsys.readouterr()
    _, header, data = parse_rows(captured.out)
    assert header[0] == "omega_c_t"
    assert len(data) == 3


# ------------------------------------------------------------ config handling


def test_config_file_merge_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        "c1 = 0.5\n"
        "temperature = 0.2\n"
        "ratio = 2.0\n"
        "large-detuning = true\n"
    )
    out = tmp_path / "out.csv"
    assert run([
        "critic-time", "--config", str(cfg), "--c1", "0.55", "-o", str(out)
    ]) == 0
    stamps = stamp_dict(split_output(out.read_text())[0])
    assert float(stamps["c1"]) == 0.55           # flag beats file
    assert float(stamps["temperature"]) == 0.2   # file beats default
    assert float(stamps["omega_a"]) == 2.0
    assert float(stamps["omega_b"]) == 1.0
    assert stamps["large_detuning"] == "true"


ROUND_TRIP = {
    "evolve_every_shared_key": [
        "evolve", "--c1", "0.3", "--c2", "-0.1", "--c3", "0.2", "--ratio", "2.5",
        "--eta", "0.7", "--omega-c", "1.3", "-T", "0.05",
        "--t-min", "0.01", "--t-max", "4", "--points", "25",
        "--spacing", "log", "--large-detuning",
    ],
    **GOLDEN,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_config_stamp_round_trip(name, tmp_path):
    # the leading stamp of a run, minus its command, read back as a config
    # file reproduces the run; the amplification footer is not part of it
    args = ROUND_TRIP[name]
    first = tmp_path / "first.csv"
    assert run(args + ["-o", str(first)]) == 0
    lines = first.read_text().splitlines()
    stamp = [line[2:] for line in itertools.takewhile(lambda l: l.startswith("# "), lines)]
    assert stamp[0] == f"command = {args[0]}"
    cfg = tmp_path / "stamp.cfg"
    cfg.write_text("\n".join(stamp[1:]) + "\n")
    again = tmp_path / "again.csv"
    assert run([args[0], "--config", str(cfg), "-o", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--omega-a", "2"],                     # missing omega_b
        ["evolve", "--omega-a", "2", "--omega-b", "1", "--ratio", "2"],
        ["evolve", "--c1", "2"],                          # invalid state
        ["evolve", "--spacing", "log"],                   # log needs t_min > 0
        ["evolve", "--points", "1"],
        ["evolve", "--gnuplot", "x.plt"],                 # needs --output
        ["discord", "--time", "-1"],
        ["critic-surface", "--temperature", "0.5"],
        ["critic-surface", "--ratio", "2"],
        ["amplification", "--c1-max", "0.8"],
    ],
)
def test_configuration_errors_exit_2(args, capsys):
    assert run(args) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_help_shows_every_default(command, capsys):
    with pytest.raises(SystemExit) as done:
        run([command, "--help"])
    assert done.value.code == 0
    # one entry per option, from its "  -" line through its wrapped help
    entries = re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]
    by_flag = {e.split()[0]: " ".join(e.split()) for e in entries}
    for name in cli._COMMANDS[command].keys:
        assert "--" + name.replace("_", "-") in by_flag
    for name, default in cli.RunConfig._field_defaults.items():
        entry = by_flag.get("--" + name.replace("_", "-"))
        if entry is not None and default is not None:
            assert entry.endswith(f"(default {default})"), entry


@pytest.mark.parametrize("command", ["xdiscord", *sorted(cli._COMMANDS)])
def test_help_is_byte_identical_to_its_pin(command, monkeypatch, capsys):
    # tests/golden/help_<command>.txt; argparse wraps to the width in COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        run(["--help"] if command == "xdiscord" else [command, "--help"])
    assert done.value.code == 0
    pin = Path(__file__).resolve().parent / "golden" / f"help_{command}.txt"
    assert capsys.readouterr().out.encode() == pin.read_bytes()


def test_config_line_without_equals_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("c1 = 0.5\nc3 0.2\n")
    assert run(["critic-time", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}:2: expected key=value, got 'c3 0.2'\n"


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err

    bad.write_text("method = auto\n")  # stamps of older CSV files carry it
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "unknown key 'method'" in capsys.readouterr().err

    bad.write_text("time = 1\n")  # a key of discord, not of evolve
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "unknown key 'time'" in capsys.readouterr().err

    bad.write_text("c1 = abc\n")
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "not a valid float" in capsys.readouterr().err

    assert run(["evolve", "--config", str(tmp_path / "missing.cfg")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_contradiction_across_file_and_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("ratio = 2\n")
    code = run([
        "evolve", "--config", str(cfg), "--omega-a", "3", "--omega-b", "1"
    ])
    assert code == 2
    assert "contradictory" in capsys.readouterr().err


# ------------------------------------------------------------- single queries


def test_discord_oracle_column(capsys):
    assert run([
        "discord", "--time", "1.2", "--ratio", "2", "--oracle"
    ]) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    assert header[-1] == "discord_bruteforce"
    row = data[0]
    analytic = float(row[header.index("discord")])
    oracle = float(row[header.index("discord_bruteforce")])
    assert oracle == pytest.approx(analytic, abs=1e-6)


@pytest.mark.parametrize(
    "args",
    [
        ["evolve", "--eta", "2", "--omega", "6", "--ratio", "2", "--t-max", "100",
         "--points", "3"],
        ["discord", "--time", "inf", "--ratio", "2"],
    ],
)
def test_discord_is_never_negative(args, capsys):
    # after the critic time D = T >= 0 exactly: I - C rounded it to -1.9e-16, and
    # to 0 in place of the 1.8e-289 of the last evolve row
    assert run(args) == 0
    comments, header, data = parse_rows(capsys.readouterr().out)
    c3 = float(stamp_dict(comments)["c3"])
    for row in data:
        mu, nu, discord = (float(row[header.index(k)]) for k in ("mu", "nu", "discord"))
        want = discord_reference(mu, nu, c3)[2]
        assert discord >= 0.0
        assert abs(discord - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "args",
    [
        ["--ratio", "2"],
        ["--ratio", "1"],
        ["--ratio", "1", "-T", "0.5"],
        ["--ratio", "3", "--large-detuning"],
        ["--c1", "0.5", "--c3", "0.25"],
    ],
)
def test_oracle_at_infinite_time(args, capsys):
    # a zero coherence stays zero at every phase, and identical qubits keep
    # delta2 = 0; either nan would reach the brute-force eigensolver
    assert run(["discord", "--time", "inf", "--oracle", *args]) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    analytic, oracle = (float(data[0][header.index(k)]) for k in ("discord", "discord_bruteforce"))
    assert oracle >= 0.0
    assert oracle == pytest.approx(analytic, abs=1e-12)


@pytest.mark.parametrize("time", ["1e300", "inf"])
def test_extreme_times_at_finite_temperature(time):
    # in a subprocess with a timeout, so a kernel that never returns at
    # t = inf fails the test instead of hanging the suite
    done = run_fresh(["-m", "xdiscord.cli", "discord", "--time", time, "-T", "0.5",
                      "--ratio", "2"])
    assert done.returncode == 0, done.stderr
    _, header, data = parse_rows(done.stdout)
    row = data[0]
    assert float(row[header.index("gamma1")]) == 0.0
    assert float(row[header.index("gamma2")]) == 0.0
    assert float(row[header.index("discord")]) >= 0.0


def test_critic_time_statuses(capsys):
    assert run(["critic-time", "--ratio", "2"]) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    assert header == ["omega_c_tc", "status", "method"]
    assert data[0][1] == "finite"
    assert float(data[0][0]) == pytest.approx(0.686827671661149, rel=1e-9)

    assert run(["critic-time"]) == 0
    _, _, data = parse_rows(capsys.readouterr().out)
    assert data[0][0] == "inf" and data[0][1] == "infinite"

    assert run(["critic-time", "--c1", "0.2", "--c3", "0.5"]) == 0
    _, _, data = parse_rows(capsys.readouterr().out)
    assert data[0][0] == "nan" and data[0][1] == "no-crossing"


def test_critic_surface_sentinels(capsys):
    assert run([
        "critic-surface",
        "--coupling-min", "1", "--coupling-max", "1", "--coupling-points", "1",
        "--fraction-min", "0.4", "--fraction-max", "1.0", "--fraction-points", "13",
    ]) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    assert header == ["eta_omega_sq", "c3_over_c1", "omega_c_tc"]
    assert len(data) == 13
    cells = {round(float(r[1]), 9): r[2] for r in data}
    assert cells[0.4] == "inf"      # |c3| <= c1/2: the spread never descends to |c3|
    assert cells[0.5] == "inf"      # boundary of the window
    assert float(cells[1.0]) == 0.0
    assert float(cells[0.75]) == pytest.approx(0.6435942529055827, rel=1e-9)


def test_critic_surface_weak_coupling_reads_inf(capsys):
    # at eta omega^2 = 1e-4 and c3/c1 = 3/4, omega_c t_c passes the float range
    assert run([
        "critic-surface", "--coupling-min", "1e-4", "--coupling-max", "2e-4",
        "--coupling-points", "2", "--fraction-points", "3",
    ]) == 0
    _, _, data = parse_rows(capsys.readouterr().out)
    assert [r[2] for r in data] == ["inf", "inf", "0"] * 2


def surface_cell(coupling, fraction):
    """The one-cell critic-surface run at (eta omega^2, c3/c1)."""
    return ["critic-surface", "--coupling-min", repr(coupling), "--coupling-max", repr(coupling),
            "--coupling-points", "1", "--fraction-min", repr(fraction),
            "--fraction-max", repr(fraction), "--fraction-points", "1"]


def test_critic_surface_cells_match_a_50_digit_referee(capsys):
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    rng = random.Random(20100501)
    # c3/c1 = 1 - 2^-k, where (2 c3/c1 - 1)^p - 1 cancels, from weak to strong coupling
    cells = [(c, 1.0 - 2.0**-k) for k in range(1, 53)
             for c in (1e-4, 10.0 ** rng.uniform(-4.0, math.log10(2.0)), 2.0)]
    cells += [(10.0 ** rng.uniform(-4.0, math.log10(2.0)), rng.uniform(0.5, 1.0))
              for _ in range(60)]
    # omega_c t_c between 1.34e154, where (2 c3/c1 - 1)^p overflowed, and 1.8e308
    for _ in range(40):
        fraction = rng.uniform(0.5, 1.0)
        log_tau = rng.uniform(math.log(1.34e154), math.log(1.7e308))
        cells.append((-math.log(2.0 * fraction - 1.0) / (4.0 * log_tau), fraction))
    # the cells that read inf and 1.4901161193847656e-08 before
    cells += [(3.76e-4, 0.75), (1.0, 0.99999999999999989)]
    printed = {}
    for coupling, fraction in cells:
        assert run(surface_cell(coupling, fraction)) == 0
        got = printed[coupling, fraction] = parse_rows(capsys.readouterr().out)[2][0][2]
        xi = 2 * mpmath.mpf(fraction) - 1
        want = mpmath.sqrt(mpmath.expm1(-mpmath.log(xi) / (2 * mpmath.mpf(coupling))))
        if want > sys.float_info.max:
            assert got == "inf", (coupling, fraction)
            continue
        # one ulp of eta moves omega_c t_c by about ln(omega_c t_c) ulp
        bound = max(1e-13, float(mpmath.log(want)) * 2.0**-50)
        assert abs(float(got) - want) <= bound * want, (coupling, fraction, got)
    assert printed[3.76e-4, 0.75] == "1.4220754823488261e+200"
    assert printed[1.0, 0.99999999999999989] == "1.0536712127723509e-08"


@pytest.mark.parametrize(
    "axes, statuses",
    [
        (["--coupling-points", "25", "--fraction-points", "40"], {"finite", "infinite", "tie"}),
        # |c3/c1| <= 1/2 never crosses, |c3/c1| = 1 ties, and weak coupling passes the horizon
        (["--coupling-min", "1e-3", "--coupling-max", "0.05", "--coupling-points", "5",
          "--fraction-min", "-1", "--fraction-max", "1", "--fraction-points", "9"],
         {"finite", "infinite", "tie", "past-horizon"}),
        # just past |c3| = c1 a state stays valid and nothing crosses
        (["--coupling-min", "1", "--coupling-max", "1", "--coupling-points", "1",
          "--fraction-min", "1.0000000002", "--fraction-max", "1.25", "--fraction-points", "3"],
         {"no-crossing", "not-a-state"}),
        # the flag reaches every cell, as it reaches critic-time
        (["--large-detuning", "--coupling-min", "0.5", "--coupling-max", "2",
          "--coupling-points", "4", "--fraction-min", "-1", "--fraction-max", "1",
          "--fraction-points", "9"],
         {"finite", "infinite", "tie"}),
    ],
    ids=["default-range", "statuses", "no-crossing", "large-detuning"],
)
def test_critic_surface_cells_are_what_critic_time_prints(axes, statuses, capsys):
    # a cell is critic-time at c1 = 1/2, c2 = 0, c3 = c1 * c3/c1, eta = the coupling
    assert run(["critic-surface", *axes]) == 0
    flags = ["--large-detuning"] if "--large-detuning" in axes else []
    seen = set()
    for coupling, fraction, cell in parse_rows(capsys.readouterr().out)[2]:
        c3 = 0.5 * float(fraction)
        code = run(["critic-time", "--c1", "0.5", "--c2", "0", "--c3", repr(c3),
                    "--eta", coupling, *flags])
        out = capsys.readouterr().out
        if code == 2:
            # no state: |c3| > c1 past the spectrum's tolerance
            assert cell == "nan" and abs(c3) > 0.5
            seen.add("not-a-state")
        elif code == 3:
            assert float(cell) > 1e6
            seen.add("past-horizon")
        else:
            assert code == 0
            value, status, _ = parse_rows(out)[2][0]
            assert cell == value, (coupling, fraction)
            if cell == "0":
                assert abs(c3) == 0.5
                status = "tie"
            seen.add(status)
            assert {"inf": "infinite", "nan": "no-crossing"}.get(cell, status) == status
    assert seen == statuses


def test_horizon_refusal_names_the_zero_temperature_answer(capsys):
    assert run(["critic-time", "--ratio", "2", "--eta", "0.0005"]) == 3
    err = capsys.readouterr().err
    assert "no crossing up to omega_c t = 1e+06" in err
    assert "which the T = 0 bath reaches at omega_c t = 6.742e+167;" in err


def test_amplification_footer(capsys):
    assert run([
        "amplification", "--c1-min", "0.2", "--c1-max", "0.5", "--c1-step", "0.01"
    ]) == 0
    out = capsys.readouterr().out
    comments, rows = split_output(out)
    assert rows[0].split(",") == ["c1", "initial_discord", "asymptotic_discord", "rate"]
    m = re.search(r"# rate_max = (\S+) at c1 = (\S+)", out)
    assert m, "missing summary footer"
    rate_max, c1_at_max = float(m.group(1)), float(m.group(2))
    assert rate_max == pytest.approx(2.1768496156926975, abs=5e-3)
    assert c1_at_max == pytest.approx(0.32838941175375813, abs=5e-3)
    # the footer maximum dominates the tabulated column
    rates = [float(r.split(",")[3]) for r in rows[1:]]
    assert rate_max >= max(rates)


# ------------------------------------------------------------------- gnuplot


def test_gnuplot_companion(tmp_path):
    csv = tmp_path / "series.csv"
    plt = tmp_path / "series.plt"
    assert run([
        "evolve", "--points", "5", "--t-max", "1",
        "-o", str(csv), "--gnuplot", str(plt),
    ]) == 0
    script = plt.read_text()
    assert str(csv) in script
    assert "plot" in script
    assert "separator comma" in script


def test_gnuplot_rejected_for_critic_time(tmp_path, capsys):
    # refused before any work: the CSV was computed and written first
    code = run([
        "critic-time",
        "-o", str(tmp_path / "x.csv"), "--gnuplot", str(tmp_path / "x.plt"),
    ])
    assert code == 2
    assert "--gnuplot is not available for 'critic-time'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("script", ["same.csv", "./sub/../same.csv"])
def test_gnuplot_onto_the_csv_is_refused(script, tmp_path, monkeypatch, capsys):
    # the script overwrote the CSV, with exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(["evolve", "--points", "5", "-o", "same.csv", "--gnuplot", script]) == 2
    err = capsys.readouterr().err
    assert f"--gnuplot {script!r} and --output 'same.csv' name the same file" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize("temperature", ["0", "0.5"])
def test_identical_qubits_keep_inner_coherence_at_infinite_time(temperature, capsys):
    # (w_a - w_b)^2 Q(inf) is 0 * inf; the inner coherence never decays
    assert run(["discord", "--time", "inf", "-T", temperature]) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    row = data[0]
    assert float(row[header.index("gamma1")]) == 0.0
    assert float(row[header.index("gamma2")]) == 1.0
    assert float(row[header.index("discord")]) >= 0.0


@pytest.mark.parametrize(
    "args, shown",
    [
        (["discord", "--time", "1", "--omega", "1e200"], "(1e+200, 1e+200)"),
        (["discord", "--time", "0", "--omega", "1e160", "--ratio", "2"], "(2e+160, 1e+160)"),
    ],
)
def test_overflowing_frequencies_are_configuration_errors(args, shown, capsys):
    # (omega_a + omega_b)^2 must be a float for gamma1 to exist
    assert run(args) == 2
    captured = capsys.readouterr()
    assert f"(omega_a, omega_b)={shown}" in captured.err
    assert captured.out == ""


def test_successive_runs_in_one_process_share_no_options(capsys):
    # the parser is built once per process; each run must still start clean
    assert cli.build_parser() is cli.build_parser()
    assert run(["discord", "--oracle"]) == 0
    assert parse_rows(capsys.readouterr().out)[1][-1] == "discord_bruteforce"
    assert run(["discord"]) == 0
    assert parse_rows(capsys.readouterr().out)[1] == list(cli._SERIES_HEADER)
    assert run(["evolve", "--points", "3"]) == 0
    assert len(parse_rows(capsys.readouterr().out)[2]) == 3
    assert run(["evolve"]) == 0
    assert len(parse_rows(capsys.readouterr().out)[2]) == 400


def test_time_nan_is_a_configuration_error(capsys):
    assert run(["discord", "--time", "nan"]) == 2
    captured = capsys.readouterr()
    assert "--time nan" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "args, code, shown",
    [
        (["discord", "--ratio", "2", "--time", "1", "--omega-c", "1e-320"], 2,
         "omega_c=1e-320"),
        (["evolve", "--ratio", "2", "--points", "3", "--t-max", "1e10", "--omega-c", "1e-300"],
         2, "omega_c=1e-300"),
        (["critic-time", "--ratio", "2", "--omega-c", "1e-309"], 3, "omega_c=1e-309"),
        # omega_c t_c does not depend on omega_c
        (["critic-surface", "--coupling-min", "1", "--coupling-max", "1",
          "--coupling-points", "1", "--fraction-points", "3", "--omega-c", "1e-320"], 0,
         "\n1,0.75,0.64359425290558259\n"),
        # T/omega_c overflows: evolve exited 4 blaming "decay factors (nan, 1.0)"
        (["evolve", "--omega-c", "1e-300", "-T", "1e10", "--points", "3", "--t-max", "1e-290"],
         2, "(omega_c, temperature)=(1e-300, 10000000000.0)"),
        (["critic-time", "--ratio", "2", "--omega-c", "1e-300", "-T", "1e10"], 2,
         "(omega_c, temperature)=(1e-300, 10000000000.0)"),
    ],
    ids=["discord", "evolve", "critic-time", "critic-surface", "evolve-thermal",
         "critic-time-thermal"],
)
def test_tiny_cutoff_answers_or_names_it(args, code, shown, capsys):
    # tau / omega_c overflows to t = inf, where every decay factor reads 0
    assert run(args) == code
    captured = capsys.readouterr()
    assert shown in (captured.err if code else captured.out)


@pytest.mark.parametrize(
    "args, rate",
    [
        # (omega_a + omega_b)^2 underflows to 0: this was a ZeroDivisionError, exit 1
        (["critic-time", "--omega", "1e-170", "--ratio", "2"], "a1 = 0.0"),
        # omega_a^2 is subnormal: this exited 3 with "t_c needs Q = inf" and no cause
        (["critic-time", "--large-detuning", "--omega", "1e-160"], "a1 = 1e-320"),
        (["critic-time", "--large-detuning", "--omega", "1e-160", "-T", "0.1"], "a1 = 1e-320"),
    ],
    ids=["detuned", "large-detuning", "large-detuning-thermal"],
)
def test_tiny_frequencies_name_the_underflowing_decay_rate(args, rate, capsys):
    assert run(args) == 3
    assert (f"numeric failure: gamma1's decay rate {rate} is too small for a float "
            "Q(t_c) = -ln(gamma1)/a1;") in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, code, shown",
    [
        # eta omega_c (omega_c/2 + T) underflows to 0: this was a ZeroDivisionError, exit 1
        (["critic-time", "--ratio", "2", "--eta", "1e-160", "--omega-c", "1e-300", "-T", "1"],
         0, "\n4.3956803157280046e-71,finite,root-find\n"),
        # one ulp of c3 and (omega_a + omega_b)^2 = 9e298 give a subnormal Q(t_c)
        (["critic-time", "--c1", "0.3", "--c3", "0.29999999999999993", "--omega-a", "2e149",
          "--omega-b", "1e149", "-T", "1e10"],
         3, "numeric failure: Q(t_c) = -ln(gamma1)/a1 = 2.22044605e-315 at a1 = 9e+298 is "
            "below the normal floats"),
    ],
    ids=["bracket-product", "subnormal-q"],
)
def test_critic_time_at_the_ends_of_the_float_range(args, code, shown, capsys):
    assert run(args) == code
    captured = capsys.readouterr()
    assert shown in (captured.err if code else captured.out)


# ------------------------------------------------------------- failure paths


def test_numeric_failure_exits_3(capsys):
    code = run([
        "critic-time", "--ratio", "2", "--eta", "1e-9",
        "--c1", "0.4", "--c3", "0.3999",
    ])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_domain_error_exits_4(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise DomainError("forced for the exit-code contract")

    monkeypatch.setattr(cli, "discord_analytic", boom)
    assert run(["evolve", "--points", "3", "--t-max", "1"]) == 4
    assert "domain error" in capsys.readouterr().err


def test_root_find_error_exits_3(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise RootFindError("forced for the exit-code contract")

    monkeypatch.setattr("xdiscord.analysis.critic_time", boom)
    assert run(["critic-time"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_convergence_error_shows_best_discord(monkeypatch, capsys):
    best = DiscordBreakdown(0.5, 0.25, 0.25, 0.6, "before-critic")

    def boom(*args, **kwargs):
        raise ConvergenceError("forced for the exit-code contract", best_so_far=best)

    monkeypatch.setattr(cli, "discord_bruteforce", boom)
    assert run(["discord", "--oracle"]) == 3
    err = capsys.readouterr().err
    assert "numeric failure: forced" in err
    assert "best discord found 0.25" in err


@pytest.mark.parametrize("error, code", [(DomainError, 4), (ConvergenceError, 3)])
def test_failed_run_writes_only_the_stamp(error, code, monkeypatch, tmp_path, capsys):
    # no header row, so a failed run cannot pass for an empty result
    def boom(*args, **kwargs):
        raise error("forced for the exit-code contract")

    monkeypatch.setattr(cli, "decay_factors", boom)
    out = tmp_path / "series.csv"
    assert run(["evolve", "--points", "3", "-o", str(out)]) == code
    comments, rows = split_output(out.read_text())
    assert stamp_dict(comments)["command"] == "evolve"
    assert rows == []
    assert run(["discord", "--time", "1"]) == code
    comments, rows = split_output(capsys.readouterr().out)
    assert stamp_dict(comments)["command"] == "discord"
    assert rows == []


# SciPy and NumPy are test dependencies only, and no run may load them. No
# run loads dataclasses, and only critic-time, critic-surface and
# amplification load the analysis layer
BOTH = ("scipy", "numpy", "dataclasses")
ANALYSIS = ("xdiscord.analysis",)


@pytest.mark.parametrize(
    "args, blocked",
    [
        pytest.param(["evolve", "-T", "0.5", "--points", "50"], BOTH + ANALYSIS, id="evolve"),
        pytest.param(["evolve", "--points", "50"], BOTH + ANALYSIS, id="evolve-vacuum"),
        pytest.param(["evolve", "--spacing", "log", "--t-min", "0.1"], BOTH + ANALYSIS,
                     id="evolve-log"),
        pytest.param(["discord", "--oracle"], BOTH + ANALYSIS, id="discord"),
        pytest.param(["discord", "--time", "1.5"], BOTH + ANALYSIS, id="discord-analytic"),
        pytest.param(["critic-time", "-T", "0.3"], BOTH, id="critic-time"),
        pytest.param(["critic-surface"], BOTH, id="critic-surface"),
        pytest.param(["amplification"], BOTH, id="amplification"),
    ],
)
def test_import_leaves_quadrature_unloaded(args, blocked, tmp_path):
    # a blocked module adds its import time to every start: each run must
    # succeed with it unimportable
    out = tmp_path / "out.csv"
    done = run_blocked(args + ["-o", str(out)], blocked)
    assert done.returncode == 0, done.stderr
    _, header, data = parse_rows(out.read_text())
    assert header and data


def run_blocked(argv, blocked):
    """cli.main(argv) in a fresh interpreter where each name in blocked, and
    each of its submodules, fails to import."""
    code = (
        "import sys\n"
        "class Block:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        f"        if any(name == b or name.startswith(b + '.') for b in {blocked!r}):\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, Block())\n"
        "import xdiscord.cli\n"
        f"sys.exit(xdiscord.cli.main({argv!r}))\n"
    )
    return run_fresh(["-c", code])


def test_oracle_without_numpy_matches_the_in_process_run(tmp_path, capsys):
    # NumPy is no dependency: the oracle runs without it, byte for byte as in a
    # process that has it loaded
    args = ["discord", "--time", "1.5", "--ratio", "2", "--oracle"]
    out = tmp_path / "out.csv"
    done = run_blocked(args + ["-o", str(out)], ("numpy",))
    assert done.returncode == 0, done.stderr
    assert run(args) == 0
    assert out.read_text() == capsys.readouterr().out
    assert "discord_bruteforce" in out.read_text()


def test_no_source_module_imports_numpy():
    import ast

    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "numpy"], path.name


def test_cli_import_loads_no_numpy():
    done = run_fresh(["-X", "importtime", "-c", "import xdiscord.cli"])
    assert done.returncode == 0, done.stderr
    # each line reads "import time: self | cumulative | module", nested names indented
    modules = [line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()]
    assert "xdiscord.cli" in modules
    assert [m for m in modules if m.split(".")[0] == "numpy"] == []
    # dataclasses pulls in inspect, ast and dis; the analysis layer loads on demand
    assert "dataclasses" not in modules
    assert "xdiscord.analysis" not in modules


@pytest.mark.parametrize(
    "args, shown",
    [
        (["evolve", "--points", "41"], "points"),
        (["critic-surface", "--coupling-points", "5", "--fraction-points", "9"],
         "coupling_points * fraction_points"),
        # floor(0.4 / 0.01) + 2 = 42 rows
        (["amplification", "--c1-min", "0.1", "--c1-max", "0.5", "--c1-step", "0.01"], "c1_step"),
    ],
    ids=["evolve", "critic-surface", "amplification"],
)
def test_tables_past_the_row_limit_are_refused(args, shown, monkeypatch, capsys):
    # a small limit, so that a broken guard builds nothing large
    monkeypatch.setattr(cli, "_MAX_ROWS", 40)
    assert run(args) == 2
    assert f"{shown} give a table of" in capsys.readouterr().err


def test_tables_at_the_row_limit_are_built(monkeypatch, capsys):
    monkeypatch.setattr(cli, "_MAX_ROWS", 40)
    for args in (["evolve", "--points", "40"],
                 ["critic-surface", "--coupling-points", "5", "--fraction-points", "8"],
                 ["amplification", "--c1-min", "0.1", "--c1-max", "0.5", "--c1-step", "0.0105"]):
        assert run(args) == 0
        _, _, data = parse_rows(capsys.readouterr().out)
        assert 0 < len(data) <= 40


def test_tiny_amplification_step_is_a_configuration_error(capsys):
    # np.arange raised "Maximum allowed size exceeded" here, a traceback with exit 1
    assert run(["amplification", "--c1-step", "1e-300"]) == 2
    assert "c1_step give a table of" in capsys.readouterr().err


@pytest.mark.parametrize("c1_min", ["5e-324", "1e-300"])
def test_amplification_refuses_discord_lost_to_rounding(c1_min, capsys):
    # D(0) rounded to 0 printed rate nan and "rate_max = nan"; c1^2 underflows here
    assert run(["amplification", "--c1-min", c1_min, "--c1-max", "0.5", "--c1-step", "0.1"]) == 4
    assert re.search(r"\bc1=", capsys.readouterr().err)


def test_amplification_refuses_a_subnormal_initial_discord(capsys):
    # D(0) is subnormal on this range: rates 1.75 and 2.017 printed with exit 0
    assert run(["amplification", "--c1-min", "1e-161", "--c1-max", "1e-160",
                "--c1-step", "3e-161"]) == 4
    assert re.search(r"initial discord \S+ underflowed at c1=1e-161; rate undefined",
                     capsys.readouterr().err)


@pytest.mark.parametrize("lo, hi, step", [("1e-9", "0.5", "0.1"), ("1e-7", "1e-6", "1e-7")])
def test_amplification_at_small_c1_matches_the_family_rate(lo, hi, step, capsys):
    # the closed forms cancelled here: D(0) rounded below 0 at c1 = 1e-9, and
    # rate_max read 2.2719 on [1e-7, 1e-6]
    assert run(["amplification", "--c1-min", lo, "--c1-max", hi, "--c1-step", step]) == 0
    comments, header, data = parse_rows(capsys.readouterr().out)
    for row in data:
        c1, rate = float(row[0]), float(row[header.index("rate")])
        assert abs(rate - family_rate_reference(c1)) <= 1e-13 * rate
    rate_max, c1_at_max = map(float, re.findall(r"= (\S+)", comments[-1]))
    assert abs(rate_max - family_rate_reference(c1_at_max)) <= 1e-13 * rate_max


def test_critic_time_below_the_float_range_ends():
    # the bisection halved [0, 5e-324] forever: its midpoint rounds back to 0
    done = run_fresh(["-m", "xdiscord.cli", "critic-time", "--eta", "1e300", "--omega-c",
                      "1e300", "--ratio", "2"])
    assert done.returncode == 3, done.stderr
    assert "omega_c=1e+300" in done.stderr


@pytest.mark.parametrize(
    "args, key",
    [
        (["evolve", "--c1", "1"], "c1"),
        (["evolve", "--ratio", "0"], "ratio"),
        (["evolve", "--omega", "1e300", "--ratio", "1e300"], "omega"),
        (["evolve", "--t-max", "inf"], "t_max"),
        (["critic-surface", "-T", "1"], "temperature"),
        (["critic-surface", "--ratio", "2"], "ratio"),
        (["critic-surface", "--fraction-min", "nan"], "fraction_min"),
        (["critic-surface", "--coupling-min", "0"], "coupling_min"),
        (["amplification", "--c1-max", "0.8"], "c1_max"),
        (["critic-surface", "--c2", "0.1"], "c2"),
    ],
)
def test_configuration_errors_name_the_key(args, key, capsys):
    assert run(args) == 2
    assert re.search(rf"\b{key}\b", capsys.readouterr().err)
