import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from xdiscord import (
    ConvergenceError,
    DiscordBreakdown,
    DomainError,
    QuadratureError,
    QubitPairConfig,
    ReservoirConfig,
    RootFindError,
    XStateParams,
    cli,
    decay_factors,
    discord_analytic,
    evolve_x_state,
)


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


def test_config_stamp_round_trip(tmp_path):
    # the stamp of a run, read back as a config file, reproduces the run
    first = tmp_path / "first.csv"
    assert run([
        "evolve", "--c1", "0.3", "--c2", "-0.1", "--c3", "0.2", "--ratio", "2.5",
        "--eta", "0.7", "--omega-c", "1.3", "-T", "0.05",
        "--t-min", "0.01", "--t-max", "4", "--points", "25",
        "--spacing", "log", "--large-detuning", "-o", str(first),
    ]) == 0
    stamp = [
        line[2:] for line in first.read_text().splitlines()
        if line.startswith("# ") and not line.startswith("# command = ")
    ]
    cfg = tmp_path / "stamp.cfg"
    cfg.write_text("\n".join(stamp) + "\n")
    again = tmp_path / "again.csv"
    assert run(["evolve", "--config", str(cfg), "-o", str(again)]) == 0
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


def test_bad_config_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("bogus = 1\n")
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "unknown key" in capsys.readouterr().err

    bad.write_text("method = auto\n")  # stamps of older CSV files carry it
    assert run(["evolve", "--config", str(bad)]) == 2
    assert "unknown key 'method'" in capsys.readouterr().err

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
    # after the critic time with mu = nu = 0, I - C rounds to -1.9e-16
    assert run(args) == 0
    _, header, data = parse_rows(capsys.readouterr().out)
    discord = [float(row[header.index("discord")]) for row in data]
    assert min(discord) == 0.0


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
    assert cells[0.4] == "nan"      # outside the validity window
    assert cells[0.5] == "inf"      # boundary of the window
    assert float(cells[1.0]) == 0.0
    assert float(cells[0.75]) == pytest.approx(0.6435942529055827, rel=1e-9)


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
    code = run([
        "critic-time",
        "-o", str(tmp_path / "x.csv"), "--gnuplot", str(tmp_path / "x.plt"),
    ])
    assert code == 2
    assert "not available" in capsys.readouterr().err


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

    monkeypatch.setattr(cli, "critic_time", boom)
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


@pytest.mark.parametrize("error, code", [(DomainError, 4), (QuadratureError, 3)])
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


def test_import_leaves_quadrature_unloaded(tmp_path):
    # SciPy adds about 0.4 s to every start; only the test oracles use it,
    # and a finite-temperature run must not load it either
    out = tmp_path / "series.csv"
    code = (
        "import sys, xdiscord.cli\n"
        f"code = xdiscord.cli.main(['evolve', '-T', '0.5', '--points', '50', '-o', {str(out)!r}])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "sys.exit(code or (f'loaded {loaded[:5]}' if loaded else 0))\n"
    )
    done = run_fresh(["-c", code])
    assert done.returncode == 0, done.stderr
    assert len(out.read_text().splitlines()) == 14 + 1 + 50
