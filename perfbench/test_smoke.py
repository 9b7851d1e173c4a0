"""Smoke tests of the benchmark itself; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import itertools
import statistics
import time

import numpy as np
import pytest

import checks
import probe
import run
import tracer
import worker
import workloads

# one whole block of each workload's mix
BLOCK = {"tables-vacuum": 10, "evolve-thermal": 16, "critic-oracle": 24}


def test_generator_is_reproducible():
    for name in workloads.WORKLOADS + (workloads.HORIZON,):
        first = list(itertools.islice(workloads.requests(name, 7), 30))
        again = list(itertools.islice(workloads.requests(name, 7), 30))
        other = list(itertools.islice(workloads.requests(name, 8), 30))
        assert first == again
        assert first != other


def test_blocks_keep_the_mix():
    kinds = [argv[0] for argv in itertools.islice(workloads.requests("tables-vacuum", 3), 30)]
    for block in (kinds[:10], kinds[10:20], kinds[20:]):
        assert sorted(block) == ["amplification", "critic-surface"] + ["evolve"] * 8


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes_and_checks(workload, tmp_path):
    count = BLOCK[workload]
    batch = run.run_batch(workload, 5, 0.0, 1, tmp_path, count=count, cold_starts=1)
    assert len(batch["codes"]) == count
    assert len(batch["cold_import_s"]) == len(batch["cold_ref_s"]) == 1
    result = checks.check_batch(tmp_path, batch["argv"], batch["codes"], 5)
    assert result["problems"] == []
    with np.load(tmp_path / "spans.npz") as npz:
        spans = {key: npz[key] for key in npz.files}
    info = batch["trace"]
    kinds = [argv[0] for argv in batch["argv"]]
    metrics = tracer.layer_metrics(spans, info["names"], info["errors"], kinds, result["rows"])
    assert metrics["cli.rows"] == sum(result["rows"]) > 0
    # every request is one cli.main span at the root
    roots = spans["parent"] < 0
    assert np.count_nonzero(roots) == count
    assert {info["names"][f] for f in spans["fn"][roots]} == {"cli.main"}


def test_self_time_arithmetic():
    # root [0, 100] holds a [10, 40] and b [50, 90]; a holds c [15, 25];
    # b holds d [45, 60], which starts before b and is clipped to [50, 60]
    parent = np.array([-1, 0, 0, 1, 2])
    start = np.array([0, 10, 50, 15, 45])
    end = np.array([100, 40, 90, 25, 60])
    assert tracer.self_times(parent, start, end).tolist() == [30.0, 20.0, 30.0, 10.0, 15.0]
    fn = np.array([0, 1, 2, 3, 3])
    assert tracer.under(fn, parent, [1]).tolist() == [False, True, False, True, False]


def test_layer_metrics_on_a_synthetic_tree():
    names = ["cli.main", "analysis.critic_time", "reservoir.decay_factors", "states.xlog2"]
    # request 0: main [0, 10ms] > critic_time [1, 9] > decay_factors x2;
    # request 1: main [20, 30] > xlog2 [21, 22]
    ms = 1_000_000
    spans = {
        "fn": np.array([0, 1, 2, 2, 0, 3]),
        "parent": np.array([-1, 0, 1, 1, -1, 4]),
        "start": np.array([0, 1, 2, 5, 20, 21]) * ms,
        "end": np.array([10, 9, 4, 6, 30, 22]) * ms,
        "req": np.array([0, 0, 0, 0, 1, 1]),
        "exc": np.array([0, 1, 0, 0, 0, 0]),
    }
    m = tracer.layer_metrics(spans, names, ["RootFindError"], ["critic-time", "evolve"], [1, 5])
    assert m["cli.self_ms"] == pytest.approx((2 + 9) / 2)
    assert m["analysis.critic_time.self_ms"] == pytest.approx(5 / 2)
    assert m["reservoir.self_ms"] == m["reservoir.critic_time.self_ms"] == pytest.approx(3 / 2)
    assert m["states.self_ms"] == pytest.approx(1 / 2)
    assert m["analysis.critic_time.decay_evals"] == 2
    assert m["analysis.critic_time.root_failures"] == 1
    assert m["reservoir.decay_per_row"] == 0.0
    assert sum(tracer.layer_shares(spans, names).values()) == pytest.approx(1.0)


def test_probe_scale_uses_nearby_probes():
    # probes ran twice as slow as the reference near t = 10, at reference speed near t = 20
    probe_t = [9.9, 10.0, 10.1, 20.0]
    probe_dt = [2 * probe.PROBE_REF_S] * 3 + [probe.PROBE_REF_S]
    scale = probe.scale([10.05, 19.9, 30.0, 15.0], probe_t, probe_dt)
    # t = 15 has no probe within the window: the nearest on each side count
    assert scale.tolist() == pytest.approx([0.5, 1.0, 1.0, 2.0 / 3.0])


def test_scaling_keeps_a_real_slowdown(tmp_path, monkeypatch):
    # the same evolve requests at twice the points take about twice as long in
    # reference time, and the probes run right after them stay put
    monkeypatch.syspath_prepend(str(run.SRC))
    import xdiscord.cli

    def points(argv, factor):
        return [f"--points={factor * int(a.split('=')[1])}" if a.startswith("--points=") else a
                for a in argv]

    out = ["--output", str(tmp_path / "req.csv")]
    for _ in range(10):
        probe.probe_s()
    latency = {1: [], 2: []}
    mid = {1: [], 2: []}
    after = {1: [], 2: []}
    probe_t, probe_dt = [], []
    for argv in itertools.islice(workloads.requests("evolve-thermal", 4), 48):
        for factor in (1, 2):
            t = time.perf_counter()
            assert worker.invoke(xdiscord.cli.main, points(argv, factor) + out)[0] == 0
            done = time.perf_counter()
            latency[factor].append(done - t)
            mid[factor].append(0.5 * (t + done))
            probe_dt.append(probe.probe_s())
            probe_t.append(time.perf_counter())
            after[factor].append(probe_dt[-1])
    scaled = {f: float(np.sum(np.array(latency[f]) * probe.scale(mid[f], probe_t, probe_dt)))
              for f in (1, 2)}
    assert 1.6 < scaled[2] / scaled[1] < 2.4
    assert 0.85 < statistics.median(after[2]) / statistics.median(after[1]) < 1.15
