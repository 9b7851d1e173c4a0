"""Benchmark of the xdiscord command line on seeded, closed-loop CLI batches.

Run from the repository root:

    python3 perfbench/run.py --workload tables-vacuum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A batch is one client sending a workload's requests through
`xdiscord.cli.main(argv)`, each after the previous one returned, for
`--seconds` (and at least 100 requests, so ten latencies lie beyond p90).
Each batch runs in a fresh interpreter (worker.py) with the package imported
from ./src, so the import and the reservoir caches start cold.

--trace 0 measures the end-to-end metrics with tracing off: set-up time
(several cold `import xdiscord.cli` starts spread through the batch, each
against a cold start of a fixed reference import), latency p50/p90,
requests and CSV rows per second, and peak RSS; it prints the share of
requests that failed beside them. On critic-oracle it then sends, untimed,
the late-crossing critic-time requests the timed stream leaves out (see
workloads.py) and reports how many the program refuses at its search
horizon. --trace 1 runs a traced batch for half the time, reports
per-layer counts and self times, and reruns the same requests untraced to
report the tracing overhead. Both check every output file afterwards
(checks.py).

Request times are reported in reference seconds: each wall time is scaled
by the speed of a fixed probe (probe.py) timed next to it, because on a
shared machine the raw speed swings by tens of percent within seconds. The
raw wall-clock figures are printed and recorded beside them as wall.*.
Throughputs divide by the summed request times, so the probes and the
loop between requests do not count. setup_s is not scaled by the probe: a
cold start is mostly loading libraries, which the machine slows down
otherwise than computing. It is the median ratio of each package cold
start to the reference cold start next to it (worker.REFERENCE_IMPORT),
times REFERENCE_IMPORT_S.

Per-run details (machine, workload spec, sample counts, failures, CSV
digest) go to perfbench/_work/result-<workload>-trace<k>.json. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import probe
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
COLD_STARTS = 8
# nominal reference cold start: setup_s is in wall seconds of a machine on
# which worker.REFERENCE_IMPORT takes this long
REFERENCE_IMPORT_S = 0.6
WORKER_SLACK_S = 100.0


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        # the ceiling keeps git from reading a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
        lines = top.stdout.split()
        commit = lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def scaled_latency(batch: dict) -> np.ndarray:
    """Each request's wall time in reference seconds (see probe.py)."""
    return np.array(batch["latency_s"]) * probe.scale(batch["mid_s"], batch["probe_t"],
                                                      batch["probe_s"])


def run_batch(workload: str, seed: int, seconds: float, trace: int, out: Path,
              count: int | None = None, cold_starts: int = 0) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--cold-starts", str(cold_starts), "--trace", str(trace), "--out", str(out)]
    if count is not None:
        cmd += ["--count", str(count)]
    subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, check=True,
                   timeout=seconds + WORKER_SLACK_S + 20 * cold_starts)
    return json.loads((out / "batch.json").read_text())


def remove_csv(out: Path):
    for path in out.glob("req_*.csv"):
        path.unlink()


def failures(batch: dict) -> list:
    return [{"request": int(i), "code": batch["codes"][int(i)], "stderr": line}
            for i, line in batch["stderr_first"].items()]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple:
    out = WORK / f"{workload}-trace0"
    batch = run_batch(workload, seed, seconds, 0, out, cold_starts=COLD_STARTS)
    cold = statistics.median(batch["cold_import_s"])
    n_cold = len(batch["cold_import_s"])
    ratio = statistics.median(x / r for x, r in zip(batch["cold_import_s"], batch["cold_ref_s"]))
    result = checks.check_batch(out, batch["argv"], batch["codes"], seed)
    remove_csv(out)
    n = len(batch["codes"])
    failed = sum(code != 0 for code in batch["codes"])
    lat = scaled_latency(batch)
    busy = float(lat.sum())
    raw_ms = np.array(batch["latency_s"]) * 1e3
    metrics = {
        "setup_s": (ratio * REFERENCE_IMPORT_S, "s", n_cold),
        "latency_p50_ms": (float(np.percentile(lat, 50)) * 1e3, "ms", n),
        "latency_p90_ms": (float(np.percentile(lat, 90)) * 1e3, "ms", n),
        "requests_per_s": (n / busy, "1/s", n),
        "rows_per_s": (sum(result["rows"]) / busy, "1/s", n),
        "peak_rss_mb": (batch["peak_rss_mb"], "MB", 1),
    }
    extra = {
        "failed_frac": (failed / n, "ratio", n),
        "wall.setup_s": (cold, "s", n_cold),
        "wall.setup_ref_s": (statistics.median(batch["cold_ref_s"]), "s", n_cold),
        "wall.latency_p50_ms": (float(np.percentile(raw_ms, 50)), "ms", n),
        "wall.latency_p90_ms": (float(np.percentile(raw_ms, 90)), "ms", n),
        "wall.requests_per_s": (n / batch["wall_s"], "1/s", n),
        "wall.rows_per_s": (sum(result["rows"]) / batch["wall_s"], "1/s", n),
        "probe_s": (statistics.median(batch["probe_s"]), "s", len(batch["probe_s"])),
    }
    if workload == "critic-oracle":
        problems, refusals = horizon_probes(seed)
        result["problems"] += problems
        result["horizon_refusals"] = refusals
        extra["horizon.refused_frac"] = (len(refusals) / workloads.HORIZON_PROBES, "ratio",
                                         workloads.HORIZON_PROBES)
        extra["horizon.refused_inside"] = (sum(f["inside_horizon"] for f in refusals), "count",
                                           len(refusals))
    return batch, result, metrics, extra


def horizon_probes(seed: int) -> tuple:
    """Send the HORIZON requests untimed; return the check problems of their
    answers and the refusals, each marked with whether it crosses inside the
    program's horizon by the closed form."""
    out = WORK / workloads.HORIZON
    batch = run_batch(workloads.HORIZON, seed, 0.0, 0, out, count=workloads.HORIZON_PROBES)
    result = checks.check_batch(out, batch["argv"], batch["codes"], seed)
    refusals = failures(batch)
    for f in refusals:
        path = out / f"req_{f['request']:06d}.csv"
        f["inside_horizon"] = f["code"] == 3 and checks.refused_inside_horizon(path)
    shutil.rmtree(out, ignore_errors=True)
    return result["problems"], refusals


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    out = WORK / f"{workload}-trace1"
    batch = run_batch(workload, seed, seconds / 2, 1, out)
    result = checks.check_batch(out, batch["argv"], batch["codes"], seed)
    remove_csv(out)
    n = len(batch["latency_s"])
    plain = run_batch(workload, seed, seconds, 0, WORK / f"{workload}-overhead", count=n)
    shutil.rmtree(WORK / f"{workload}-overhead", ignore_errors=True)
    info = batch["trace"]
    with np.load(out / "spans.npz") as npz:
        spans = {key: npz[key] for key in npz.files}
    kinds = [argv[0] for argv in batch["argv"]]
    lat = scaled_latency(batch)
    req_scale = lat / np.array(batch["latency_s"])
    values = tracer.layer_metrics(spans, info["names"], info["errors"], kinds, result["rows"],
                                  req_scale)
    values.update({
        "cli.bytes": sum(result["bytes"]),
        "reservoir.quad.calls": info["quad_calls"],
        "reservoir.q_useful_ratio": (info["q_distinct"] / info["q_requests"]
                                     if info["q_requests"] else 0.0),
        "trace.overhead_ratio": float(lat.sum() / scaled_latency(plain).sum()),
        "trace.requests": n,
    })
    metrics = {name: (value, tracer.unit(name), n) for name, value in sorted(values.items())}
    shares = tracer.layer_shares(spans, info["names"], req_scale)
    extra = {
        "self_share": shares,
        "spans": int(len(spans["fn"])),
        "stress": stress(workload, values, shares),
    }
    return batch, result, metrics, extra


def stress(workload: str, m: dict, shares: dict) -> list:
    """Whether the traced batch loads the layer the workload claims to."""
    if workload == "tables-vacuum":
        return [("reservoir.quad.calls is 0", m["reservoir.quad.calls"] == 0)]
    if workload == "evolve-thermal":
        return [("reservoir has the largest self-time share",
                 max(shares, key=shares.get) == "reservoir")]
    leads = {"reservoir under critic_time": m["reservoir.critic_time.self_ms"],
             "discord.bruteforce": m["discord.bruteforce.self_ms"]}
    others = [m["cli.self_ms"], m["evolution.self_ms"], m["states.self_ms"],
              m["discord.analytic.self_ms"], m["analysis.critic_time.self_ms"]]
    return [(f"{name} leads", value > max(others)) for name, value in leads.items()]


def why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    started = time.perf_counter()
    measure = per_layer if trace else end_to_end
    batch, result, metrics, extra = measure(workload, seed, seconds)
    fails = failures(batch)
    report = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spec": workloads.SPECS[workload],
        "why": why(workload),
        "loop": "closed, 1 client",
        "machine": machine(),
        "attempted": len(batch["codes"]),
        "failed": len(fails),
        "correct": not result["problems"],
        "problems": result["problems"][:50],
        "failures": fails,
        "horizon_refusals": result.get("horizon_refusals", []),
        "csv_sha256_first100": result["sha256_first100"],
        "metrics": {k: {"value": v, "unit": u, "samples": s} for k, (v, u, s) in metrics.items()},
        "extra": extra,
        "run_s": time.perf_counter() - started,
    }
    WORK.mkdir(parents=True, exist_ok=True)
    (WORK / f"result-{workload}-trace{trace}.json").write_text(json.dumps(report, indent=1))
    print_report(report)
    return report


def print_report(r: dict):
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}: {r['attempted']} requests, "
          f"{r['failed']} failed, closed loop with 1 client, {r['seconds']:g} s")
    print(f"   spec: {r['spec']}")
    m = r["machine"]
    print(f"   machine: {m['nproc']} cpus, {m['cpu']}, Python {m['python']}, NumPy {m['numpy']}, "
          f"SciPy {m['scipy']}, commit {m['commit']}")
    for name, v in r["metrics"].items():
        print(f"   {name:40s} {v['value']:>14.6g} {v['unit']:8s} ({v['samples']} samples)")
    for name, value in r["extra"].items():
        if isinstance(value, tuple):
            print(f"   {name:40s} {value[0]:>14.6g} {value[1]:8s} ({value[2]} samples)")
    for claim, ok in r["extra"].get("stress", []):
        print(f"   stress check: {claim}: {'yes' if ok else 'NO'}")
    if r["failures"]:
        by_kind = {}
        for f in r["failures"]:
            key = (f["code"], f["stderr"].split(";")[0])
            by_kind[key] = by_kind.get(key, 0) + 1
        for (code, text), count in sorted(by_kind.items()):
            print(f"   failed x{count}: exit {code}: {text}")
    refusals = r["horizon_refusals"]
    if refusals:
        inside = sum(f["inside_horizon"] for f in refusals)
        print(f"   untimed horizon probes refused x{len(refusals)}: exit {refusals[0]['code']}: "
              f"{refusals[0]['stderr'].split(';')[0]}; {inside} of them cross inside the horizon")
    print(f"   csv sha256 of the first {checks.DIGEST_REQUESTS} requests: {r['csv_sha256_first100']}")
    for problem in r["problems"][:10]:
        print(f"   CHECK FAILED: {problem}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "xdiscord" / "cli.py").is_file():
        print(f"error: no xdiscord sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = [run_workload(name, args.seed, args.seconds, args.trace) for name in names]
    metrics = {}
    for r in reports:
        prefix = f"{r['workload']}." if len(reports) > 1 else ""
        for name, v in r["metrics"].items():
            metrics[prefix + name] = {"value": v["value"], "unit": v["unit"]}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
