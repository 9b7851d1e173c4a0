"""One closed-loop batch of xdiscord CLI requests in a fresh interpreter.

run.py starts this script in a new process for every batch, so the package
import and the reservoir caches start cold, as they do for a user. One
client sends the workload's requests through `xdiscord.cli.main(argv)`, each
after the previous one returned, and each writes its CSV to its own file.
The batch stops once `--seconds` have passed, not counting cold starts, and
at least MIN_REQUESTS have run, or after exactly `--count` requests.

With `--cold-starts N`, the worker also times N cold starts of the package
(a fresh interpreter up to `import xdiscord.cli` finished), spread evenly
through the batch, each paired with a cold start of REFERENCE_IMPORT right
before or after it. The reference does not touch the package, so the ratio
of the pair follows the package's import cost and not the machine's speed
at that moment. The batch waits for each; their time does not count as
request time.

Writes <out>/batch.json and, with --trace 1, <out>/spans.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import probe
import workloads

# a batch runs at least this many requests, so ten latencies lie beyond p90
MIN_REQUESTS = 100
# the traced batch stops early past this many spans (about 30 bytes each)
MAX_SPANS = 3_000_000
# a cold start that shares no code with the package: the libraries it loads
# today, fixed here so that a change to the package's imports shows
REFERENCE_IMPORT = "numpy, scipy.special, scipy.integrate"


def cold_import_s(src: Path, modules: str = "xdiscord.cli") -> float:
    """Seconds from starting an interpreter to `import <modules>` finished."""
    code = f"import time, {modules}; print(time.monotonic())"
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


def invoke(main, argv) -> tuple:
    """Run main(argv) as the console script would; return (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the argv
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # uncaught: the interpreter would exit with 1
            print(f"{type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, err.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--src", required=True, help="directory holding the xdiscord package")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + (workloads.HORIZON,))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--cold-starts", type=int, default=0,
                    help="time this many cold starts of the package during the batch")
    ap.add_argument("--count", type=int, help="run exactly this many requests")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True, help="directory for the CSVs and batch.json")
    args = ap.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import xdiscord.cli
    import_s = time.perf_counter() - t0
    if not Path(xdiscord.cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"xdiscord was imported from {xdiscord.cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    cli_main = xdiscord.cli.main  # looked up after install, so it may be the wrapper

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stream = workloads.requests(args.workload, args.seed)
    argvs, latency, mid, codes, stderr_first = [], [], [], [], {}
    probe_t, probe_s = [], []
    for _ in range(10):  # the first runs pay one-time set-up of quad and einsum
        probe.probe_s()
    cold, cold_ref = [], []
    paused = 0.0  # time spent in cold starts
    last_probe = -1.0
    start = time.perf_counter()
    while True:
        n = len(argvs)
        busy = time.perf_counter() - start - paused
        if len(cold) < args.cold_starts and busy >= len(cold) * args.seconds / args.cold_starts:
            t = time.perf_counter()
            if len(cold) % 2:  # alternate the order within the pairs
                cold_ref.append(cold_import_s(src, REFERENCE_IMPORT))
            cold.append(cold_import_s(src))
            if len(cold_ref) < len(cold):
                cold_ref.append(cold_import_s(src, REFERENCE_IMPORT))
            paused += time.perf_counter() - t
            continue
        if args.count is not None:
            if n >= args.count:
                break
        elif n >= MIN_REQUESTS and busy >= args.seconds:
            break
        if tracer is not None:
            if len(tracer.fn) > MAX_SPANS and n >= MIN_REQUESTS:
                break
            tracer.begin_request(n)
        argv = next(stream)
        t = time.perf_counter()
        code, err = invoke(cli_main, argv + ["--output", str(out / f"req_{n:06d}.csv")])
        done = time.perf_counter()
        latency.append(done - t)
        mid.append(0.5 * (t + done))
        if done - last_probe >= probe.PROBE_EVERY_S:
            last_probe = time.perf_counter()
            probe_s.append(probe.probe_s())
            probe_t.append(last_probe + 0.5 * probe_s[-1])
        argvs.append(argv)
        codes.append(code)
        if code != 0:
            stderr_first[n] = (err.strip().splitlines() or [""])[0]
    wall = time.perf_counter() - start - paused

    batch = {
        "import_s": import_s,
        "cold_import_s": cold,
        "cold_ref_s": cold_ref,
        "wall_s": wall,
        "latency_s": latency,
        "mid_s": mid,
        "probe_t": probe_t,
        "probe_s": probe_s,
        "codes": codes,
        "argv": argvs,
        "stderr_first": stderr_first,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        import numpy as np
        np.savez(out / "spans.npz", **tracer.arrays())
        batch["trace"] = {
            "names": tracer.names,
            "errors": tracer.errors,
            "quad_calls": tracer.quad_calls,
            "q_requests": tracer.q_requests,
            "q_distinct": tracer.q_distinct,
        }
    (out / "batch.json").write_text(json.dumps(batch))


if __name__ == "__main__":
    main()
