"""Span tracer for the xdiscord layers, installed from outside the package.

`Tracer.install` wraps every public function of the layer modules and
rebinds each wrapper in every module that holds the original, so
`from .x import f` bindings go through the wrapper too. Each wrapped call
records one span: function id, parent span, start and end
(`perf_counter_ns`), request id, and the exception it raised, if any. Spans
live in flat arrays in memory and are saved once the batch ends.

The analysis half (`self_times`, `layer_metrics`) works on those arrays
alone, so it can be checked on a synthetic span tree.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "analysis", "discord", "evolution", "reservoir", "states")

# unit of each per-layer metric whose name does not end in ".calls" (counts)
UNITS = {
    "self_ms": "ms/req",
    "cli.rows": "count",
    "cli.bytes": "bytes",
    "reservoir.q_useful_ratio": "ratio",
    "reservoir.decay_per_row": "ratio",
    "analysis.critic_time.decay_evals": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.requests": "count",
}


def unit(metric: str) -> str:
    return UNITS.get(metric) or UNITS.get(metric.rsplit(".", 1)[1], "count")


class Tracer:
    def __init__(self):
        self.names: list = []  # "layer.function", indexed by function id
        self.errors: list = []  # exception type names, indexed by code - 1
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.req = array("i")
        self.exc = array("b")
        self._stack = [-1]
        self.request = 0
        self.quad_calls = 0
        self.q_requests = 0
        self.q_distinct = 0
        self._q_seen: set = set()

    def begin_request(self, index: int):
        self.request = index
        self._q_seen.clear()

    def _error_code(self, exc: BaseException) -> int:
        name = type(exc).__name__
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name) + 1

    def wrap(self, name: str, fn, before=None):
        fid = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends = self.fn, self.parent, self.start, self.end
        reqs, excs, stack, clock = self.req, self.exc, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(fns)
            fns.append(fid)
            parents.append(stack[-1])
            reqs.append(self.request)
            excs.append(0)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                excs[i] = self._error_code(exc)
                raise
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _count_q(self, signature):
        n_params = len(signature.parameters)

        def before(args, kwargs):
            # a Q request is identified by every argument: (t, reservoir, method)
            if kwargs or len(args) != n_params:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                args = tuple(bound.arguments.values())
            key = args
            self.q_requests += 1
            if key not in self._q_seen:
                self._q_seen.add(key)
                self.q_distinct += 1

        return before

    def _count_quad(self, quad):
        @functools.wraps(quad)
        def counted(*args, **kwargs):
            self.quad_calls += 1
            return quad(*args, **kwargs)

        return counted

    def install(self, package: str = "xdiscord"):
        """Wrap the public functions of every layer and rebind the wrappers."""
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    before = None
                    if layer == "reservoir" and name == "dephasing_exponent":
                        before = self._count_q(inspect.signature(obj))
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj, before)
        for mod in (importlib.import_module(package), *modules.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])
        reservoir = modules["reservoir"]
        if hasattr(reservoir, "quad"):
            reservoir.quad = self._count_quad(reservoir.quad)

    def arrays(self) -> dict:
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "req": np.frombuffer(self.req, dtype=np.int32).copy(),
            "exc": np.frombuffer(self.exc, dtype=np.int8).copy(),
        }


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover.

    Children are clipped to their parent's interval. Siblings never overlap
    because every call is synchronous on one thread, so the covered part is
    the sum of the clipped child durations.
    """
    dur = (end - start).astype(np.float64)
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    lo = np.maximum(start[child], start[p])
    hi = np.minimum(end[child], end[p])
    covered = np.bincount(p, weights=np.maximum(hi - lo, 0).astype(np.float64),
                          minlength=len(dur))
    return dur - covered


def under(fn: np.ndarray, parent: np.ndarray, targets) -> np.ndarray:
    """Mask of spans that are, or descend from, a span of a target function."""
    hit = np.isin(fn, list(targets))
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        idx = np.flatnonzero(live)
        hit[idx] |= np.isin(fn[anc[idx]], list(targets))
        anc[idx] = parent[anc[idx]]
        live = anc >= 0
    return hit


def _layer_of(names: list, fn: np.ndarray) -> np.ndarray:
    return np.array([LAYERS.index(name.split(".")[0]) for name in names] or [0])[fn]


def _own(spans: dict, req_scale) -> np.ndarray:
    own = self_times(spans["parent"], spans["start"], spans["end"])
    return own if req_scale is None else own * np.asarray(req_scale)[spans["req"]]


def layer_metrics(spans: dict, names: list, errors: list, kinds: list, rows: list,
                  req_scale=None) -> dict:
    """Per-layer metrics from one traced batch.

    Times are milliseconds per request, so the self times of all layers add
    up to the mean traced latency. Counts are totals over the batch.
    `kinds` and `rows` give each request's subcommand and data rows;
    `req_scale`, if given, multiplies the self times of each request's spans.
    """
    fn, parent = spans["fn"], spans["parent"]
    n_req = max(len(kinds), 1)
    own = _own(spans, req_scale)
    ids = {name: i for i, name in enumerate(names)}
    layer = _layer_of(names, fn)

    def fid(name):
        return ids.get(name, -1)

    def calls(name):
        return int(np.count_nonzero(fn == fid(name)))

    def raised(name, error):
        code = errors.index(error) + 1 if error in errors else -1
        return int(np.count_nonzero((fn == fid(name)) & (spans["exc"] == code)))

    def self_ms(layer_name, root=None):
        mask = layer == LAYERS.index(layer_name)
        if root is not None:
            mask &= under(fn, parent, [fid(root)])
        return float(own[mask].sum()) / 1e6 / n_req

    evolve_reqs = np.array([i for i, kind in enumerate(kinds) if kind == "evolve"], dtype=np.int32)
    evolve_rows = sum(rows[i] for i in evolve_reqs)
    decay = fn == fid("reservoir.decay_factors")
    decay_in_evolve = int(np.count_nonzero(decay & np.isin(spans["req"], evolve_reqs)))
    critic_calls = calls("analysis.critic_time")
    decay_in_critic = int(np.count_nonzero(decay & under(fn, parent, [fid("analysis.critic_time")])))
    return {
        "cli.self_ms": self_ms("cli"),
        "cli.rows": sum(rows),
        "reservoir.self_ms": self_ms("reservoir"),
        "reservoir.critic_time.self_ms": self_ms("reservoir", "analysis.critic_time"),
        "reservoir.decay_factors.calls": calls("reservoir.decay_factors"),
        "reservoir.dephasing_exponent.calls": calls("reservoir.dephasing_exponent"),
        "reservoir.decay_per_row": decay_in_evolve / evolve_rows if evolve_rows else 0.0,
        "evolution.self_ms": self_ms("evolution"),
        "evolution.evolve_x_state.calls": calls("evolution.evolve_x_state"),
        "evolution.assemble_density.calls": calls("evolution.assemble_density"),
        "discord.analytic.self_ms": self_ms("discord", "discord.discord_analytic"),
        "discord.discord_analytic.calls": calls("discord.discord_analytic"),
        "discord.bruteforce.self_ms": self_ms("discord", "discord.discord_bruteforce"),
        "discord.discord_bruteforce.calls": calls("discord.discord_bruteforce"),
        "discord.bruteforce.convergence_errors": raised("discord.discord_bruteforce",
                                                        "ConvergenceError"),
        "analysis.critic_time.self_ms": self_ms("analysis", "analysis.critic_time"),
        "analysis.critic_time.calls": critic_calls,
        "analysis.critic_time.decay_evals": decay_in_critic / critic_calls if critic_calls else 0.0,
        "analysis.critic_time.root_failures": raised("analysis.critic_time", "RootFindError"),
        "analysis.scan.self_ms": self_ms("analysis", "analysis.scan_amplification_rate"),
        "analysis.closed_form.calls": calls("analysis.critic_time_closed_form_identical"),
        "states.self_ms": self_ms("states"),
        "states.xlog2.calls": calls("states.xlog2"),
        "states.entropy_bits.calls": calls("states.entropy_bits"),
    }


def layer_shares(spans: dict, names: list, req_scale=None) -> dict:
    """Share of all traced self time spent in each layer."""
    own = _own(spans, req_scale)
    layer = _layer_of(names, spans["fn"])
    total = float(own.sum()) or 1.0
    return {name: float(own[layer == i].sum()) / total for i, name in enumerate(LAYERS)}
