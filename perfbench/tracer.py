"""Spans and work counters recorded from outside the entbump package.

``Tracer.install`` wraps every public function of the layer modules (grid,
weights, bumps, sparse, lab) and rebinds the wrapper in every ``entbump.*``
namespace that binds the original, for example ``lab.m_entropy``,
``sparse.m_entropy`` and ``bumps.m_entropy``; calls made inside the package
therefore pass through the wrapper too. Each wrapped call records one span
(trace id, span id, parent span id, name, start, end, error) in memory.

Work counters are counted at the same boundaries, from outside: the
DyadicCube constructor, ``OrliczSpec.__call__``, the cubes handed to
``m_coeff`` and ``m_orlicz``, the members ``cz_stopping_collection`` returns
and the report ``proof_replay`` returns inside ``lab``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("grid", "weights", "bumps", "sparse", "lab")
ROOT_SPAN = "bench.call"

# Functions whose inclusive time ("ms") or self time ("self_ms") is reported.
TIMED = {
    "sparse.cz_stopping_collection": "ms",
    "sparse.proof_replay": "self_ms",
    "sparse.split_eight": "ms",
    "sparse.haar_transform": "ms",
    "bumps.m_coeff": "ms",
    "bumps.m_entropy": "self_ms",
    "bumps.m_orlicz": "ms",
    "weights.rho_all": "ms",
    "grid.weak_l1_norm": "ms",
}
COUNTED_CALLS = ("bumps.orlicz_norm",)


def _array_bytes(value) -> int:
    """Bytes of the numpy arrays a value holds: an array, a list or tuple of
    arrays, or an object keeping them in ``values`` or ``mask``
    (GridFunction, CellSet, RhoTable)."""
    if isinstance(getattr(value, "nbytes", None), int):
        return value.nbytes
    if isinstance(value, (list, tuple)):
        return sum(item.nbytes for item in value if isinstance(getattr(item, "nbytes", None), int))
    for attr in ("values", "mask"):
        inner = getattr(value, attr, None)
        if inner is not None and not callable(inner):
            return _array_bytes(inner)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.counting = False
        self._traces = 0
        self._trace_id = 0  # 0 outside any benchmark call
        self._stack = [0]
        self._next_span = 1
        self._undo: list = []

    def _record(self, name, fn, hook):
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = self._stack[-1]
            span_id = self._next_span
            self._next_span += 1
            self._stack.append(span_id)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
            finally:
                end = clock()
                self._stack.pop()
                self.spans.append((self._trace_id, span_id, parent, name, start, end, error))
                if error and self._trace_id:
                    self.counts[f"{name.split('.', 1)[0]}.errors"] += 1
            if self.counting and self._trace_id:
                if hook is not None:
                    hook(self.counts, args, kwargs, result)
                self.counts["computed.boundary_bytes"] += _array_bytes(result) + sum(
                    _array_bytes(a) for a in (*args, *kwargs.values())
                )
            return result

        return functools.update_wrapper(wrapper, fn)

    def call(self, thunk):
        """Run one benchmark call as the root span of a new trace. Spans
        outside any call (the benchmark drawing its inputs) keep trace id 0
        and are left out of every metric."""
        self._traces += 1
        self._trace_id = self._traces
        try:
            return self._record(ROOT_SPAN, thunk, None)()
        finally:
            self._trace_id = 0

    def work_counts(self) -> dict:
        """Exact work counters of the calls recorded so far."""
        counts = Counter(self.counts)
        for trace_id, _, _, name, _, _, _ in self.spans:
            if trace_id:
                counts[f"{name.split('.', 1)[0]}.calls"] += 1
                counts[f"{name}.calls"] += 1
        return dict(counts)

    def install(self, counting: bool = False) -> None:
        """Wrap the layer functions. With ``counting``, also count DyadicCube
        constructions, Phi evaluations, the per-function work of ``_hooks``
        and the array bytes crossing each call; these sit on hot paths, so
        they are left off while layer times are taken."""
        self.counting = counting
        hooks = _hooks() if counting else {}
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"entbump.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[obj] = self._record(name, obj, hooks.get(name))
        modules = [m for name, m in sys.modules.items() if name == "entbump" or name.startswith("entbump.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        if not counting:
            return

        from entbump.bumps import OrliczSpec
        from entbump.grid import DyadicCube

        cube_init = DyadicCube.__init__
        phi_call = OrliczSpec.__call__

        def counted_cube_init(cube, *args, **kwargs):
            if self._trace_id:
                self.counts["grid.dyadic_cubes_created"] += 1
            cube_init(cube, *args, **kwargs)

        def counted_phi_call(spec, t):
            if self._trace_id:
                self.counts["bumps.phi_evals"] += 1
            return phi_call(spec, t)

        self._patch(DyadicCube, "__init__", counted_cube_init)
        self._patch(OrliczSpec, "__call__", counted_phi_call)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Spans as gzipped JSON lines, one span per line."""
        with gzip.open(path, "wt") as fh:
            for trace_id, span_id, parent, name, start, end, error in self.spans:
                fh.write(json.dumps({
                    "trace": trace_id, "span": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "error": error,
                }) + "\n")


def _hooks() -> dict:
    """Per-function work counters, fed the call's arguments and result."""
    import entbump

    def arg(fn, name):
        sig = inspect.signature(fn)
        return lambda args, kwargs: sig.bind(*args, **kwargs).arguments[name]

    m_coeff_cubes = arg(entbump.bumps.m_coeff, "cubes")
    m_orlicz_w = arg(entbump.bumps.m_orlicz, "w")
    replay_s = arg(entbump.sparse.proof_replay, "s")

    def m_coeff(counts, args, kwargs, result):
        counts["bumps.m_coeff.cubes"] += len(m_coeff_cubes(args, kwargs))

    def m_orlicz(counts, args, kwargs, result):
        counts["bumps.m_orlicz.cubes"] += (2 << m_orlicz_w(args, kwargs).resolution) - 1

    def cz(counts, args, kwargs, result):
        counts["sparse.cz_members"] += len(result)

    def replay(counts, args, kwargs, result):
        counts["sparse.replay_members"] += len(replay_s(args, kwargs))
        counts["sparse.replay_classified"] += sum(
            rec.discard_reason is None for rec in result.cube_records
        )

    return {
        "bumps.m_coeff": m_coeff,
        "bumps.m_orlicz": m_orlicz,
        "sparse.cz_stopping_collection": cz,
        "sparse.proof_replay": replay,
    }


def span_times(spans) -> dict:
    """Per span name: inclusive ns and self ns (minus its child spans)."""
    child_ns = defaultdict(int)
    for _, _, parent, _, start, end, _ in spans:
        child_ns[parent] += end - start
    out = defaultdict(lambda: {"ns": 0, "self_ns": 0})
    for trace_id, span_id, _, name, start, end, _ in spans:
        if not trace_id:
            continue
        rec = out[name]
        rec["ns"] += end - start
        rec["self_ns"] += end - start - child_ns[span_id]
    return out


def time_metrics(spans, n_timed: int) -> dict:
    """Per-instance layer and function times from the spans of ``n_timed`` calls."""
    times = span_times(spans)
    out = {}
    for layer in LAYERS:
        self_ns = sum(rec["self_ns"] for name, rec in times.items() if name.split(".", 1)[0] == layer)
        out[f"{layer}.self_ms"] = self_ns / 1e6 / n_timed
    for name, kind in TIMED.items():
        rec = times.get(name, {"ns": 0, "self_ns": 0})
        out[f"{name}.{kind}"] = (rec["self_ns"] if kind == "self_ms" else rec["ns"]) / 1e6 / n_timed
    return out


def count_metrics(counts: dict, n_counted: int) -> dict:
    """Per-instance work counts from exact counters over ``n_counted`` calls."""
    def per(key):
        return counts.get(key, 0) / n_counted

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = per(f"{layer}.calls")
        out[f"{layer}.errors"] = per(f"{layer}.errors")
    for name in COUNTED_CALLS:
        out[f"{name}.calls"] = per(f"{name}.calls")
    for key in ("grid.dyadic_cubes_created", "bumps.m_coeff.cubes", "bumps.phi_evals", "sparse.cz_members"):
        out[key] = per(key)
    members = counts.get("sparse.replay_members", 0)
    out["sparse.replay_classified_ratio"] = (
        counts.get("sparse.replay_classified", 0) / members if members else 0.0
    )
    cubes = counts.get("bumps.m_orlicz.cubes", 0)
    out["bumps.phi_evals_per_cube"] = counts.get("bumps.phi_evals", 0) / cubes if cubes else 0.0
    out["computed.boundary_array_mb"] = per("computed.boundary_bytes") / 2**20
    return out
