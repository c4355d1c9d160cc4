"""Runs one workload: set-up, the timed passes, the oracles, the metrics.

End-to-end metrics come from untraced operations.  In a traced run every
operation still runs untraced, and the first ``TRACE_PER_KIND`` occurrences
of each kind run a second time under the tracer right after; per-layer
metrics come from those spans, and tracing overhead compares the two runs of
the same operation.

Before every operation, and around every set-up, the harness times a fixed
reference kernel that does not touch wmstat.  On a shared machine whose speed
drifts, a time over the reference time measured at the same moment is far
steadier than either alone; ``wall_ref`` and ``setup_s`` are built from these
ratios.  The kernel is made of parts, and each workload names the parts whose
speed tracks its own (``reference``): the drift is not the same for
interpreter loops, small numpy calls and large array passes.
"""

from __future__ import annotations

import gc
import importlib
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from tracing import LAYERS, Tracer
from workloads import Op

SETUP_REPS = (10, 11)  # set-ups before and after the timed section
TRACE_PER_KIND = 3
REF_WINDOW = 5  # reference timings in the rolling median each operation is divided by


class LibraryNotFound(RuntimeError):
    """wmstat could not be imported from the checkout's own ``src``."""


@dataclass
class Record:
    op: Op
    seconds: float
    ref: float  # rolling median of the reference kernel's time when the op ran
    work: int  # units done, 0 if the operation failed
    result: object  # kept only where the workload's whole-run oracles need it
    failure: str | None
    traced: bool


def load_library(src: Path) -> SimpleNamespace:
    """Import wmstat afresh from ``src`` (never from an installed copy)."""
    for name in [m for m in sys.modules if m == "wmstat" or m.startswith("wmstat.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    try:
        mods = {name: importlib.import_module(f"wmstat.{name}") for name in LAYERS}
    except ImportError as err:
        raise LibraryNotFound(f"cannot import wmstat from {src}: {err}") from None
    origin = Path(mods["schemes"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise LibraryNotFound(f"wmstat imported from {origin}, not from {src}")
    return SimpleNamespace(**mods)


def setup(workload_cls, src: Path, seed: int, sizes=None, reps: int = 1):
    """Import, workload construction and cache warm-up, ``reps`` times.

    Returns the last workload, every set-up time, and every set-up time over
    the mean of the reference kernel's times just before and just after it.
    """
    times, ratios = [], []
    for _ in range(reps):
        gc.collect()  # each set-up starts from a clean heap, as a fresh process does
        ref_before = reference_seconds(workload_cls.reference)
        t0 = perf_counter()
        lib = load_library(src)
        wl = workload_cls(lib, seed) if sizes is None else workload_cls(lib, seed, sizes)
        wl.warm()
        seconds = perf_counter() - t0
        times.append(seconds)
        ratios.append(seconds / ((ref_before + reference_seconds(workload_cls.reference)) / 2))
    return wl, times, ratios


def _interpreter_kernel() -> None:
    """Arithmetic in an interpreter loop, then a mid-size numpy scan."""
    acc = 0.0
    for i in range(20_000):
        acc += math.sqrt(i) * (i % 7)
    x = np.arange(1 << 16, dtype=np.float64)
    np.searchsorted(np.cumsum(x), x[::7])


_CDF = np.cumsum(np.full(8, 0.125))


def _sampling_kernel() -> None:
    """A token-by-token sampling loop: one small numpy draw, a searchsorted
    and a dict update per step."""
    rng = np.random.default_rng(7)
    counts: dict = {}
    for i in range(800):
        j = int(np.searchsorted(_CDF, rng.random()))
        counts[(i & 63, j)] = counts.get((i & 63, j), 0) + 1


def _array_kernel() -> None:
    """Whole-array passes over 1 MiB of float32."""
    x = np.arange(1 << 18, dtype=np.float32)
    np.argmin(np.cumsum(x)[::-1] - x)


# part -> (kernel, its usual time in seconds on a 2-core Xeon VM); the usual
# times turn a set-up's time over the reference time back into seconds
REFERENCE_PARTS = {
    "interpreter": (_interpreter_kernel, 3.5e-3),
    "sampling": (_sampling_kernel, 3.0e-3),
    "arrays": (_array_kernel, 1.8e-3),
}


def reference_seconds(parts) -> float:
    """Time of the reference kernel made of ``parts``."""
    t0 = perf_counter()
    for part in parts:
        REFERENCE_PARTS[part][0]()
    return perf_counter() - t0


def _run_op(op: Op, inputs, ref: float, tracer: Tracer | None, op_id: int) -> Record:
    """Time one operation, then judge its result (untimed)."""
    result, failure = None, None
    if tracer is None:
        t0 = perf_counter()
        try:
            result = op.call(inputs)
        except Exception as err:  # a failing operation is counted, not fatal
            failure = f"{type(err).__name__}: {err}"
        seconds = perf_counter() - t0
    else:
        with tracer.tracing(op_id):
            t0 = perf_counter()
            try:
                result = op.call(inputs)
            except Exception as err:
                failure = f"{type(err).__name__}: {err}"
            seconds = perf_counter() - t0
    work = 0
    if failure is None:
        try:
            failure = op.check(inputs, result)
            work = int(op.work(result))
        except Exception as err:  # an oracle that cannot judge the result fails it
            failure = f"check raised {type(err).__name__}: {err}"
    return Record(op, seconds, ref, work, result, failure, tracer is not None)


def run_passes(wl, seconds: float, tracer: Tracer | None = None) -> list[Record]:
    """Whole first pass, then operations in pass order until ``seconds`` pass.

    Inputs are drawn, and the reference kernel timed, before each operation,
    outside its timing.  Results are dropped once checked unless the
    workload's whole-run oracles need them, so memory does not grow with the
    number of passes.
    """
    records: list[Record] = []
    occurrences: dict[str, int] = {}
    traced: dict[str, int] = {}
    refs: list[float] = []
    deadline = perf_counter() + seconds
    first = True
    while True:
        for op in wl.ops:
            occ = occurrences.get(op.kind, 0)
            occurrences[op.kind] = occ + 1
            inputs = op.inputs(occ)
            refs.append(reference_seconds(wl.reference))
            ref = statistics.median(refs[-REF_WINDOW:])
            plain = _run_op(op, inputs, ref, None, -1)
            records.append(plain)
            if tracer is not None and traced.get(op.kind, 0) < TRACE_PER_KIND:
                traced[op.kind] = traced.get(op.kind, 0) + 1
                twin = _run_op(op, inputs, ref, tracer, len(records))
                if twin.failure is None and plain.failure is None and twin.result != plain.result:
                    twin.failure = "traced result differs from the untraced run"
                records.append(twin)
                if not wl.keep_results:
                    twin.result = None
            if not wl.keep_results:
                plain.result = None
            if not first and perf_counter() >= deadline:
                return records
        first = False
        if perf_counter() >= deadline:
            return records


def failures(wl, records: list[Record]) -> dict[int, str]:
    """Failures by record index: exceptions, per-op oracles, whole-run oracles."""
    bad = {i: r.failure for i, r in enumerate(records) if r.failure is not None}
    bad.update(wl.failures(records))
    return bad


def work_of(records: list[Record]) -> dict[str, int]:
    """Work units per kind, from the first successful run of the kind."""
    out: dict[str, int] = {}
    for r in records:
        if r.failure is None and r.op.kind not in out:
            out[r.op.kind] = r.work
    return out


def kind_medians(records: list[Record]) -> dict[str, float]:
    """Median time of each kind's untraced operations."""
    seconds: dict[str, list[float]] = {}
    for r in records:
        if not r.traced:
            seconds.setdefault(r.op.kind, []).append(r.seconds)
    return {k: statistics.median(v) for k, v in seconds.items()}


def wall_shares(wl, records: list[Record]) -> dict[str, float]:
    """Each label's share of ``wall_s``: per scheme on mc-schemes (the
    workload's ``share_label``), per group elsewhere."""
    med = kind_medians(records)
    label = getattr(wl, "share_label", lambda op: op.group)
    wall = math.fsum(med[op.kind] for op in wl.ops)
    shares: dict[str, float] = {}
    for op in wl.ops:
        shares[label(op)] = shares.get(label(op), 0.0) + med[op.kind] / wall
    return shares


def end_to_end(wl, records: list[Record], setup_times, setup_ratios, failed: int) -> dict:
    """Every end-to-end figure of the workload, with units.

    ``wall_s`` is the time of one pass, as the sum over its operations of the
    median time of their kind; ``wall_ref`` the same sum of medians of each
    operation's time over the reference time when it ran.  ``setup_s`` is
    the median set-up time over the reference time around it, converted to
    seconds at the kernel's usual speed (``REFERENCE_PARTS``); ``setup_wall_s``
    the median set-up time as measured.  A group's throughput is its work
    per pass over its share of ``wall_s``.
    """
    ratios: dict[str, list[float]] = {}
    for r in records:
        if not r.traced:
            ratios.setdefault(r.op.kind, []).append(r.seconds / r.ref)
    med = kind_medians(records)
    work = work_of(records)
    usual_ref = math.fsum(REFERENCE_PARTS[part][1] for part in wl.reference)
    out = {
        "setup_s": (statistics.median(setup_ratios) * usual_ref, "s"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "wall_s": (math.fsum(med[op.kind] for op in wl.ops), "s"),
        "wall_ref": (math.fsum(statistics.median(ratios[op.kind]) for op in wl.ops), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "fail_ratio": (failed / len(records), "ratio"),
    }
    for group, metric in wl.groups.items():
        ops = [op for op in wl.ops if op.group == group]
        units = sum(work.get(op.kind, 0) for op in ops)
        out[metric] = (units / math.fsum(med[op.kind] for op in ops), "1/s")
    return out


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of the traced operations

TAIL_LEVELS = (0.999, 0.99, 0.9, 0.5)


def tail_level(n: int) -> float:
    """Highest standard percentile with at least 10 samples beyond it (1.0: the max)."""
    for q in TAIL_LEVELS:
        if round(n * (1.0 - q), 9) >= 10:
            return q
    return 1.0


def quantile(values: np.ndarray, q: float) -> float:
    """Nearest-rank quantile."""
    ordered = np.sort(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


SCHEME_CLASSES = {
    "srl": "SoftRedList",
    "christ": "ChristBinary",
    "its": "InverseTransform",
    "ump": "UmpSequence",
}

# timing metric -> (span names, op-kind prefix filter or None, value, scale)
# value "dur" is the span's duration, "self" its self time, "per_unit" the
# duration per unit (tokens, draws).
TIMINGS: dict[str, tuple] = {}
for _short, _cls in SCHEME_CLASSES.items():
    for _method in ("generate", "detect"):
        TIMINGS[f"schemes.{_short}.{_method}_ms"] = (
            (f"wmstat.schemes.{_cls}.{_method}",), None, "dur", 1e3)
TIMINGS.update({
    "schemes.its.alignment_ms": (("wmstat.schemes._alignment_phi",), None, "dur", 1e3),
    "streams.substream_us": (("wmstat.schemes.substream", "wmstat.rates.substream"), None, "dur", 1e6),
    "dist.sample_us": (("wmstat.lm.sample", "wmstat.schemes.sample"), None, "dur", 1e6),
    "rates.binomial_point_us": (("wmstat.rates.type2_product_exact",), "binomial.", "dur", 1e6),
    "rates.count_vector_point_ms": (("wmstat.rates.type2_product_exact",), "count_vector.", "dur", 1e3),
    "rates.mc_call_ms": (("wmstat.rates.type2_product_mc",), None, "dur", 1e3),
    "robust.hamming_graph_s": (("wmstat.robust.hamming_graph",), None, "dur", 1.0),
    "robust.lp_build_ms": (("wmstat.robust.robust_lp_build",), "hamming.", "dur", 1e3),
    "simplex.solve_float_ms": (("wmstat.simplex.simplex_solve",), "small_lp.float", "dur", 1e3),
    "simplex.solve_exact_ms": (("wmstat.simplex.simplex_solve",), "small_lp.exact", "dur", 1e3),
    "simplex.hamming_solve_s": (("wmstat.robust.simplex_solve",), "hamming.", "dur", 1.0),
    "flow.max_flow_ms": (("wmstat.flow.FlowNetwork.max_flow",), None, "dur", 1e3),
    "agnostic.coupling_self_ms": (("wmstat.agnostic.build_agnostic_coupling",), None, "self", 1e3),
    "agnostic.strassen_float_ms": (("wmstat.agnostic.strassen_condition_holds",), "strassen.float", "dur", 1e3),
    "agnostic.strassen_exact_ms": (("wmstat.agnostic.strassen_condition_holds",), "strassen.exact", "dur", 1e3),
    "ump.coupling_us": (("wmstat.ump.ump_coupling",), None, "dur", 1e6),
})
# single figures: the median per unit, or of the self time
SINGLES: dict[str, tuple] = {
    "lm.sample_sequence_us_per_token": (("wmstat.lm.ToyLM.sample_sequence",), None, "per_unit", 1e6),
    "lm.sequence_logprob_us_per_token": (("wmstat.lm.ToyLM.sequence_logprob",), None, "per_unit", 1e6),
    "streams.map_trials_overhead_ms": (("wmstat.schemes.map_trials", "wmstat.streams.map_trials"), None, "self", 1e3),
    "dist.sample_many_ns_per_draw": (("wmstat.rates.sample_many",), None, "per_unit", 1e9),
}
COMPUTED = (
    "schemes.its.alignment_cells",
    "rates.count_vector_classes",
    "robust.graph_edges",
    "simplex.tableau_cells",
    "flow.network_edges",
)
UNITS = {"_ms": "ms", "_us": "us", "_s": "s", "_ns_per_draw": "ns", "_us_per_token": "us"}


def _unit(metric: str) -> str:
    for suffix, unit in sorted(UNITS.items(), key=lambda kv: -len(kv[0])):
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit, in order."""
    names = []
    for metric in TIMINGS:
        names += [(f"{metric}.p50", _unit(metric)), (f"{metric}.tail", _unit(metric))]
    names += [(m, _unit(m)) for m in SINGLES]
    names += [(m, "count") for m in COMPUTED]
    names += [(f"schemes.{s}.reject_ratio", "ratio") for s in SCHEME_CLASSES]
    names += [
        ("lm.next_dist_calls_per_trial", "count"),
        ("streams.substream_calls_per_trial", "count"),
    ]
    names += [(f"{layer}.self_share", "ratio") for layer in LAYERS]
    names += [("trace.uncovered_share", "ratio"), ("trace.overhead_ratio", "ratio")]
    return names


def per_layer(wl, records: list[Record], tracer: Tracer) -> tuple[dict, dict]:
    """Per-layer figures (0 where the workload never calls the layer) and the
    sample count and tail level behind each timing."""
    cols = tracer.arrays()
    traced_ids = [i for i, r in enumerate(records) if r.traced]
    kind_of = {i: records[i].op.kind for i in traced_ids}
    span_kind = np.array([kind_of.get(int(o), "") for o in cols["op"]], dtype=object)
    name_ids = {name: i for i, name in enumerate(tracer.names)}

    def select(names, kind_prefix):
        ids = [name_ids[n] for n in names if n in name_ids]
        mask = np.isin(cols["name"], ids)
        if kind_prefix is not None:
            mask &= np.array([k.startswith(kind_prefix) for k in span_kind], dtype=bool)
        return mask

    def values(spec):
        names, kind_prefix, how, scale = spec
        mask = select(names, kind_prefix)
        if how == "per_unit":
            return cols["dur"][mask] / cols["units"][mask] * scale
        return cols[how][mask] * scale

    out: dict[str, float] = {}
    detail: dict[str, dict] = {}
    for metric, spec in TIMINGS.items():
        v = values(spec)
        q = tail_level(len(v))
        out[f"{metric}.p50"] = quantile(v, 0.5) if len(v) else 0.0
        out[f"{metric}.tail"] = quantile(v, q) if len(v) else 0.0
        detail[metric] = {"samples": len(v), "tail_level": q}
    for metric, spec in SINGLES.items():
        v = values(spec)
        out[metric] = quantile(v, 0.5) if len(v) else 0.0
        detail[metric] = {"samples": len(v)}

    computed = wl.computed()
    for metric in COMPUTED:
        out[metric] = float(computed.get(metric, 0))

    reject = wl.reject_ratios(records) if hasattr(wl, "reject_ratios") else {}
    for short in SCHEME_CLASSES:
        out[f"schemes.{short}.reject_ratio"] = reject.get(short, 0.0)

    trials = sum(
        records[i].work
        for i in traced_ids
        if records[i].op.group in ("type1", "type2") and records[i].failure is None
    )
    substreams = int(select(("wmstat.schemes.substream",), "type").sum())
    out["lm.next_dist_calls_per_trial"] = (
        tracer.count("wmstat.lm.ToyLM.next_dist") / trials if trials else 0.0
    )
    out["streams.substream_calls_per_trial"] = substreams / trials if trials else 0.0

    traced_wall = math.fsum(records[i].seconds for i in traced_ids)
    layer_ids = np.array(
        [LAYERS.index(layer) if layer in LAYERS else -1 for layer in tracer.layer_of],
        dtype=np.int64,
    )
    span_layer = layer_ids[cols["name"]] if len(cols["name"]) else np.zeros(0, dtype=np.int64)
    for j, layer in enumerate(LAYERS):
        out[f"{layer}.self_share"] = float(cols["self"][span_layer == j].sum()) / traced_wall
    roots = float(cols["dur"][cols["parent"] < 0].sum())
    out["trace.uncovered_share"] = (traced_wall - roots) / traced_wall
    untraced_twin = math.fsum(records[i - 1].seconds for i in traced_ids)
    out["trace.overhead_ratio"] = traced_wall / untraced_twin - 1.0
    detail["spans"] = len(cols["dur"])
    detail["missing_wrappers"] = tracer.missing
    return out, detail
