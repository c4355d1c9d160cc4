"""Outside-in tracing: timing wrappers around wmstat's public calls.

The wrappers are installed on the module (or class) namespace where each
name is looked up at call time, e.g. ``wmstat.schemes.substream``, only for
the duration of one traced operation, so untraced operations run the library
untouched.  Every wrapped call records a span (name, start, end, parent, op
id, units) into flat arrays kept in memory; ``save`` writes them once the
run ends.  A layer is the wmstat module that defines the wrapped function.
"""

from __future__ import annotations

import functools
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("schemes", "lm", "streams", "dist", "rates", "robust", "simplex", "flow", "agnostic", "ump")


def _arg(pos: int, key: str):
    return lambda args, kwargs: float(kwargs[key] if key in kwargs else args[pos])


# (namespace, attribute, units extractor or None).  A namespace with a
# capitalised last part is a class: the method is wrapped on it.
SPANNED = (
    ("schemes", "estimate_type1", None),
    ("schemes", "estimate_type2", None),
    ("schemes", "map_trials", None),
    ("schemes", "substream", None),
    ("schemes", "sample", None),
    ("schemes", "_alignment_phi", None),
    ("schemes.SoftRedList", "generate", None),
    ("schemes.SoftRedList", "detect", None),
    ("schemes.ChristBinary", "generate", None),
    ("schemes.ChristBinary", "detect", None),
    ("schemes.InverseTransform", "generate", None),
    ("schemes.InverseTransform", "detect", None),
    ("schemes.UmpSequence", "generate", None),
    ("schemes.UmpSequence", "detect", None),
    ("lm.ToyLM", "sample_sequence", _arg(1, "n")),
    ("lm.ToyLM", "sequence_logprob", lambda args, kwargs: float(len(args[1]))),
    ("lm", "sample", None),
    ("rates", "n_required_empirical", None),
    ("rates", "type2_product_exact", None),
    ("rates", "type2_product_mc", None),
    ("rates", "sample_many", _arg(2, "size")),
    ("rates", "substream", None),
    ("streams", "map_trials", None),
    ("robust", "hamming_graph", None),
    ("robust", "robust_lp_build", None),
    ("robust", "robust_optimal_type2", None),
    ("robust", "simplex_solve", None),
    ("simplex", "simplex_solve", None),
    ("agnostic", "build_agnostic_coupling", None),
    ("agnostic", "strassen_condition_holds", None),
    ("flow.FlowNetwork", "max_flow", None),
    ("ump", "ump_coupling", None),
    ("ump", "optimal_type2", None),
)
# called once per token: counted, not spanned
COUNTED = (("lm.ToyLM", "next_dist"),)


def _namespace(lib, path: str):
    module, _, cls = path.partition(".")
    ns = getattr(lib, module)
    return getattr(ns, cls) if cls else ns


class Tracer:
    """Span recorder for one run; spans of one operation share its op id."""

    def __init__(self, lib):
        self.lib = lib
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.missing: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.units = array("d")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, list[int]] = {}
        self._stack = [-1]
        self._op_id = -1
        self._patches = self._build_patches()

    def _build_patches(self) -> list[tuple[object, str, object, object]]:
        patches = []
        for path, attr, units in SPANNED:
            ns = _namespace(self.lib, path)
            fn = getattr(ns, attr, None)
            if fn is None:
                self.missing.append(f"wmstat.{path}.{attr}")
                continue
            layer = fn.__module__.rpartition(".")[2]
            patches.append((ns, attr, fn, self._spanning(f"wmstat.{path}.{attr}", layer, fn, units)))
        for path, attr in COUNTED:
            ns = _namespace(self.lib, path)
            fn = getattr(ns, attr, None)
            if fn is None:
                self.missing.append(f"wmstat.{path}.{attr}")
                continue
            patches.append((ns, attr, fn, self._counting(f"wmstat.{path}.{attr}", fn)))
        return patches

    def _spanning(self, name: str, layer: str, fn, units):
        nid = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        rec, stack = self, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec.start)
            rec.name.append(nid)
            rec.parent.append(stack[-1])
            rec.op.append(rec._op_id)
            rec.units.append(units(args, kwargs) if units else 1.0)
            rec.end.append(0.0)
            stack.append(idx)
            rec.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                rec.end[idx] = perf_counter()
                stack.pop()

        return traced

    def _counting(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def tracing(self, op_id: int):
        """Install every wrapper for one operation, then restore the originals."""
        self._op_id = op_id
        for ns, attr, _, wrapper in self._patches:
            setattr(ns, attr, wrapper)
        try:
            yield
        finally:
            for ns, attr, original, _ in self._patches:
                setattr(ns, attr, original)
            self._op_id = -1

    def count(self, name: str) -> int:
        return self.counts.get(name, [0])[0]

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy columns, with each span's duration and self time."""
        start = np.array(self.start, dtype=np.float64)
        end = np.array(self.end, dtype=np.float64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return {
            "name": np.array(self.name, dtype=np.int64),
            "parent": parent,
            "op": np.array(self.op, dtype=np.int64),
            "units": np.array(self.units, dtype=np.float64),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            layers=np.array(self.layer_of),
            **{k: cols[k] for k in ("name", "parent", "op", "units", "start", "end")},
        )
