"""Span recorder for the traced run, installed from outside the package.

``install`` wraps the public functions of the layer modules (each module's
``__all__``; for ``cli``, its console-script entry point ``main``) and
rebinds every ``blockrank.*`` module attribute that holds the same function
object, because ``cli`` and ``ranker`` import functions by name.  Spans are
kept in memory and handed out once the command has returned.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import resource
import sys
import time
import types

import numpy as np

LAYERS = ("graph", "decomp", "spectra", "ranker", "cli")


def _array_bytes(value) -> tuple[int, int, int]:
    """(nbytes, sparse nnz, sparse nbytes) of one field value."""
    if isinstance(value, np.ndarray):
        return value.nbytes, 0, 0
    if all(hasattr(value, a) for a in ("data", "indices", "indptr", "nnz")):
        nbytes = value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
        return nbytes, int(value.nnz), nbytes
    return 0, 0, 0


def _dataclass_bytes(obj) -> tuple[int, int, int]:
    totals = [0, 0, 0]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            for i, v in enumerate(_array_bytes(getattr(obj, f.name))):
                totals[i] += v
    return tuple(totals)


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Spans as ``[name, start, end, parent_index, attrs]`` lists.

    Attributes (sizes, iteration counts, the RSS high-water mark) are taken
    only for the entry span and its direct children, the pipeline stages,
    so that per-call spans inside the iteration stay cheap.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            stage = parent < 0 or spans[parent][3] < 0
            span = [name, clock(), 0.0, parent, None]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if stage:
                span[4] = _stage_attrs(args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced


def _stage_attrs(args, result) -> dict:
    in_sparse = [0, 0]
    for a in args:
        _, nnz, nbytes = _dataclass_bytes(a)
        in_sparse[0] += nnz
        in_sparse[1] += nbytes
    attrs = {"out_bytes": _dataclass_bytes(result)[0],
             "in_sparse_nnz": in_sparse[0], "in_sparse_bytes": in_sparse[1],
             "rss_hwm_mb": _rss_mb()}
    if isinstance(getattr(result, "iterations", None), int):
        attrs["iterations"] = result.iterations
    scores = getattr(result, "scores", None)
    if isinstance(scores, np.ndarray):
        attrs["n"] = int(scores.size)
    return attrs


def install(recorder: Recorder) -> list[str]:
    """Wrap the layers' public functions; return the span names installed."""
    targets: dict[int, object] = {}
    names = []
    for layer in LAYERS:
        module = importlib.import_module(f"blockrank.{layer}")
        public = ("main",) if layer == "cli" else getattr(module, "__all__", ())
        for attr in public:
            obj = getattr(module, attr, None)
            if isinstance(obj, types.FunctionType):
                if id(obj) not in targets:
                    targets[id(obj)] = recorder.wrap(f"{layer}.{attr}", obj)
                    names.append(f"{layer}.{attr}")
            elif isinstance(obj, type) and obj.__module__ == module.__name__:
                for meth, raw in vars(obj).items():
                    if isinstance(raw, classmethod) and not meth.startswith("_"):
                        wrapped = recorder.wrap(f"{layer}.{attr}.{meth}", raw.__func__)
                        setattr(obj, meth, classmethod(wrapped))
                        names.append(f"{layer}.{attr}.{meth}")
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "blockrank" or mod_name.startswith("blockrank."):
            for attr, value in list(vars(module).items()):
                if id(value) in targets and not getattr(value, "__wrapped_by_tracer__", False):
                    setattr(module, attr, targets[id(value)])
    return names


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-span-name time, self time, calls and stage attributes, plus the
    derived per-iteration figures of the ranker.  Names never recorded are
    simply missing from the result."""
    total: dict[str, float] = {}
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent, attrs) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - covered[i])
        calls[name] = calls.get(name, 0) + 1
        for key, value in (attrs or {}).items():
            out[f"{name}.{key}"] = value
    for name in total:
        out[f"{name}.s"] = total[name]
        out[f"{name}.self_s"] = self_time[name]
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.us_per_call"] = 1e6 * total[name] / calls[name]
    iters = out.get("ranker.rank.iterations")
    if iters:
        out["ranker.s_per_iter"] = out["ranker.rank.s"] / iters
        # Computed, not measured: each step streams the sparse operands once
        # and reads x / writes y (8-byte floats); two flops per nonzero.
        moved = out["ranker.rank.in_sparse_bytes"] + 16 * out.get("ranker.rank.n", 0)
        out["ranker.bytes_per_iter"] = moved
        out["ranker.ops_per_byte"] = 2 * out["ranker.rank.in_sparse_nnz"] / moved
    return out
