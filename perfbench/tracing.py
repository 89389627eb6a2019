"""Span tracer that times hwsep's public functions from outside the package.

``Tracer`` rebinds each target function, in every ``hwsep`` module that holds
it, to a wrapper that records a span: layer name, parent span, start, end and
a work count computed from array shapes or from the result.  Names imported by
value (``criteria.trace_norm``, ``analysis.trace_norm``,
``criteria.partial_transpose``, ``criteria.eig_hermitian`` and the package
re-exports) are found by identity, so every call site goes through the
wrapper.  ``DensityMatrix`` construction is timed through ``__post_init__``.
Leaving the ``with`` block restores every original.

Spans live in memory as tuples; ``summarize`` turns a list of them into
per-layer calls, self time and work counts.  A span's self time is its
duration minus the durations of its direct children, which are nested and
sequential because everything runs on one thread.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "op"


def _arg_elems(args, result) -> int:
    return int(np.size(args[0]))


def _matrix_elems(args, result) -> int:
    return int(result.matrix.size)


def _tensor_elems(args, result) -> int:
    return int(result.tensor.size)


def _evaluations(args, result) -> int:
    return int(result.evaluations)


# (span name, module, attribute path, work count or None).  A target that is
# missing from the package is skipped, so the tracer keeps working when a
# function is removed; its metrics then read 0.
TARGETS = (
    ("linalg.DensityMatrix", "hwsep.linalg", "DensityMatrix.__post_init__", None),
    ("linalg.trace_norm", "hwsep.linalg", "trace_norm", _arg_elems),
    ("linalg.partial_transpose", "hwsep.linalg", "partial_transpose", None),
    ("linalg.eig_hermitian", "hwsep.linalg", "eig_hermitian", None),
    ("states.mix", "hwsep.states", "mix", None),
    ("bloch.decompose_bipartite", "hwsep.bloch", "decompose_bipartite", None),
    ("bloch.build_W", "hwsep.bloch", "build_W", _tensor_elems),
    ("criteria.build_S", "hwsep.criteria", "build_S", _matrix_elems),
    ("criteria.matricize", "hwsep.criteria", "matricize", None),
    ("criteria.check_theorem1", "hwsep.criteria", "check_theorem1", None),
    ("criteria.check_theorem2", "hwsep.criteria", "check_theorem2", None),
    ("criteria.check_vb", "hwsep.criteria", "check_vb", None),
    ("criteria.check_lb", "hwsep.criteria", "check_lb", None),
    ("criteria.check_isc", "hwsep.criteria", "check_isc", None),
    ("criteria.check_ppt", "hwsep.criteria", "check_ppt", None),
    ("analysis.scan_threshold", "hwsep.analysis", "scan_threshold", _evaluations),
    ("analysis.optimize_params", "hwsep.analysis", "optimize_params", None),
    ("cli.run", "hwsep.cli", "run", None),
    ("cli.parse_state_json", "hwsep.cli", "parse_state_json", None),
)


def layer_of(span_name: str) -> str:
    """Metric layer of a span: the ``check_*`` functions share one layer."""
    return "criteria.check" if span_name.startswith("criteria.check_") else span_name


def _hwsep_modules():
    return [m for name, m in list(sys.modules.items()) if name == "hwsep" or name.startswith("hwsep.")]


class Tracer:
    """Context manager that wraps the ``TARGETS`` while it is entered.

    ``spans`` collects ``(name, parent, start, end, work)`` tuples, where
    ``parent`` is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._patches: list = []  # (owner, attribute, original)

    def call(self, name, fn, args=(), kwargs=None, count=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        stack.append(idx)
        result = None
        start = perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        finally:
            end = perf_counter()
            stack.pop()
            work = count(args, result) if count is not None and result is not None else 0
            spans[idx] = (name, stack[-1], start, end, work)

    def take(self) -> list:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def __enter__(self):
        modules = _hwsep_modules()
        for name, module_name, path, count in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            *owner_path, attr = path.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self._wrap(name, original, count)
            if owner_path:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False


def summarize(spans) -> dict:
    """Per-layer ``[calls, self seconds, work]`` totals of a span list."""
    child = [0.0] * len(spans)
    for name, parent, start, end, work in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = defaultdict(lambda: [0, 0.0, 0])
    for (name, parent, start, end, work), covered in zip(spans, child):
        row = out[layer_of(name)]
        row[0] += 1
        row[1] += end - start - covered
        row[2] += work
    return dict(out)


def export(spans, max_ops: int) -> list:
    """Spans of the first ``max_ops`` operations, times in microseconds.

    Each row is ``[index, parent, op, name, start_us, duration_us, work]``;
    ``op`` is the index of the root span the row belongs to, which is the
    identifier all spans of one operation share.
    """
    rows = []
    op_of = []
    ops = 0
    t0 = spans[0][2] if spans else 0.0
    for i, (name, parent, start, end, work) in enumerate(spans):
        if parent < 0:
            ops += 1
            if ops > max_ops:
                break
        op = i if parent < 0 else op_of[parent]
        op_of.append(op)
        rows.append([i, parent, op, name, round((start - t0) * 1e6, 3), round((end - start) * 1e6, 3), work])
    return rows
