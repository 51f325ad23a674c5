"""Span tracing of the path2seq layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules
with a wrapper that records a span (name, start, end, parent span) and
rebinds each module attribute that referred to the original, so calls made
through `from .x import f` names are traced too. Primitive numerics ops
also get their backward closure wrapped, which yields one `numerics.bw.<op>`
span per closure call under the `numerics.backward` span.

A few wrappers also count work where it happens: contexts extracted per
method, LSTM rows, graph nodes per backward walk, distinct path rows per
training batch, checkpoint bytes. Spans stay in memory until `save()`.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import defaultdict

import numpy as np

PACKAGE = "path2seq"
MODULES = ("minij", "paths", "vocab", "model", "numerics", "decoding",
           "training", "storage", "metrics", "cli")

# Ops that build their output tensor themselves; composites such as
# lstm_step return tensors built by these, whose closures are already wrapped.
PRIMITIVE_OPS = frozenset((
    "add", "add_bias", "mul", "mul_const", "tanh", "sigmoid", "mm", "mv", "vm",
    "concat", "pad_tail", "sum_rows", "mean_rows", "mean_of", "lerp_mask",
    "embedding", "embedding_bag_sum", "softmax_1d", "mask_scores", "cross_entropy"))


def public_functions(module):
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        # name id, start, end, parent span index, 1 if no enclosing span of that name
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.stack: list[int] = []
        self._depth: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._batch_rows: set[tuple] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = True

    # --- span recording ---

    def _name_id(self, name: str) -> int:
        got = self.name_ids.get(name)
        if got is None:
            got = self.name_ids[name] = len(self.names)
            self.names.append(name)
            self._depth.append(0)
        return got

    def _wrap(self, name: str, fn, after=None, before=None):
        nid = self._name_id(name)
        spans, stack, depth, clock = self.spans, self.stack, self._depth, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outer = depth[nid] == 0
            depth[nid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[nid] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, outer)
            if after is not None:
                after(args, kwargs, result)
            return result

        traced._traced = True
        traced.__wrapped__ = fn
        return traced

    def _wrap_closure(self, op: str):
        name = f"numerics.bw.{op}"

        def after(args, kwargs, out):
            bw = getattr(out, "_bw", None)
            if bw is not None and not getattr(bw, "_traced", False):
                out._bw = self._wrap(name, bw)
        return after

    # --- counters fed by wrappers ---

    def _after_build_example(self, args, kwargs, example):
        n = len(example.contexts)
        self.counts["paths.contexts_extracted"] += n
        self.maxima["paths.contexts_per_method.max"] = max(
            self.maxima["paths.contexts_per_method.max"], n)

    def _before_zero_grads(self, args, kwargs):
        self._close_batch()

    def _close_batch(self):
        if self._batch_rows:
            self.counts["model.path_rows_unique"] += len(self._batch_rows)
            self._batch_rows = set()

    def _after_encode_example(self, args, kwargs, enc):
        example = args[1] if len(args) > 1 else kwargs["example"]
        training = args[4] if len(args) > 4 else kwargs["training"]
        if not training:
            return
        self.counts["model.contexts_consumed"] += len(enc.order)
        self.counts["model.contexts_available"] += len(example.contexts)
        for i in enc.order:
            self._batch_rows.add(example.contexts[i].path_symbols)
        self.counts["model.path_rows"] += len(enc.order)

    def _after_lstm_step(self, args, kwargs, result):
        self.counts["numerics.lstm_step.rows"] += args[1].shape[0]

    def _before_backward(self, args, kwargs):
        # graph size walked by this call, counted outside the span
        loss = args[0]
        seen = {id(loss)}
        todo = [loss]
        while todo:
            for parent in todo.pop()._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        self.counts["numerics.graph_nodes"] += len(seen)

    def _after_write_records(self, args, kwargs, result):
        self.maxima["storage.bytes"] = max(self.maxima["storage.bytes"],
                                           os.path.getsize(args[0]))

    # --- installation ---

    def install(self):
        hooks = {
            "paths.build_example": (self._after_build_example, None),
            "model.encode_example": (self._after_encode_example, None),
            "numerics.zero_grads": (None, self._before_zero_grads),
            "numerics.lstm_step": (self._after_lstm_step, None),
            "numerics.backward": (None, self._before_backward),
            "storage.write_records": (self._after_write_records, None),
        }
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        replace = {}
        for short, module in zip(MODULES, modules):
            for fname, fn in public_functions(module).items():
                key = f"{short}.{fname}"
                after, before = hooks.get(key, (None, None))
                if short == "numerics" and fname in PRIMITIVE_OPS:
                    after = self._wrap_closure(fname)
                replace[id(fn)] = (fn, self._wrap(key, fn, after, before))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run untraced (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def uninstall(self):
        self._close_batch()
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # --- reporting ---

    def _array(self) -> np.ndarray:
        return np.array(self.spans, dtype=[("name", "<i4"), ("start", "<f8"), ("end", "<f8"),
                                           ("parent", "<i8"), ("outer", "?")])

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds (spans not nested in one
        of the same name) and self seconds (duration minus direct children,
        which never overlap on one thread)."""
        arr = self._array()
        n = len(self.names)
        dur = arr["end"] - arr["start"]
        nested = arr["parent"] >= 0
        child = np.zeros(len(arr))
        np.add.at(child, arr["parent"][nested], dur[nested])
        calls = np.bincount(arr["name"], minlength=n)
        total = np.bincount(arr["name"], weights=dur * arr["outer"], minlength=n)
        self_s = np.bincount(arr["name"], weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def within(self, name: str, ancestor: str) -> float:
        """Seconds spent in outermost `name` spans that run inside an
        `ancestor` span."""
        target, want = self.name_ids.get(ancestor), self.name_ids.get(name)
        if target is None or want is None:
            return 0.0
        inside = []
        total = 0.0
        for nid, start, end, parent, outer in self.spans:
            flag = nid == target or (parent >= 0 and inside[parent])
            inside.append(flag)
            if nid == want and outer and parent >= 0 and inside[parent]:
                total += end - start
        return total

    def save(self, path):
        arr = self._array()
        if len(arr):
            t0 = arr["start"].min()
            arr["start"] -= t0
            arr["end"] -= t0
        np.savez(path, spans=arr, names=np.array(self.names))
