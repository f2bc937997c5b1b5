"""Outside-in span tracer for the afm package.

The tracer replaces public afm functions and methods with wrappers that
record one span per call: name, start, end and parent span. Spans stay in
memory until the benchmark summarises or writes them. Nothing in
``src/afm`` knows about the tracer; every wrapper is installed on the
attribute its caller looks up, and ``uninstall`` puts the original objects
back.

Some wrappers also add computed counts (matmul flops from shapes, selector
bytes, file sizes). Those are counted, not timed, and repeat exactly for a
fixed seed.
"""

from __future__ import annotations

import collections
import functools
import gzip
import json
import os
import time
import weakref

PRIMITIVES = ("matmul", "add", "smul", "mul", "concat_last", "sum_reduce",
              "mean", "relu", "sigmoid", "softmax", "log", "reciprocal")
LAYERS = ("tensor", "model", "grouping", "mixing", "training", "data",
          "checkpoint", "cli")
# A constant matmul operand up to this size is scanned for 0/1 entries;
# larger ones count as selectors only if member_selectors returned them.
_SCAN_LIMIT = 4096


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._selectors: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    # -- recording ---------------------------------------------------------

    def reset(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []

    def _wrap(self, name, fn, after=None):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def install(self, afm):
        """Wrap the afm entry points; ``afm`` is a namespace of its modules."""
        tensor, training, cli = afm.tensor, afm.training, afm.cli
        targets = [(tensor, p, f"tensor.{p}", None) for p in PRIMITIVES]
        targets[0] = (tensor, "matmul", "tensor.matmul", self._count_matmul)
        targets += [
            (tensor, "backward", "tensor.backward", None),
            (training, "backward", "tensor.backward", None),
            (afm.model.Model, "extract_features", "model.extract_features", None),
            (afm.model.Model, "classify", "model.classify", None),
            (afm.model.Model, "inference_predict", "model.inference_predict", None),
            (training, "sample_groups", "grouping.sample_groups", self._count_groups),
            (cli, "sample_groups", "grouping.sample_groups", self._count_groups),
            (training, "attend", "grouping.attend", None),
            (cli, "attend", "grouping.attend", None),
            (afm.grouping, "member_selectors", "grouping.member_selectors",
             self._count_selectors),
            (afm.mixing, "member_selectors", "grouping.member_selectors",
             self._count_selectors),
            (training, "interpolate", "mixing.interpolate", None),
            (cli, "interpolate", "mixing.interpolate", None),
            (training, "train", "training.train", None),
            (training, "compute_loss", "training.compute_loss", None),
            (training.SGD, "step", "training.sgd_step", None),
            (training, "save_state", "training.save_state", None),
            (cli, "load_state", "training.load_state", None),
            (afm.data, "generate", "data.generate", None),
            (afm.data, "inject_noise", "data.inject_noise", None),
            (afm.data, "save_dataset", "data.save_dataset", None),
            (cli, "load_dataset", "data.load_dataset", None),
            (training, "read_arrays", "checkpoint.read_arrays",
             self._file_bytes("checkpoint.read_arrays.bytes")),
            (afm.data, "read_arrays", "checkpoint.read_arrays",
             self._file_bytes("checkpoint.read_arrays.bytes")),
            (training, "write_arrays", "checkpoint.write_arrays",
             self._file_bytes("checkpoint.write_arrays.bytes")),
            (afm.data, "write_arrays", "checkpoint.write_arrays",
             self._file_bytes("checkpoint.write_arrays.bytes")),
            (cli, "cmd_dump_features", "cli.dump_features", self._count_csv),
        ]
        for owner, attr, name, after in targets:
            original = vars(owner)[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, after))

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; return the ones left wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        left = [f"{getattr(owner, '__name__', owner)}.{attr}"
                for owner, attr, original in self._patched
                if vars(owner)[attr] is not original]
        self._patched = []
        return left

    # -- computed counts ---------------------------------------------------

    def _is_selector(self, t) -> bool:
        if t.requires_grad:
            return False
        v = t.values
        if self._selectors.get(id(v)) is v:
            return True
        return v.size <= _SCAN_LIMIT and bool(((v == 0.0) | (v == 1.0)).all())

    def _count_matmul(self, args, result):
        a, b = args
        m, k = a.values.shape
        flops = 2 * m * k * b.values.shape[1]
        self.counts["tensor.matmul.flops"] += flops
        if self._is_selector(a) or self._is_selector(b):
            self.counts["selector_flops"] += flops

    def _count_groups(self, args, result):
        self.counts["grouping.groups"] += len(result)

    def _count_selectors(self, args, result):
        for s in result:
            self._selectors[id(s)] = s
            self.counts["grouping.selector_bytes"] += s.nbytes

    def _file_bytes(self, key):
        def after(args, result):
            self.counts[key] += os.path.getsize(args[0])
        return after

    def _count_csv(self, args, result):
        self.counts["cli.csv_bytes"] += os.path.getsize(args[0].out)

    # -- summaries ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its child spans."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; per
        layer: self seconds; plus the computed counts."""
        by_name: dict[str, list] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), own in zip(self.spans, self.self_times()):
            row = by_name.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
            layer_self[name.split(".", 1)[0]] += own
        return {"spans": by_name, "layer_self_s": layer_self,
                "counts": dict(self.counts)}

    def within(self, outer: str) -> tuple[float, dict, int]:
        """For the first span named ``outer``: its duration, the self times
        of it and every span inside it summed per layer, and the number of
        primitive calls inside it."""
        own = self.self_times()
        for i, (name, start, end, _) in enumerate(self.spans):
            if name == outer:
                break
        else:
            return 0.0, {}, 0
        layer_self = dict.fromkeys(LAYERS, 0.0)
        prims = 0
        prim_names = {f"tensor.{p}" for p in PRIMITIVES}
        for j in range(i, len(self.spans)):
            name, s, e, _ = self.spans[j]
            if s > end:
                break
            layer_self[name.split(".", 1)[0]] += own[j]
            prims += name in prim_names
        return end - start, layer_self, prims

    def write(self, path):
        """Write the recorded spans as gzip-compressed JSON."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        payload = {"names": names,
                   "fields": ["name", "start_s", "end_s", "parent"],
                   "spans": [[index[n], round(s - t0, 9), round(e - t0, 9), p]
                             for n, s, e, p in self.spans]}
        with gzip.open(path, "wt") as f:
            json.dump(payload, f, separators=(",", ":"))
