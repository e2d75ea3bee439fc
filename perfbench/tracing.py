"""Per-layer spans recorded from outside the program.

:class:`Tracer` wraps public functions and methods of the ``stationcast``
modules by attribute. Each wrapper records a span (name, start, end, parent
span, op id) while an op is being traced and passes straight through
otherwise. Spans stay in memory; :meth:`Tracer.metrics` turns them into the
per-layer figures at the end of a run, and :meth:`Tracer.dump` writes them
out as JSON lines.

Every figure is per traced CLI command (op), except
``autodiff.tape_nodes``, which is per ``Tensor.backward`` call, and
``explain.occlusion_useful_ratio``, which is distinct masked inputs divided
by samples forwarded inside ``occlusion_map``. Times are inclusive of child
spans unless the name ends in ``self_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from collections import Counter, defaultdict

# Per-layer metrics in report order: name -> unit.
METRIC_UNITS = {
    "autodiff.conv2d.calls": "count",
    "autodiff.conv2d.fwd_s": "s",
    "autodiff.conv2d.bwd_s": "s",
    "autodiff.backward.calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.backward.self_s": "s",
    "autodiff.tape_nodes": "count",
    "autodiff.matmul.calls": "count",
    "autodiff.matmul_s": "s",
    "layers.convlstm_step.calls": "count",
    "layers.convlstm_step_s": "s",
    "layers.encoder_s": "s",
    "layers.dense_s": "s",
    "layers.batchnorm_s": "s",
    "models.forward.calls": "count",
    "models.forward.samples": "count",
    "models.forward_s": "s",
    "training.adam_step.calls": "count",
    "training.adam_step_s": "s",
    "training.evaluate_s": "s",
    "explain.occlusion_map.calls": "count",
    "explain.occlusion_map_s": "s",
    "explain.forward_samples": "count",
    "explain.occlusion_useful_ratio": "ratio",
    "explain.score_maximize_s": "s",
    "serialize.save_s": "s",
    "serialize.load_s": "s",
    "serialize.bytes_written": "B",
    "serialize.bytes_read": "B",
    "data.load_dataset.calls": "count",
    "data.load_dataset_s": "s",
    "heatmap.svg_s": "s",
    "cli.op_s": "s",
    "trace.overhead_s": "s",
}

_OCCLUSION = "explain.occlusion_map"


class Tracer:
    """Span recorder; wrappers are installed by :meth:`install`."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, op id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None
        self._ops = 0
        self._distinct: set[bytes] = set()
        self._undo: list[tuple[object, str, object]] = []

    # -- ops and spans ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self._op = op_id
        self._ops += 1
        self._distinct = set()

    def end_op(self) -> None:
        self.counts["explain.distinct_inputs"] += len(self._distinct)
        self._op = None

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _in(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn, before=None, after=None):
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------------

    def _patch_method(self, cls, attr, name, before=None, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(name, original, before, after))
        self._undo.append((cls, attr, original))

    def _patch_function(self, module, attr, name, before=None, after=None):
        """Replace ``module.attr`` and every ``from module import attr`` copy."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, before, after)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("stationcast") and (
                mod.__dict__.get(attr) is original
            ):
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, original))

    def install(self) -> None:
        from stationcast import autodiff, data, explain, heatmap, layers, models
        from stationcast import serialize, training

        def wrap_conv_backward(out, *args, **kwargs):
            if out.node is not None:
                out.node.backward = self._wrap(
                    "autodiff.conv2d.bwd", out.node.backward
                )

        def count_tape(loss):
            seen = {id(loss)}
            stack = [loss]
            while stack:
                node = stack.pop().node
                if node is None:
                    continue
                for parent in node.parents:
                    if parent.requires_grad and id(parent) not in seen:
                        seen.add(id(parent))
                        stack.append(parent)
            self.counts["autodiff.tape_nodes"] += len(seen)

        def count_samples(model, batch, *args, **kwargs):
            array = getattr(batch, "data", batch)
            self.counts["models.forward.samples"] += array.shape[0]
            if self._in(_OCCLUSION):
                self.counts["explain.forward_samples"] += array.shape[0]
                for sample in array:
                    self._distinct.add(hashlib.blake2b(sample.tobytes()).digest())

        def count_written(result, path, *args, **kwargs):
            self.counts["serialize.bytes_written"] += os.path.getsize(path)

        def count_read(path, *args, **kwargs):
            self.counts["serialize.bytes_read"] += os.path.getsize(path)

        self._patch_function(
            autodiff, "conv2d", "autodiff.conv2d", after=wrap_conv_backward
        )
        self._patch_function(autodiff, "matmul", "autodiff.matmul")
        self._patch_method(
            autodiff.Tensor, "backward", "autodiff.backward", before=count_tape
        )
        self._patch_method(layers.ConvLSTM, "step", "layers.convlstm_step")
        self._patch_method(layers.EncoderBlock, "__call__", "layers.encoder")
        self._patch_method(layers.Dense, "__call__", "layers.dense")
        self._patch_method(layers.BatchNorm, "__call__", "layers.batchnorm")
        self._patch_method(
            models.ModelGraph, "forward", "models.forward", before=count_samples
        )
        self._patch_method(training.Adam, "step", "training.adam_step")
        self._patch_function(training, "evaluate", "training.evaluate")
        self._patch_function(explain, "occlusion_map", _OCCLUSION)
        self._patch_function(explain, "score_maximize", "explain.score_maximize")
        self._patch_function(
            serialize, "save_arrays", "serialize.save", after=count_written
        )
        self._patch_function(
            serialize, "load_arrays", "serialize.load", before=count_read
        )
        self._patch_function(data, "load_dataset", "data.load_dataset")
        self._patch_function(heatmap, "svg_heatmap", "heatmap.svg")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def metrics(self, op_s: float, overhead_s: float) -> dict[str, float]:
        """Per-layer figures, averaged over the traced ops."""
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[self.spans[parent][0]] -= end - start
        ops = max(self._ops, 1)
        per_op = {
            "autodiff.conv2d.calls": calls["autodiff.conv2d"],
            "autodiff.conv2d.fwd_s": total["autodiff.conv2d"],
            "autodiff.conv2d.bwd_s": total["autodiff.conv2d.bwd"],
            "autodiff.backward.calls": calls["autodiff.backward"],
            "autodiff.backward_s": total["autodiff.backward"],
            "autodiff.backward.self_s": self_time["autodiff.backward"],
            "autodiff.matmul.calls": calls["autodiff.matmul"],
            "autodiff.matmul_s": total["autodiff.matmul"],
            "layers.convlstm_step.calls": calls["layers.convlstm_step"],
            "layers.convlstm_step_s": total["layers.convlstm_step"],
            "layers.encoder_s": total["layers.encoder"],
            "layers.dense_s": total["layers.dense"],
            "layers.batchnorm_s": total["layers.batchnorm"],
            "models.forward.calls": calls["models.forward"],
            "models.forward.samples": self.counts["models.forward.samples"],
            "models.forward_s": total["models.forward"],
            "training.adam_step.calls": calls["training.adam_step"],
            "training.adam_step_s": total["training.adam_step"],
            "training.evaluate_s": total["training.evaluate"],
            "explain.occlusion_map.calls": calls[_OCCLUSION],
            "explain.occlusion_map_s": total[_OCCLUSION],
            "explain.forward_samples": self.counts["explain.forward_samples"],
            "explain.score_maximize_s": total["explain.score_maximize"],
            "serialize.save_s": total["serialize.save"],
            "serialize.load_s": total["serialize.load"],
            "serialize.bytes_written": self.counts["serialize.bytes_written"],
            "serialize.bytes_read": self.counts["serialize.bytes_read"],
            "data.load_dataset.calls": calls["data.load_dataset"],
            "data.load_dataset_s": total["data.load_dataset"],
            "heatmap.svg_s": total["heatmap.svg"],
        }
        result = {name: value / ops for name, value in per_op.items()}
        backwards = calls["autodiff.backward"]
        result["autodiff.tape_nodes"] = (
            self.counts["autodiff.tape_nodes"] / backwards if backwards else 0.0
        )
        forwarded = self.counts["explain.forward_samples"]
        result["explain.occlusion_useful_ratio"] = (
            self.counts["explain.distinct_inputs"] / forwarded if forwarded else 0.0
        )
        result["cli.op_s"] = op_s
        result["trace.overhead_s"] = overhead_s
        return {name: float(result[name]) for name in METRIC_UNITS}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self.spans:
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent,
                    "op": op,
                }
                handle.write(json.dumps(record) + "\n")
