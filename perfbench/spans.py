"""Span tracer that measures avenas's layers from outside the package.

Every wrapper replaces one public function (or method) of an avenas module
with a closure that records a span around the original call: name, start,
end, parent span and the step or frame id current at the time. Spans stay
in memory and are written out once, when the run ends. Nothing under
``src/`` is modified; ``Tracer.restore`` puts every original back.

Some callers bind names at import time (``from .tensor_core import
backward``), so those names are wrapped in the caller's module, not in the
module that defines them.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter

CONV_KERNELS = ("conv2d_forward", "conv2d_grad_input", "conv2d_grad_kernel")
# resize_bilinear_grad is left out: input frames never need a gradient
KERNELS = CONV_KERNELS + ("resize_bilinear",)

NODE_KINDS = ("leaf", "matmul", "conv2d", "relu", "silu", "add", "mul", "scale",
              "concat", "global_avg_pool", "softmax", "exp", "mse", "l2norm",
              "reshape", "resize_bilinear")
BLOCK_COLUMNS = ("left_eye.backbone", "left_eye.latent", "left_eye.gaze",
                 "left_eye.keypoint", "right_eye.backbone", "right_eye.latent",
                 "right_eye.gaze", "right_eye.keypoint", "mouth.backbone",
                 "mouth.latent")


def _conv_cost(kind: str, args) -> tuple[int, int]:
    """(MACs, bytes touched) of one conv kernel call, computed from shapes.

    Bytes count every float64 operand read and the result written once; cache
    behaviour is ignored, so this is a computed figure, not a measured one.
    """
    if kind == "conv2d_forward":
        xp, kern, stride = args[:3]
        b, ci, hp, wp = xp.shape
        co, _, kh, kw = kern.shape
        ho, wo = (hp - kh) // stride + 1, (wp - kw) // stride + 1
        out = b * co * ho * wo
        return out * ci * kh * kw, 8 * (xp.size + kern.size + out)
    if kind == "conv2d_grad_input":
        gout, kern, _, hp, wp = args[:5]
        b, co, ho, wo = gout.shape
        _, ci, kh, kw = kern.shape
        return (b * co * ho * wo * ci * kh * kw,
                8 * (gout.size + kern.size + b * ci * hp * wp))
    xp, gout, _, kh, kw = args[:5]
    b, co, ho, wo = gout.shape
    ci = xp.shape[1]
    return (b * co * ho * wo * ci * kh * kw,
            8 * (xp.size + gout.size + co * ci * kh * kw))


class Tracer:
    """In-memory span recorder plus deterministic work counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list] = []          # [name id, start, end, parent, unit]
        self._stack: list[int] = []
        self.unit = -1                        # current step / frame id
        self.counts: Counter = Counter()      # must repeat exactly per seed
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        rec = [nid, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.unit]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        self.counts[name + ".calls"] += 1
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, make):
        orig = getattr(owner, attr)
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, make(orig))

    def wrap(self, owner, attr: str, name: str, before=None):
        """Record ``name`` around every call of ``owner.attr``; ``before``
        sees the arguments first (for counters that depend on them)."""
        def make(orig):
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                return self.call(name, orig, args, kwargs)
            return wrapper
        self._patch(owner, attr, make)

    def restore(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        from avenas import (cost_models, kernels, latex_runtime, objective,
                            search_engine, supernet, training)

        def conv_cost(kind):
            def count(args):
                macs, nbytes = _conv_cost(kind, args)
                self.counts["kernels.conv_macs"] += macs
                self.counts["kernels.conv_bytes"] += nbytes
            return count

        for k in KERNELS:
            self.wrap(kernels, k, f"kernels.{k}",
                      conv_cost(k) if k in CONV_KERNELS else None)

        def count_nodes(args):
            nodes = args[0].nodes
            self.counts["tensor_core.nodes"] += len(nodes)
            for node in nodes:
                self.counts["tensor_core.nodes." + node.kind] += 1

        for mod in (search_engine, training):
            self.wrap(mod, "backward", "tensor_core.backward", count_nodes)
            self.wrap(mod, "composite_loss", "objective.composite_loss")
            self.wrap(mod, "reweight_batch", "objective.reweight_batch")
            self.wrap(mod, "stack_batch", "objective.stack_batch")

        self.wrap(search_engine, "supernet_forward", "supernet.forward")
        self.wrap(supernet.DiscreteEncoder, "forward", "supernet.forward")
        self.wrap(supernet.DiscreteEncoder, "forward_early", "supernet.forward_early")
        self.wrap(search_engine, "gumbel_weights", "supernet.gumbel_weights")

        def block(orig):
            def wrapper(*args, **kwargs):
                # positional call site: (x, ow, cw, spec, weights, view, branch, ...)
                name = f"supernet.mixed_block.{args[5]}.{args[6]}"
                return self.call(name, orig, args, kwargs)
            return wrapper
        self._patch(supernet, "mixed_block_forward", block)

        for m in ("geometry", "texture", "render"):
            self.wrap(objective.SurrogateDecoder, m, "objective.decoder")

        self.wrap(search_engine, "expected_latency", "search_engine.expected_latency")
        self.wrap(search_engine.Adam, "step", "search_engine.adam")
        self.wrap(search_engine.ResolutionSearch, "begin_window",
                  "search_engine.res_windows")
        self.wrap(cost_models.LatencyTable, "query", "cost_models.lut_query")

        self.wrap(latex_runtime.TrainedEncoderRuntime, "full", "latex_runtime.full")
        self.wrap(latex_runtime.TrainedEncoderRuntime, "early", "latex_runtime.early")
        self.wrap(latex_runtime, "extrapolate", "latex_runtime.extrapolate")
        self.wrap(latex_runtime, "simulate_stream", "latex_runtime.sweep")

        def frame(orig):
            def wrapper(*args, **kwargs):
                self.unit += 1
                return self.call("latex_runtime.frame", orig, args, kwargs)
            return wrapper
        self._patch(latex_runtime, "decide_and_step", frame)

    # -- summaries ---------------------------------------------------------

    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the part covered by direct children)."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for i, (nid, t0, t1, _, _) in enumerate(self.spans):
            a = out.setdefault(self.names[nid], {"calls": 0, "s": 0.0, "self_s": 0.0})
            a["calls"] += 1
            a["s"] += t1 - t0
            a["self_s"] += t1 - t0 - child[i]
        return out

    def write(self, path, meta: dict) -> None:
        """Spans as [name, start ns, end ns, parent index, step/frame id]."""
        base = self.spans[0][1] if self.spans else 0.0
        doc = {"meta": meta, "names": self.names,
               "spans": [[nid, round((t0 - base) * 1e9), round((t1 - base) * 1e9),
                          parent, unit]
                         for nid, t0, t1, parent, unit in self.spans]}
        with gzip.open(path, "wt") as f:
            json.dump(doc, f, separators=(",", ":"))


def layer_metrics(tracer: Tracer, tally, skips, training: bool) -> dict:
    """Per-layer figures of one traced pass, as ``{name: (value, unit)}``,
    per unit of ``tally.norm`` (a search or training step, or a LAteX
    segment). ``skips`` are the online LAteX decisions (True = extrapolated);
    ``training`` says whether ``tally.op_s`` holds training steps."""
    agg = tracer.aggregate()
    n = max(tally.norm, 1)

    def ms(name, key="s"):
        return agg.get(name, {}).get(key, 0.0) * 1e3 / n

    def calls(name):
        return tracer.counts[name + ".calls"] / n

    out = {}
    for k in KERNELS:
        out[f"kernels.{k}.calls"] = (calls(f"kernels.{k}"), "count")
        out[f"kernels.{k}.ms"] = (ms(f"kernels.{k}"), "ms")
    conv_s = sum(agg.get(f"kernels.{k}", {}).get("s", 0.0) for k in CONV_KERNELS)
    kernel_s = sum(agg.get(f"kernels.{k}", {}).get("s", 0.0) for k in KERNELS)
    macs = tracer.counts["kernels.conv_macs"]
    out["kernels.conv_gmacs"] = (macs / 1e9 / n, "GMAC")
    out["kernels.conv_mbytes"] = (tracer.counts["kernels.conv_bytes"] / 1e6 / n, "MB")
    out["kernels.conv_gmac_per_s"] = (macs / 1e9 / conv_s if conv_s else 0.0, "GMAC/s")
    out["kernels.share"] = (kernel_s / tally.wall_s if tally.wall_s else 0.0, "ratio")

    out["tensor_core.nodes"] = (tracer.counts["tensor_core.nodes"] / n, "count")
    for kind in NODE_KINDS:
        out[f"tensor_core.nodes.{kind}"] = (tracer.counts[f"tensor_core.nodes.{kind}"] / n,
                                            "count")
    out["tensor_core.backward.ms"] = (ms("tensor_core.backward"), "ms")
    out["tensor_core.backward.self_ms"] = (ms("tensor_core.backward", "self_s"), "ms")

    out["supernet.forward.ms"] = (ms("supernet.forward"), "ms")
    out["supernet.forward.self_ms"] = (ms("supernet.forward", "self_s"), "ms")
    out["supernet.forward_early.calls"] = (calls("supernet.forward_early"), "count")
    out["supernet.forward_early.ms"] = (ms("supernet.forward_early"), "ms")
    for vb in BLOCK_COLUMNS:
        out[f"supernet.mixed_block.ms.{vb}"] = (ms(f"supernet.mixed_block.{vb}"), "ms")
    out["supernet.gumbel_weights.calls"] = (calls("supernet.gumbel_weights"), "count")
    out["supernet.gumbel_weights.ms"] = (ms("supernet.gumbel_weights"), "ms")

    for f in ("composite_loss", "reweight_batch", "stack_batch", "decoder"):
        out[f"objective.{f}.ms"] = (ms(f"objective.{f}"), "ms")

    out["search_engine.expected_latency.ms"] = (ms("search_engine.expected_latency"), "ms")
    out["search_engine.adam.ms"] = (ms("search_engine.adam"), "ms")
    out["search_engine.res_windows"] = (calls("search_engine.res_windows"), "count")
    out["cost_models.lut_query.calls"] = (calls("cost_models.lut_query"), "count")
    out["cost_models.lut_query.ms"] = (ms("cost_models.lut_query"), "ms")

    out["training.step.ms"] = (sum(tally.op_s) * 1e3 / len(tally.op_s)
                               if training and tally.op_s else 0.0, "ms")

    for part in ("full", "early", "extrapolate"):
        out[f"latex_runtime.{part}.calls"] = (calls(f"latex_runtime.{part}"), "count")
        out[f"latex_runtime.{part}.ms"] = (ms(f"latex_runtime.{part}"), "ms")
    out["latex_runtime.skip_ratio"] = (sum(skips) / len(skips) if skips else 0.0, "ratio")
    out["latex_runtime.sweep.ms"] = (ms("latex_runtime.sweep"), "ms")
    return out
