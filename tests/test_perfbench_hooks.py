"""The benchmark's tracer wraps avenas functions by module attribute name
(``perfbench/spans.py``), the encoder-toy workload times its steps by
patching ``training.stack_batch``, and the latex-toy workload probes its
sweep from inside the runtime's ``full`` and ``early``. These tests fail when
a refactor renames one of those names or stops calling it through the module,
which would otherwise only show up as a broken ``perfbench/run.py --trace 1``."""

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from avenas import latex_runtime, search_engine, supernet, training
from avenas.cost_models import synthetic_latency_table
from avenas.latex_runtime import LatexState, TrainedEncoderRuntime
from avenas.objective import SyntheticTask, generate_sequence
from avenas.search_engine import SearchConfig, SearchRun
from avenas.supernet import conv_out_hw, layer_shapes, toy_spec
from avenas.training import TrainConfig

from helpers import micro_spec, random_arch

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HOOKED = ("backward", "composite_loss", "reweight_batch", "stack_batch")
LATEX = ("frame", "full", "early", "extrapolate", "sweep")


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_one_search_and_one_training_step():
    spec = micro_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    run = SearchRun(spec, SearchConfig(steps=1, batch_size=2, K=1, seed=0),
                    synthetic_latency_table(spec), task, frames)
    arch = random_arch(spec, np.random.default_rng(0))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        originals = list(tracer._patches)
        patched = {(owner, attr) for owner, attr, _ in originals}
        assert {(m, a) for m in (search_engine, training) for a in HOOKED} <= patched
        run.step()
        assert tracer.counts["tensor_core.nodes"] > 0
        for span in ("tensor_core.backward", "objective.composite_loss",
                     "objective.reweight_batch", "objective.stack_batch"):
            assert tracer.counts[span + ".calls"] == 1, span
        search_nodes = tracer.counts["tensor_core.nodes"]
        _, log = training.train_encoder(spec, arch, task, frames,
                                        TrainConfig(steps=1, batch_size=2, seed=0))
        assert len(log) == 1
        assert tracer.counts["tensor_core.nodes"] > search_nodes
        assert tracer.counts["objective.stack_batch.calls"] == 2
        assert tracer.counts["tensor_core.backward.calls"] == 2
    finally:
        tracer.restore()
    for owner, attr, orig in originals:
        assert getattr(owner, attr) is orig, f"{owner.__name__}.{attr} not restored"


@pytest.mark.parametrize("seed,drawn", [(0, ["skip", "skip"]), (1, ["conv", "skip"])],
                         ids=["all-skip", "conv"])
def test_traced_conv_macs_are_three_times_the_forward_convs(monkeypatch, seed, drawn):
    # the tracer reads each conv kernel's MACs from its argument shapes; every
    # forward conv of a training step has a kernel gradient of the same MACs,
    # and an input gradient too unless its input needs none (a stem's frame),
    # so three times the MACs for those convs and twice for the others; a
    # kernel signature it misreads breaks the sum. A chosen ``conv`` block
    # runs its first conv through ``conv2d_heads``, one kernel call per head
    # and batch slice, so both entry points are counted
    spec = micro_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    arch = random_arch(spec, np.random.default_rng(seed))
    assert [op for ops in arch.operators.values() for op in ops] == drawn
    forward_macs, input_grad_macs = [], []
    conv, conv_heads = supernet.conv2d, supernet.conv2d_heads

    def count(x, macs):
        forward_macs.append(macs)
        if x.requires_grad:
            input_grad_macs.append(macs)

    def counting_conv(x, kern, *args, **kwargs):
        out = conv(x, kern, *args, **kwargs)
        count(x, out.data.size * kern.data[0].size)
        return out

    def counting_conv_heads(x, heads, *args, **kwargs):
        outs = conv_heads(x, heads, *args, **kwargs)
        for (kern, _, _), out in zip(heads, outs):
            kerns = kern if isinstance(kern, (list, tuple)) else [kern]
            for k in kerns:   # one kernel call per batch slice
                count(x, out.data.size // len(kerns) * k.data[0].size)
        return outs

    monkeypatch.setattr(supernet, "conv2d", counting_conv)
    monkeypatch.setattr(supernet, "conv2d_heads", counting_conv_heads)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        training.train_encoder(spec, arch, task, frames,
                               TrainConfig(steps=1, batch_size=2, seed=0))
    finally:
        tracer.restore()
    assert 0 < len(input_grad_macs) < len(forward_macs)
    assert tracer.counts["kernels.conv2d_forward.calls"] == len(forward_macs)
    assert tracer.counts["kernels.conv2d_grad_input.calls"] == len(input_grad_macs)
    assert tracer.counts["kernels.conv_macs"] == (2 * sum(forward_macs)
                                                  + sum(input_grad_macs))


def test_traced_supernet_step_counts_every_conv_mac():
    # toy_spec searches fuse-mb, so every block runs conv and fuse-mb's
    # expand as one node over one column gather; the tracer must still see
    # each conv layer's forward, kernel-gradient and input-gradient MACs
    # (no input gradient for a stem, whose input is a frame), as counted
    # here from the supernet's layer shapes at the step's resolutions
    spec = toy_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    batch = 2
    run = SearchRun(spec, SearchConfig(steps=1, batch_size=batch, K=1, seed=0),
                    synthetic_latency_table(spec), task, frames)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        resolutions = run.step()["resolution"]
    finally:
        tracer.restore()
    side = {}                   # output side of each conv layer or block
    for view in spec.views:
        side[f"{view}/stem"] = h = conv_out_hw(resolutions[view], 2)
        side[f"{view}/early"] = conv_out_hw(h, 2)
    for b in spec.blocks(resolutions):
        side[f"{b.view}/{b.branch}/b{b.i}"] = b.h_out
    forward_macs = grad_input_macs = n_convs = n_stems = 0
    for name, shape in layer_shapes(spec).items():
        if len(shape) != 4:     # affine weights and biases
            continue
        h = side.get(name) or side[name.rpartition("/")[0]]
        macs = batch * math.prod(shape) * h * h
        forward_macs += macs
        n_convs += 1
        if name.endswith("/stem"):
            n_stems += 1
        else:
            grad_input_macs += macs
    assert tracer.counts["kernels.conv2d_forward.calls"] == n_convs
    assert tracer.counts["kernels.conv2d_grad_kernel.calls"] == n_convs
    assert tracer.counts["kernels.conv2d_grad_input.calls"] == n_convs - n_stems
    assert tracer.counts["kernels.conv_macs"] == 2 * forward_macs + grad_input_macs
    # one conv node per block for conv and fuse-mb's expand together
    n_blocks = sum(1 for _ in spec.blocks())
    assert tracer.counts["tensor_core.nodes.conv2d"] == n_convs - n_blocks


def test_traced_grouped_supernet_step_counts_every_conv_mac():
    # every view at one resolution: the views run as one group, one conv
    # node per layer for the group, yet each kernel still runs once per view
    # and layer on that view's batch slice, so the calls and MACs are those
    # of the per-view layer shapes; the conv nodes are one per layer of the
    # group, conv and fuse-mb's expand sharing one per block
    spec = toy_spec()
    spec = replace(spec, search_space=replace(spec.search_space, resolutions=(24,)))
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    batch = 2
    run = SearchRun(spec, SearchConfig(steps=1, batch_size=batch, K=1, seed=0),
                    synthetic_latency_table(spec), task, frames)
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        resolutions = run.step()["resolution"]
    finally:
        tracer.restore()
    groups = supernet.view_groups(
        spec, {v: np.zeros((batch, 1, 1, 1)) for v in spec.views}, resolutions)
    assert groups == [spec.views]
    group_of = {v: j for j, g in enumerate(groups) for v in g}
    h = conv_out_hw(24, 2)
    side = {"stem": h, "early": conv_out_hw(h, 2)}
    for b in spec.blocks(resolutions):
        side[f"{b.branch}/b{b.i}"] = b.h_out
    forward_macs = grad_input_macs = n_convs = n_stems = 0
    group_layers = set()
    for name, shape in layer_shapes(spec).items():
        if len(shape) != 4:     # affine weights and biases
            continue
        view, _, layer = name.partition("/")
        group_layers.add((group_of[view], layer))
        h = side.get(layer) or side[layer.rpartition("/")[0]]
        macs = batch * math.prod(shape) * h * h
        forward_macs += macs
        n_convs += 1
        if layer == "stem":
            n_stems += 1
        else:
            grad_input_macs += macs
    assert tracer.counts["kernels.conv2d_forward.calls"] == n_convs
    assert tracer.counts["kernels.conv2d_grad_kernel.calls"] == n_convs
    assert tracer.counts["kernels.conv2d_grad_input.calls"] == n_convs - n_stems
    assert tracer.counts["kernels.conv_macs"] == 2 * forward_macs + grad_input_macs
    group_blocks = {(group_of[b.view], b.branch, b.i) for b in spec.blocks()}
    assert tracer.counts["tensor_core.nodes.conv2d"] == len(group_layers) - len(group_blocks)
    assert len(group_layers) - len(group_blocks) < n_convs - sum(1 for _ in spec.blocks())


def test_tracer_sees_the_online_runtime_and_one_sweep(monkeypatch):
    # at threshold inf, 8 frames run: 4 warm-up inferences, 3 extrapolations
    # after an early check each, then one inference at the skip cap; the
    # sweep over [0, inf] encodes 3 chunks of at most 3 frames, each by one
    # full and one early call of the runtime, then replays its 16 decisions
    # over those arrays without a call to decide_and_step
    spec = micro_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    pixels = max(img.size for img in frames[0].images.values())
    monkeypatch.setattr(latex_runtime, "SWEEP_PIXEL_BUDGET", 3 * pixels)
    runtime = TrainedEncoderRuntime(supernet.DiscreteEncoder(
        spec, random_arch(spec, np.random.default_rng(0)), seed=0))
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        state = LatexState(window=4, threshold=float("inf"))
        decisions = [latex_runtime.decide_and_step(f, runtime, state)[2] for f in frames]
        assert decisions == ["inference"] * 4 + ["extrapolated"] * 3 + ["inference"]
        online = {part: tracer.counts[f"latex_runtime.{part}.calls"] for part in LATEX}
        zero, inf = latex_runtime.simulate_stream(frames, runtime, [0.0, float("inf")],
                                                  task.decoder)
        sweep = {part: tracer.counts[f"latex_runtime.{part}.calls"] - online[part]
                 for part in LATEX}
    finally:
        tracer.restore()
    assert zero["decisions"] == ["inference"] * 8 and inf["decisions"] == decisions
    assert online == {"frame": 8, "full": 5, "early": 3, "extrapolate": 3, "sweep": 0}
    assert sweep == {"frame": 0, "full": 3, "early": 3, "extrapolate": 3, "sweep": 1}
