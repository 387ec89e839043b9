"""The benchmark's tracer wraps avenas functions by module attribute name
(``perfbench/spans.py``), and the encoder-toy workload times its steps by
patching ``training.stack_batch``. These tests fail when a refactor renames
one of those names or stops calling it through the module, which would
otherwise only show up as a broken ``perfbench/run.py --trace 1``."""

import importlib.util
from pathlib import Path

import numpy as np

from avenas import search_engine, supernet, training
from avenas.cost_models import synthetic_latency_table
from avenas.objective import SyntheticTask, generate_sequence
from avenas.search_engine import SearchConfig, SearchRun
from avenas.supernet import micro_spec, random_arch
from avenas.training import TrainConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
HOOKED = ("backward", "composite_loss", "reweight_batch", "stack_batch")


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


def test_traced_conv_macs_are_three_times_the_forward_convs(monkeypatch):
    # the tracer reads each conv kernel's MACs from its argument shapes; every
    # forward conv of a training step has a kernel gradient of the same MACs,
    # and an input gradient too unless its input needs none (a stem's frame),
    # so three times the MACs for those convs and twice for the others; a
    # kernel signature it misreads breaks the sum
    spec = micro_spec()
    task = SyntheticTask(spec, seed=7)
    frames = generate_sequence(task, seed=8, n_frames=8)
    arch = random_arch(spec, np.random.default_rng(0))
    forward_macs, input_grad_macs = [], []
    conv = supernet.conv2d

    def counting_conv(x, kern, *args, **kwargs):
        out = conv(x, kern, *args, **kwargs)
        macs = out.data.size * kern.data[0].size
        forward_macs.append(macs)
        if x.requires_grad:
            input_grad_macs.append(macs)
        return out

    monkeypatch.setattr(supernet, "conv2d", counting_conv)
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
