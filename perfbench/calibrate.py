"""Host-speed probe for the benchmark's calibrated timings.

On a shared host the speed the benchmark gets moves by up to 1.7x within
seconds and between runs, because other tenants share the cores: the same
training step took 48 ms in one run and 81 ms in the next. No in-run
averaging removes that. The probe is a fixed piece of work independent of
avenas, of the kind that dominates the toy workloads: the im2col copy and
the tall, skinny GEMM of one 3x3 convolution over a batch of 16 feature maps
of 16x16 px, 8 channels in and 16 out. It runs between the ops of a
calibrated workload, at most every ``PROBE_EVERY_S`` of work, and between
set-ups, and a phase's timing metrics are expressed at the reference speed:

    calibrated time = measured time * NOMINAL_S / median probe time

Both medians cover the same stretch of the run, so a change to avenas moves
the calibrated figure by the same proportion as the raw one, while the
host's speed cancels. Raw figures are printed as well. ``search-paper`` is
reported raw: its step time moved only a third as much as the probe across
runs, so scaling it would add noise.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.0014     # reference speed: the median probe on a 2-vCPU 2.1 GHz Xeon VM
PROBE_EVERY_S = 0.1
REPS = 3               # the first is a warm-up and is dropped

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((16, 8, 18, 18))     # padded input
_W = _rng.standard_normal((8 * 3 * 3, 16))


def _once() -> float:
    win = np.lib.stride_tricks.sliding_window_view(_X, (3, 3), axis=(2, 3))
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(16 * 16 * 16, 8 * 3 * 3)
    return float((cols @ _W).sum())


def probe() -> float:
    """Seconds of one probe repetition at the host's current speed."""
    ts = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _once()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts[1:])
