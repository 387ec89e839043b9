"""Adaptive latent extrapolation for continuous encoding.

Consecutive frames are temporally redundant: on linear stretches of the latent
trajectory the next latent code is the linear continuation of the previous T.
Each frame, a cheap early prediction of the latent code is compared against
the previous output; when the difference stays under a threshold the full
encoder inference is skipped and (z, gaze, keypoints) are extrapolated from
history instead. Extrapolated values re-enter the history, so a hard rule
caps error accumulation: after 3 consecutive extrapolated frames the next
frame always runs the encoder.

Encoders take a sequence of frames and return arrays with a leading frame
axis. The online runtime passes one frame; a threshold sweep encodes the
whole stream once, up front and in batches, then replays the same decision
rule per threshold over rows of its own arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .objective import GroundTruthFrame, SurrogateDecoder
from .ranges import NONNEGATIVE, Interval, check_ranges, ranged
from .supernet import DiscreteEncoder
from .tensor_core import Tensor

MAX_CONSECUTIVE_SKIPS = 3
# pixels of one view image per encoder call in a sweep; bounds the activations
# of a batch (56 frames of 24 x 24 px, one frame of 192 x 192 px)
SWEEP_PIXEL_BUDGET = 1 << 15


class InsufficientHistoryError(ValueError):
    """Extrapolation was asked for before T frames of history exist."""


@dataclass
class HistoryEntry:
    z: np.ndarray
    g: np.ndarray
    y: dict[str, np.ndarray]
    source: str                       # "inference" | "extrapolated"


@dataclass
class LatexState:
    """Per-stream history window, skip threshold and the consecutive-skip cap;
    ``early_checks`` counts the frames on which the early head ran."""

    window: int = ranged(4, Interval(2))
    threshold: float = ranged(0.0, NONNEGATIVE)
    history: deque = field(init=False)
    consecutive_skips: int = field(default=0, init=False)
    early_checks: int = field(default=0, init=False)

    def __post_init__(self):
        check_ranges(self)
        self.history = deque(maxlen=self.window)

    def push(self, entry: HistoryEntry) -> None:
        self.history.append(entry)
        assert self.consecutive_skips <= MAX_CONSECUTIVE_SKIPS


def _extrapolate_one(last: np.ndarray, oldest: np.ndarray, window: int) -> np.ndarray:
    return last + (last - oldest) / (window - 1)


def extrapolate(history, window: int) -> tuple[np.ndarray, np.ndarray, dict]:
    """Linear continuation from the last `window` outputs, componentwise on
    latent code, gaze and keypoints."""
    if len(history) < window:
        raise InsufficientHistoryError(
            f"need {window} frames of history, have {len(history)}")
    last, oldest = history[-1], history[-window]
    z = _extrapolate_one(last.z, oldest.z, window)
    g = _extrapolate_one(last.g, oldest.g, window)
    y = {k: _extrapolate_one(last.y[k], oldest.y[k], window) for k in last.y}
    return z, g, y


class TrainedEncoderRuntime:
    """Adapts a trained single-architecture encoder to the batched interface."""

    def __init__(self, enc: DiscreteEncoder):
        self.enc = enc

    def _batch(self, frames):
        return {v: Tensor(np.stack([f.images[v] for f in frames]))
                for v in self.enc.spec.views}

    def full(self, frames):
        out = self.enc.forward(self._batch(frames))
        return out.z.data, out.g.data, {k: v.data for k, v in out.keypoints.items()}

    def early(self, frames):
        return self.enc.forward_early(self._batch(frames)).data


def _decide(state: LatexState, early, full):
    """The decision rule for one frame; returns ((z, g, y), decision).
    ``early()`` and ``full()`` give the frame's early-predicted latent and its
    (z, g, y), each called only if the rule needs it. Full inference runs
    while history is warming up, when the early-predicted latent moved farther
    than the threshold from the previous output, or when the consecutive-skip
    cap is hit; otherwise the outputs are extrapolated.
    """
    run_inference = True
    if len(state.history) >= state.window \
            and state.consecutive_skips < MAX_CONSECUTIVE_SKIPS:
        dist = float(np.linalg.norm(early() - state.history[-1].z))
        state.early_checks += 1
        run_inference = not dist <= state.threshold     # a NaN distance runs it
    if run_inference:
        z, g, y = full()
        state.consecutive_skips = 0
        decision = "inference"
    else:
        z, g, y = extrapolate(state.history, state.window)
        state.consecutive_skips += 1
        decision = "extrapolated"
    state.push(HistoryEntry(z=z, g=g, y=y, source=decision))
    return (z, g, y), decision


def decide_and_step(frame: GroundTruthFrame, encoder, state: LatexState):
    """One frame of the adaptive runtime, encoded at batch 1; returns
    ((z, g, y), state, decision)."""
    def full():
        z, g, y = encoder.full([frame])
        return z[0], g[0], {k: v[0] for k, v in y.items()}
    out, decision = _decide(state, lambda: encoder.early([frame])[0], full)
    return out, state, decision


def _frame_mse(decoder: SurrogateDecoder, z, g, truth) -> np.ndarray:
    """Per-row rendered MSE of (z, g) rows against ground-truth renderings."""
    rendered = decoder.render(decoder.geometry(z), decoder.texture(z, g))
    return np.mean((rendered - truth) ** 2, axis=1)


def simulate_stream(frames, encoder, thresholds, decoder: SurrogateDecoder,
                    window: int = 4) -> list[dict]:
    """Replay a sequence once per threshold; per-frame error is the rendered
    MSE against the frame's stored ground-truth rendering. Each report row
    counts the frames that ran the early head (``early_checks``); pricing
    them is the caller's.

    Full and early outputs do not depend on the threshold, so every frame is
    encoded once by each, before any decision runs (also a frame that no
    threshold's decisions read): in chunks of as many frames as fit a fixed
    pixel budget, one ``full`` and one ``early`` call per chunk. Per threshold
    the decision rule then replays over rows of those arrays. The inference
    rows of all thresholds are decoded in one batch, and so are the
    extrapolated rows of each threshold.
    """
    frames = list(frames)
    if not frames:
        raise ValueError("simulate_stream needs at least one frame")
    states = [LatexState(window=window, threshold=float(thr)) for thr in thresholds]
    pixels = max(img.size for img in frames[0].images.values())
    chunk = max(1, SWEEP_PIXEL_BUDGET // pixels)
    chunks = [frames[lo:lo + chunk] for lo in range(0, len(frames), chunk)]
    zs, gs, ys, early = zip(*((*encoder.full(c), encoder.early(c)) for c in chunks))
    zs, gs, early = map(np.concatenate, (zs, gs, early))
    ys = {k: np.concatenate([rows[k] for rows in ys]) for k in ys[0]}
    runs, inferred = [], {}
    for state in states:
        decisions, extrapolated = [], {}
        for i in range(len(frames)):
            (z, g, _), decision = _decide(
                state, lambda: early[i],
                lambda: (zs[i], gs[i], {k: v[i] for k, v in ys.items()}))
            decisions.append(decision)
            (inferred if decision == "inference" else extrapolated)[i] = (z, g)
        runs.append((state, decisions, extrapolated))
    truth = np.stack([f.rendered for f in frames])

    def decoded(rows: dict) -> dict:
        if not rows:
            return {}
        zs, gs = zip(*rows.values())
        mse = _frame_mse(decoder, np.stack(zs), np.stack(gs), truth[list(rows)])
        return dict(zip(rows, mse.tolist()))

    inference_mse = decoded(inferred)
    reports = []
    for state, decisions, extrapolated in runs:
        mse = {**inference_mse, **decoded(extrapolated)}
        mse_trace = [mse[i] for i in range(len(frames))]
        skips = sum(d == "extrapolated" for d in decisions)
        steady = decisions[window:]
        reports.append({
            "threshold": state.threshold,
            "skip_ratio": skips / len(frames),
            "steady_state_skip_ratio": (sum(d == "extrapolated" for d in steady)
                                        / len(steady)) if steady else 0.0,
            "mean_mse": float(np.mean(mse_trace)),
            "early_checks": state.early_checks,
            "decisions": decisions,
            "mse_trace": mse_trace,
        })
    return reports
