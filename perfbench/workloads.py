"""The benchmark's workloads: closed loops driven from one process.

Each workload turns the seed into a run configuration and builds its inputs
the way the command-line tool does (``avenas gen-data`` writes the latency
table and the frame stream, which are then loaded back), so the program only
ever sees inputs generated from the seed. That set-up is what ``setup_s``
times. A workload then runs *units* (a search step, a chunk of training
steps, or one LAteX segment) and checks every output it produces.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from avenas import cli, latex_runtime, training
from avenas.cost_models import load_latency_table
from avenas.latex_runtime import (
    MAX_CONSECUTIVE_SKIPS, LatexState, TrainedEncoderRuntime,
)
from avenas.objective import load_sequence
from avenas.search_engine import SearchRun, minimal_latency
from avenas.supernet import DiscreteEncoder, SampledArch, validate_arch
from calibrate import NOMINAL_S, PROBE_EVERY_S, probe

TOY_DATA = {"keyframe_rate": 0.05, "noise_level": 0.005, "extreme_fraction": 0.03}


@dataclass
class Tally:
    """What one measured phase did: per-operation latencies, throughput of
    each unit, and how many checked operations were attempted and failed."""

    op_s: list[float] = field(default_factory=list)
    rates: list[float] = field(default_factory=list)   # ops per second, per unit
    probe_s: list[float] = field(default_factory=list)  # see calibrate.py
    probing: bool = False
    units: int = 0
    norm: int = 0                 # per-layer metrics are reported per this
    wall_s: float = 0.0           # total time inside units, probes excluded
    probe_wall_s: float = 0.0     # total time spent probing
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    _last_probe: float = float("-inf")

    def between_ops(self) -> None:
        """Called between timed ops: runs the speed probe if the last one
        is at least ``PROBE_EVERY_S`` old."""
        t0 = time.perf_counter()
        if self.probing and t0 - self._last_probe >= PROBE_EVERY_S:
            self.probe_s.append(probe())
            self._last_probe = time.perf_counter()
            self.probe_wall_s += self._last_probe - t0

    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran this phase
        (the median probe over its nominal time); 1 when not probing."""
        return statistics.median(self.probe_s) / NOMINAL_S if self.probe_s else 1.0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(what)


def reference_arch(spec, resolution: int = 16) -> SampledArch:
    """All-``conv``, full-width architecture at one input resolution."""
    ops, scales = {}, {}
    for view, branch, i, *_ in spec.blocks():
        ops.setdefault((view, branch), []).append("conv")
        scales.setdefault((view, branch), []).append(1.0)
    return SampledArch(operators=ops, channel_scales=scales,
                       resolutions={v: resolution for v in spec.views})


def _gen_data(doc: dict, workdir: Path) -> cli.RunConfig:
    """Write the config, run ``gen-data`` on it and return the parsed config."""
    workdir.mkdir(parents=True, exist_ok=True)
    doc = dict(doc, paths={"out_dir": str(workdir)})
    cfg_path = workdir / "config.json"
    cfg_path.write_text(json.dumps(doc))
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        code = cli.main(["--config", str(cfg_path), "gen-data"])
    if code != 0:
        raise RuntimeError(f"gen-data exited with {code}")
    return cli.RunConfig.load(cfg_path)


class Workload:
    name = ""
    loop: dict = {}               # the benchmark's own loop settings
    calibrated = True             # timings scaled by the host-speed probe (calibrate.py)

    def config(self, seed: int) -> dict:
        """The ``avenas`` run configuration the inputs are built from."""
        raise NotImplementedError

    def setup(self, seed: int, workdir: Path):
        """Build every input from the seed; timed as ``setup_s``."""
        raise NotImplementedError

    def prepare(self, st) -> None:
        """Untimed work after set-up that the checks need."""

    def unit(self, st, tally: Tally, tracer) -> None:
        raise NotImplementedError

    def finish(self, st, tally: Tally) -> None:
        """Checks on the state a whole run leaves behind."""


class Search(Workload):
    """``SearchRun.step()`` in a closed loop; one unit is ``steps_per_unit``
    steps."""

    def config(self, seed):
        return {"seed": seed, "profile": self.profile, "dims": self.dims,
                "data": dict(TOY_DATA, synthesize_lut=True, stream_frames=1,
                             **self.pool),
                "search": self.search}

    def setup(self, seed, workdir):
        cfg = _gen_data(self.config(seed), workdir)
        spec = cfg.build_spec()
        task = cfg.build_task(spec)
        lut = load_latency_table(cfg.latency_table)
        lut.validate_coverage(spec)
        run = SearchRun(spec, cfg.search_config(), lut, task, cfg.train_pool(task),
                        cfg.loss_weights)
        return {"run": run, "spec": spec, "lut": lut}

    def prepare(self, st):
        st["min_latency"] = minimal_latency(st["spec"], st["lut"])

    def unit(self, st, tally, tracer):
        run = st["run"]
        spent = 0.0
        for _ in range(self.steps_per_unit):
            tally.between_ops()
            if tracer is not None:
                tracer.unit = run.step_idx
            t0 = time.perf_counter()
            m = run.step()
            dt = time.perf_counter() - t0
            spent += dt
            tally.op_s.append(dt)
            tally.check(math.isfinite(m["f"]), f"step {m['step']}: objective {m['f']}")
            # a convex mix of table entries can undershoot the minimum only by
            # floating-point rounding
            tally.check(m["latency_ms"] >= st["min_latency"] * (1 - 1e-12),
                        f"step {m['step']}: latency {m['latency_ms']} below the "
                        f"reachable minimum {st['min_latency']}")
        tally.rates.append(self.steps_per_unit / spent)
        tally.norm += self.steps_per_unit

    def finish(self, st, tally):
        try:
            validate_arch(st["spec"], st["run"].derive())
            ok, what = True, ""
        except ValueError as e:
            ok, what = False, f"derive(): {e}"
        tally.check(ok, what)


class SearchToy(Search):
    name = "search-toy"
    steps_per_unit = 16           # one resolution window
    # one resolution: with the 12/16/24 px ladder the resolutions the search
    # learns to sample, and so step time, depend on the seed (28 % apart)
    profile, dims = "toy-dims", {"resolutions": [16]}
    pool = {"n_sequences": 32, "frames_per_sequence": 32}
    search = {"steps": 2000, "batch_size": 16, "K": 16, "lr": 0.003,
              "lr_res": 0.02, "lambda_lat": 0.05, "gumbel_temperature": 2.0,
              "gumbel_anneal": 0.95, "gumbel_anneal_every": 50, "gumbel_min": 0.3}
    loop = {"steps_per_unit": steps_per_unit}


class SearchPaper(Search):
    name = "search-paper"
    calibrated = False            # step time follows the probe only a third as much
    steps_per_unit = 1
    profile, dims = "paper-dims", {"resolutions": [96]}
    pool = {"n_sequences": 4, "frames_per_sequence": 8}
    search = {"steps": 50000, "batch_size": 1, "K": 16, "lr": 0.001,
              "lambda_lat": 0.05, "latency_budget_ms": 5.0}
    loop = {"steps_per_unit": steps_per_unit}


class EncoderToy(Workload):
    """``train_encoder`` on the toy all-conv encoder; one unit is one call
    of ``CHUNK`` steps, each step timed from its batch collation to the next."""

    name = "encoder-toy"
    CHUNK = 16
    loop = {"arch": "all conv, full width, 16 px", "steps_per_call": CHUNK}

    def config(self, seed):
        return {"seed": seed, "profile": "toy-dims",
                "data": dict(TOY_DATA, stream_frames=1, n_sequences=32,
                             frames_per_sequence=32),
                "train": {"steps": self.CHUNK, "batch_size": 16, "lr": 0.004,
                          "log_every": 1}}

    def setup(self, seed, workdir):
        cfg = _gen_data(self.config(seed), workdir)
        spec = cfg.build_spec()
        task = cfg.build_task(spec)
        return {"spec": spec, "task": task, "frames": cfg.train_pool(task),
                "arch": reference_arch(spec), "cfg": cfg.train_config(),
                "loss_weights": cfg.loss_weights}

    def unit(self, st, tally, tracer):
        starts, ends = [], []
        collate = training.stack_batch

        def clock(frames):
            if starts:
                ends.append(time.perf_counter())
                tally.between_ops()
            starts.append(time.perf_counter())
            if tracer is not None:
                tracer.unit += 1
            return collate(frames)

        training.stack_batch = clock
        try:
            _, log = training.train_encoder(st["spec"], st["arch"], st["task"],
                                            st["frames"], st["cfg"],
                                            st["loss_weights"])
        finally:
            ends.append(time.perf_counter())
            training.stack_batch = collate
        steps = [b - a for a, b in zip(starts, ends)]
        tally.op_s.extend(steps)
        tally.rates.append(len(steps) / sum(steps))
        tally.norm += len(starts)
        tally.check(len(log) == self.CHUNK, f"{len(log)} log rows for {self.CHUNK} steps")
        for row in log:
            tally.check(math.isfinite(row["loss"]), f"step {row['step']}: loss {row['loss']}")


class ProbedRuntime(TrainedEncoderRuntime):
    """The runtime with the speed probe run before each inference, so a
    ``simulate_stream`` sweep, seconds long, is probed from inside."""

    def __init__(self, enc, tally: Tally):
        super().__init__(enc)
        self.tally = tally

    def full(self, frame):
        self.tally.between_ops()
        return super().full(frame)

    def early(self, frame):
        self.tally.between_ops()
        return super().early(frame)


class LatexToy(Workload):
    """LAteX on the toy all-conv encoder at batch 1, forward only. One unit
    is one segment of the frame stream: the online loop at threshold inf,
    then one ``simulate_stream`` sweep over thresholds [0, inf] on the same
    frames, checked against each other."""

    name = "latex-toy"
    STREAM, SEGMENT, WINDOW = 600, 120, 4
    THRESHOLDS = (0.0, math.inf)
    loop = {"arch": "all conv, full width, 16 px", "segment_frames": SEGMENT,
            "window": WINDOW, "thresholds": ["0", "inf"]}

    def config(self, seed):
        return {"seed": seed, "profile": "toy-dims",
                "data": dict(TOY_DATA, stream_frames=self.STREAM)}

    def setup(self, seed, workdir):
        cfg = _gen_data(self.config(seed), workdir)
        spec = cfg.build_spec()
        task = cfg.build_task(spec)
        enc = DiscreteEncoder(spec, reference_arch(spec), seed=cfg.train_config().seed)
        return {"stream": load_sequence(cfg.sequence_path), "decoder": task.decoder,
                "runtime": TrainedEncoderRuntime(enc), "next": 0}

    def unit(self, st, tally, tracer):
        stream, dec, rt = st["stream"], st["decoder"], st["runtime"]
        lo = st["next"] * self.SEGMENT % len(stream)
        st["next"] += 1
        seg = stream[lo:lo + self.SEGMENT]
        state = LatexState(window=self.WINDOW, threshold=math.inf)
        decisions, mses, run = [], [], 0
        for f in seg:
            tally.between_ops()
            t0 = time.perf_counter()
            (z, g, _), state, d = latex_runtime.decide_and_step(f, rt, state)
            rendered = dec.render(dec.geometry(z), dec.texture(z, g))
            mses.append(float(np.mean((rendered - f.rendered) ** 2)))
            tally.op_s.append(time.perf_counter() - t0)
            decisions.append(d)
            run = run + 1 if d == "extrapolated" else 0
            tally.check(run <= MAX_CONSECUTIVE_SKIPS,
                        f"frame {lo + len(decisions) - 1}: {run} consecutive skips")
        tally.between_ops()
        t0, probing = time.perf_counter(), tally.probe_wall_s
        rows = latex_runtime.simulate_stream(seg, ProbedRuntime(rt.enc, tally),
                                             self.THRESHOLDS, dec, window=self.WINDOW)
        dt = time.perf_counter() - t0 - (tally.probe_wall_s - probing)
        tally.rates.append(len(seg) * len(self.THRESHOLDS) / dt)
        tally.norm += 1
        st.setdefault("skips", []).extend(d == "extrapolated" for d in decisions)
        zero, inf = rows
        tally.check(len(zero["decisions"]) == len(inf["decisions"]) == len(seg),
                    f"segment at {lo}: sweep returned {len(zero['decisions'])} and "
                    f"{len(inf['decisions'])} decisions for {len(seg)} frames")
        tally.check(zero["steady_state_skip_ratio"] == 0.0,
                    f"segment at {lo}: threshold 0 steady skip ratio "
                    f"{zero['steady_state_skip_ratio']}")
        tally.check(inf["steady_state_skip_ratio"] == 0.75,
                    f"segment at {lo}: threshold inf steady skip ratio "
                    f"{inf['steady_state_skip_ratio']}")
        for i, (d0, d, m, ms) in enumerate(zip(zero["decisions"], inf["decisions"],
                                               inf["mse_trace"], mses)):
            tally.check(d0 == "inference", f"frame {lo + i}: threshold 0 decided {d0}")
            tally.check(d == decisions[i] and abs(m - ms) <= 1e-9 * max(abs(m), abs(ms)),
                        f"frame {lo + i}: sweep ({d}, {m!r}) != online "
                        f"({decisions[i]}, {ms!r})")


WORKLOADS = {w.name: w for w in (SearchToy(), SearchPaper(), EncoderToy(), LatexToy())}
