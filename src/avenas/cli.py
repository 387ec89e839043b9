"""Command-line entry point driving the whole pipeline from one config file.

Subcommands: gen-data, search, train, eval, simulate, flops, latency. The
config is schema-closed (unknown keys are rejected) and, together with the
seed, fully determines every artifact: repeated runs write byte-identical
files. Exit codes: 0 success, 2 validation error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
import typing
from pathlib import Path

import numpy as np

from .cost_models import (
    count_flops, early_head_mflops, load_latency_table,
    score_arch, synthetic_latency_table,
)
from .latex_runtime import TrainedEncoderRuntime, simulate_stream
from .objective import (
    LossWeights, SyntheticTask, generate_pool, generate_sequence, load_sequence,
    save_sequence, toy_loss_weights,
)
from .search_engine import SearchConfig, SearchError, run_search
from .serialize import atomic_write
from .supernet import SampledArch, SupernetSpec, paper_spec, toy_spec, validate_arch
from .training import (
    TrainConfig, evaluate_encoder, load_weights, save_weights, train_encoder,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a config field's annotation: an int field
    takes ints but not bools, a float field ints or floats but not NaN
    (infinities are valid values), a ``list[int]`` field a list of ints."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if args:
        return any(_fits(value, a) for a in args)
    if hint is float:
        return _is_int(value) or isinstance(value, float) and not math.isnan(value)
    if hint is int:
        return _is_int(value)
    return isinstance(value, hint)


def _check(where: str, value, hint) -> None:
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else hint
        raise ConfigError(f"config {where} must be {name}, got {value!r}")


def _typed_section(doc: dict, name: str, hints: dict) -> dict:
    """Section ``name``, its keys limited to ``hints`` and each value checked
    against its hint."""
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(sec) - set(hints)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in sec.items():
        _check(f"{name}.{key}", value, hints[key])
    return sec


def _loop_hints(config_cls) -> dict:
    """Keys and types of a ``search``/``train`` section: the fields of
    ``config_cls``, except the seed and the re-weighting settings, which come
    from the top-level seed and ``loss.tau`` / ``loss.momentum``."""
    return {k: v for k, v in typing.get_type_hints(config_cls).items()
            if k not in ("seed", "reweight_temperature", "reweight_momentum")}


_TOP_KEYS = {"seed", "profile", "dims", "data", "search", "train", "loss",
             "latex", "paths"}
_DIMS_HINTS = {"z_dim": int, "n_keypoints": int, "resolutions": list[int],
               "early_channels": int}
_DATA_DEFAULTS = {"n_sequences": 32, "frames_per_sequence": 32,
                  "stream_frames": 600, "keyframe_rate": 0.05,
                  "noise_level": 0.005, "extreme_fraction": 0.03,
                  "synthesize_lut": False}
_DATA_HINTS = {k: type(v) for k, v in _DATA_DEFAULTS.items()}
_LOSS_WEIGHT_HINTS = typing.get_type_hints(LossWeights)
_LOSS_HINTS = {**_LOSS_WEIGHT_HINTS, "tau": float, "momentum": float}
_LATEX_HINTS = {"window": int, "thresholds": list[float], "write_trace": bool}
_PATHS_HINTS = dict.fromkeys(("latency_table", "out_dir", "arch", "weights", "sequence"),
                             str)


class RunConfig:
    """Validated view of one experiment configuration."""

    def __init__(self, doc: dict, seed_override: int | None = None,
                 out_override: str | None = None):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - _TOP_KEYS
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        _check("seed", doc.get("seed", 0), int)
        self.seed = doc.get("seed", 0) if seed_override is None else int(seed_override)
        self.profile = doc.get("profile", "toy-dims")
        if self.profile not in ("toy-dims", "paper-dims"):
            raise ConfigError(f"profile must be 'toy-dims' or 'paper-dims', "
                              f"got {self.profile!r}")
        self.dims = _typed_section(doc, "dims", _DIMS_HINTS)
        for key, value in self.dims.items():
            values = value if isinstance(value, list) else [value]
            if not values or min(values) < 1:
                what = "a non-empty list of ints >= 1" if isinstance(value, list) else ">= 1"
                raise ConfigError(f"config dims.{key} must be {what}, got {value!r}")
        self.data = {**_DATA_DEFAULTS, **_typed_section(doc, "data", _DATA_HINTS)}
        self.search = _typed_section(doc, "search", _loop_hints(SearchConfig))
        self.train = _typed_section(doc, "train", _loop_hints(TrainConfig))
        loss = _typed_section(doc, "loss", _LOSS_HINTS)
        base = toy_loss_weights() if self.profile == "toy-dims" else LossWeights()
        self.loss_weights = dataclasses.replace(
            base, **{k: float(v) for k, v in loss.items() if k in _LOSS_WEIGHT_HINTS})
        self.reweight_temperature = float(loss.get("tau", 10.0))
        self.reweight_momentum = float(loss.get("momentum", 0.9))
        latex = _typed_section(doc, "latex", _LATEX_HINTS)
        self.latex_window = latex.get("window", 4)
        if self.latex_window < 2:
            raise ConfigError(f"config latex.window must be >= 2, got {self.latex_window}")
        self.latex_thresholds = [float(t) for t in
                                 latex.get("thresholds", [0.0, 0.5, 1.0, 2.0, 4.0])]
        bad = [t for t in self.latex_thresholds if not t >= 0]
        if bad:
            raise ConfigError(f"config latex.thresholds must be nonnegative, got {bad}")
        self.latex_write_trace = latex.get("write_trace", False)
        paths = _typed_section(doc, "paths", _PATHS_HINTS)
        out_dir = out_override or paths.get("out_dir", "out")
        self.out_dir = Path(out_dir)
        self.latency_table = Path(paths["latency_table"]) \
            if "latency_table" in paths else self.out_dir / "latency_table.csv"
        self.arch_path = Path(paths["arch"]) if "arch" in paths \
            else self.out_dir / "arch.json"
        self.weights_path = Path(paths["weights"]) if "weights" in paths \
            else self.out_dir / "weights.bin"
        self.sequence_path = Path(paths["sequence"]) if "sequence" in paths \
            else self.out_dir / "stream.bin"

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        try:
            doc = json.loads(p.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{p}: invalid JSON ({e})") from None
        return cls(doc, seed_override, out_override)

    # seed partitions: one sub-seed per concern so every command sees the same
    # task and disjoint data streams
    def _seeds(self) -> dict[str, int]:
        kids = np.random.SeedSequence(self.seed).spawn(6)
        names = ("task", "train_pool", "eval_pool", "stream", "search", "train")
        return {n: int(k.generate_state(1)[0]) for n, k in zip(names, kids)}

    def build_spec(self) -> SupernetSpec:
        spec = paper_spec() if self.profile == "paper-dims" else toy_spec()
        if self.dims:
            kw = {}
            if "resolutions" in self.dims:
                kw["search_space"] = dataclasses.replace(
                    spec.search_space, resolutions=tuple(self.dims["resolutions"]))
            for key in ("z_dim", "n_keypoints", "early_channels"):
                if key in self.dims:
                    kw[key] = self.dims[key]
            spec = dataclasses.replace(spec, **kw)
        return spec

    def build_task(self, spec: SupernetSpec) -> SyntheticTask:
        return SyntheticTask(spec, seed=self._seeds()["task"])

    def pool_kwargs(self) -> dict:
        d = self.data
        return {k: d[k] for k in ("keyframe_rate", "noise_level", "extreme_fraction")}

    def train_pool(self, task) -> list:
        return generate_pool(task, self._seeds()["train_pool"],
                             n_sequences=self.data["n_sequences"],
                             frames_per_sequence=self.data["frames_per_sequence"],
                             **self.pool_kwargs())

    def eval_pool(self, task) -> list:
        return generate_pool(task, self._seeds()["eval_pool"],
                             n_sequences=max(2, self.data["n_sequences"] // 8),
                             frames_per_sequence=self.data["frames_per_sequence"],
                             **self.pool_kwargs())

    def stream(self, task) -> list:
        return generate_sequence(task, seed=self._seeds()["stream"],
                                 n_frames=self.data["stream_frames"],
                                 **self.pool_kwargs())

    def search_config(self) -> SearchConfig:
        return SearchConfig(seed=self._seeds()["search"],
                            reweight_temperature=self.reweight_temperature,
                            reweight_momentum=self.reweight_momentum,
                            **self.search)

    def train_config(self) -> TrainConfig:
        return TrainConfig(seed=self._seeds()["train"],
                           reweight_temperature=self.reweight_temperature,
                           reweight_momentum=self.reweight_momentum,
                           **self.train)


def _dump_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as f:
        json.dump(obj, f, indent=2, sort_keys=True)
        f.write("\n")


def _require(path: Path, what: str) -> Path:
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_lut(cfg: RunConfig, spec: SupernetSpec):
    lut = load_latency_table(_require(cfg.latency_table, "latency table"))
    lut.validate_coverage(spec)
    return lut


def cmd_gen_data(cfg: RunConfig) -> int:
    spec = cfg.build_spec()
    task = cfg.build_task(spec)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_sequence(cfg.sequence_path, cfg.stream(task))
    print(f"wrote {cfg.sequence_path} ({cfg.data['stream_frames']} frames)")
    if cfg.data["synthesize_lut"]:
        cfg.latency_table.parent.mkdir(parents=True, exist_ok=True)
        synthetic_latency_table(spec).save(cfg.latency_table)
        print(f"wrote {cfg.latency_table}")
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    spec = cfg.build_spec()
    task = cfg.build_task(spec)
    lut = _load_lut(cfg, spec)
    result = run_search(spec, cfg.search_config(), lut, task,
                        cfg.train_pool(task), cfg.loss_weights)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    report = count_flops(result.arch, spec)
    result.arch.save(cfg.arch_path, extra={"mflops": report.to_json_dict()})
    log_path = cfg.out_dir / "search_log.jsonl"
    with atomic_write(log_path) as f:
        for row in result.log:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    latency = score_arch(spec, result.arch, lut)
    print(f"wrote {cfg.arch_path} ({report.total_mflops:.2f} MFLOPs, "
          f"{latency:.4f} ms) and {log_path}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    spec = cfg.build_spec()
    task = cfg.build_task(spec)
    arch = SampledArch.load(_require(cfg.arch_path, "architecture"))
    validate_arch(spec, arch)
    pool = cfg.train_pool(task)
    enc, log = train_encoder(spec, arch, task, pool, cfg.train_config(), cfg.loss_weights)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    save_weights(cfg.weights_path, enc)
    with atomic_write(cfg.out_dir / "train_log.jsonl") as f:
        for row in log:
            f.write(json.dumps(row, sort_keys=True) + "\n")
    metrics = {"train": evaluate_encoder(enc, task, pool),
               "test": evaluate_encoder(enc, task, cfg.eval_pool(task))}
    _dump_json(cfg.out_dir / "train_metrics.json", metrics)
    print(f"wrote {cfg.weights_path}; test latent mse "
          f"{metrics['test']['latent']:.6f}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    spec = cfg.build_spec()
    task = cfg.build_task(spec)
    enc = load_weights(_require(cfg.weights_path, "weights"), spec)
    metrics = evaluate_encoder(enc, task, cfg.eval_pool(task))
    _dump_json(cfg.out_dir / "eval_metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    spec = cfg.build_spec()
    task = cfg.build_task(spec)
    enc = load_weights(_require(cfg.weights_path, "weights"), spec)
    if cfg.sequence_path.exists():
        frames = load_sequence(cfg.sequence_path)
    else:
        frames = cfg.stream(task)
    full = count_flops(enc.arch, spec).total_mflops
    early = early_head_mflops(enc.arch, spec)
    reports = simulate_stream(frames, TrainedEncoderRuntime(enc),
                              cfg.latex_thresholds, task.decoder,
                              window=cfg.latex_window,
                              full_cost_mflops=full, early_cost_mflops=early)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = cfg.out_dir / "simulate.csv"
    with atomic_write(csv_path, newline="") as f:
        w = csv.writer(f)
        w.writerow(["threshold", "skip_ratio", "mean_mse", "avg_cost_mflops"])
        for r in reports:
            w.writerow([repr(r["threshold"]), repr(r["skip_ratio"]),
                        repr(r["mean_mse"]), repr(r["avg_cost_mflops"])])
    if cfg.latex_write_trace:
        trace = [{"threshold": r["threshold"], "decisions": r["decisions"],
                  "mse_trace": r["mse_trace"]} for r in reports]
        _dump_json(cfg.out_dir / "simulate_trace.json", trace)
    for r in reports:
        print(f"threshold {r['threshold']:g}: skip ratio {r['skip_ratio']:.3f}, "
              f"mean mse {r['mean_mse']:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_flops(cfg: RunConfig | None, arch_path: str) -> int:
    spec = cfg.build_spec() if cfg else paper_spec()
    arch = SampledArch.load(_require(Path(arch_path), "architecture"))
    report = count_flops(arch, spec)
    rows = list(report.branches.items()) + list(report.fixed.items())
    width = max(len(k) for k, _ in rows)
    for key, mflops in rows:
        print(f"{key:<{width}}  {mflops:10.3f} MFLOPs")
    print(f"{'total':<{width}}  {report.total_mflops:10.3f} MFLOPs")
    print(f"{'early head':<{width}}  {early_head_mflops(arch, spec):10.3f} MFLOPs")
    return EXIT_OK


def cmd_latency(cfg: RunConfig, arch_path: str) -> int:
    spec = cfg.build_spec()
    arch = SampledArch.load(_require(Path(arch_path), "architecture"))
    validate_arch(spec, arch)
    lut = _load_lut(cfg, spec)
    print(f"{score_arch(spec, arch, lut):.6f} ms")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avenas",
                                description="architecture search and adaptive "
                                            "extrapolation for avatar encoders")
    p.add_argument("--config", help="path to the JSON run configuration")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for name in ("gen-data", "search", "train", "eval", "simulate"):
        sub.add_parser(name)
    fp = sub.add_parser("flops")
    fp.add_argument("arch", help="architecture JSON to count")
    lp = sub.add_parser("latency")
    lp.add_argument("arch", help="architecture JSON to score")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "flops" and args.config is None:
            return cmd_flops(None, args.arch)
        if args.config is None:
            raise ConfigError("--config is required")
        cfg = RunConfig.load(args.config, args.seed, args.out)
        if args.command == "gen-data":
            return cmd_gen_data(cfg)
        if args.command == "search":
            return cmd_search(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "flops":
            return cmd_flops(cfg, args.arch)
        if args.command == "latency":
            return cmd_latency(cfg, args.arch)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ValueError, TypeError) as e:   # ConfigError, LatencyTableError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SearchError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
