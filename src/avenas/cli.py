"""Command-line entry point driving the whole pipeline from one config file.

Subcommands: gen-data, search, train, eval, simulate, flops, latency. The
config is schema-closed (``SCHEMA``; unknown keys rejected, each value type-
and range-checked at load) and, with the seed, determines every artifact:
reruns write byte-identical files. Exit codes: 0 ok, 2 bad input, 3 runtime,
130 interrupted (Ctrl-C), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import signal
import sys
import threading
import typing
from dataclasses import MISSING
from pathlib import Path

import numpy as np

from .cost_models import (
    count_flops, early_head_mflops, load_latency_table,
    score_arch, synthetic_latency_table,
)
from .latex_runtime import LatexState, TrainedEncoderRuntime, simulate_stream
from .objective import (
    LossWeights, SyntheticTask, check_sequence, generate_pool, generate_sequence,
    load_sequence, save_sequence, toy_loss_weights,
)
from .ranges import AT_LEAST_1, NONNEGATIVE, UNIT, Interval
from .search_engine import SearchConfig, run_search
from .serialize import InputError, write_csv, write_json, write_jsonl
from .supernet import SampledArch, SupernetSpec, paper_spec, toy_spec, validate_arch
from .training import (
    LoopConfig, evaluate_encoder, load_weights, save_weights, train_encoder,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130      # the shell's codes for death by SIGINT and SIGTERM
EXIT_TERMINATED = 143


class ConfigError(InputError):
    pass


class Terminated(KeyboardInterrupt):
    """SIGTERM, raised where the command is, so it unwinds as Ctrl-C does."""


def _terminate(signum, frame):
    raise Terminated()


class Setting(typing.NamedTuple):
    """One config key: its type, the default the loader fills in (``MISSING``:
    its user supplies one) and its range (a list: non-empty, each element in it)."""

    hint: typing.Any
    default: typing.Any = MISSING
    within: Interval | None = None


def _fields(cls, skip=()) -> dict:
    """The settings the fields of dataclass ``cls`` declare, except ``skip``;
    each field's own default applies where a config leaves it out."""
    hints = typing.get_type_hints(cls)
    return {f.name: Setting(hints[f.name], within=f.metadata.get("range"))
            for f in dataclasses.fields(cls) if f.name not in skip}


SEED = Setting(int, 0, NONNEGATIVE)
SCHEMA = {
    "dims": {"resolutions": Setting(list[int], within=AT_LEAST_1)},
    "data": {"n_sequences": Setting(int, 32, AT_LEAST_1),
             "frames_per_sequence": Setting(int, 32, AT_LEAST_1),
             "stream_frames": Setting(int, 600, AT_LEAST_1),
             "keyframe_rate": Setting(float, 0.05, UNIT),
             "noise_level": Setting(float, 0.005, NONNEGATIVE),
             "extreme_fraction": Setting(float, 0.03, UNIT),
             "synthesize_lut": Setting(bool, False)},
    "search": _fields(SearchConfig, skip=("seed",)),    # seeded from the top level
    "train": _fields(LoopConfig, skip=("seed",)),
    "latex": {"thresholds": Setting(list[float], (0.0, 0.5, 1.0, 2.0, 4.0),
                                    _fields(LatexState)["threshold"].within),
              "write_trace": Setting(bool, False)},
    "paths": {"out_dir": Setting(str, "out"),
              **dict.fromkeys(("latency_table", "arch", "weights", "sequence"),
                              Setting(str))},
}


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a config field's annotation: an int field
    takes ints but not bools, a float field ints or floats but not NaN
    (infinities are valid values), a ``list[int]`` field a list of ints."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is list:
        return isinstance(value, list) and all(_fits(v, args[0]) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float)) and not math.isnan(value)
    return isinstance(value, hint)


def _check(where: str, value, setting: Setting) -> None:
    hint, _, within = setting
    if not _fits(value, hint):
        name = hint.__name__ if isinstance(hint, type) else hint
        raise ConfigError(f"{where} must be {name}, got {value!r}")
    values = value if isinstance(value, list) else [value]
    if within is not None and (not values or any(v not in within for v in values)):
        what = f"a non-empty list, each {within}" if isinstance(value, list) else within
        raise ConfigError(f"{where} must be {what}, got {value!r}")


def _typed_section(doc: dict, name: str) -> dict:
    """Section ``name`` of the config, checked against ``SCHEMA[name]`` (no
    unknown keys, each value of its type and in its range), with the
    schema's defaults filled in."""
    schema = SCHEMA[name]
    sec = doc.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(sec) - set(schema)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    for key, value in sec.items():
        _check(f"config {name}.{key}", value, schema[key])
    return {**{k: s.default for k, s in schema.items() if s.default is not MISSING}, **sec}


def _require(path: Path, what: str) -> Path:
    """``path``, which must be a regular file."""
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "not found"
        raise ConfigError(f"{what} {problem}: {path}")
    return path


class RunConfig:
    """Validated view of one experiment configuration."""

    def __init__(self, doc: dict, seed_override: int | None = None,
                 out_override: str | None = None):
        if not isinstance(doc, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(doc) - {"seed", "profile", *SCHEMA}
        if unknown:
            raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
        self.seed = doc.get("seed", SEED.default)
        _check("config seed", self.seed, SEED)
        if seed_override is not None:
            _check("--seed", seed_override, SEED)
            self.seed = seed_override
        self.profile = doc.get("profile", "toy-dims")
        if self.profile not in ("toy-dims", "paper-dims"):
            raise ConfigError(f"profile must be 'toy-dims' or 'paper-dims', "
                              f"got {self.profile!r}")
        self.dims = _typed_section(doc, "dims")
        try:
            self.spec = self.build_spec()
        except ValueError as e:     # SearchSpace's own checks: the order of resolutions
            raise ConfigError(f"config dims.{e}") from None
        self.data = _typed_section(doc, "data")
        self.search = _typed_section(doc, "search")
        self.train = _typed_section(doc, "train")
        self.loss_weights = (toy_loss_weights() if self.profile == "toy-dims"
                             else LossWeights())
        latex = _typed_section(doc, "latex")
        self.latex_thresholds = [float(t) for t in latex["thresholds"]]
        self.latex_write_trace = latex["write_trace"]
        paths = _typed_section(doc, "paths")
        self.out_dir = Path(out_override or paths["out_dir"])
        nearest = next(p for p in (self.out_dir, *self.out_dir.parents) if p.exists())
        if not nearest.is_dir():
            raise ConfigError(f"output directory {self.out_dir}: {nearest} "
                              f"is not a directory")
        self.latency_table = Path(paths.get("latency_table",
                                            self.out_dir / "latency_table.csv"))
        self.arch_path = Path(paths.get("arch", self.out_dir / "arch.json"))
        self.weights_path = Path(paths.get("weights", self.out_dir / "weights.bin"))
        self.sequence_path = Path(paths.get("sequence", self.out_dir / "stream.bin"))

    @classmethod
    def load(cls, path, seed_override=None, out_override=None) -> "RunConfig":
        p = _require(Path(path), "config file")
        try:
            doc = json.loads(p.read_text())
        except ValueError as e:     # not JSON, or not UTF-8 text
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
        if "resolutions" in self.dims:
            spec = dataclasses.replace(spec, search_space=dataclasses.replace(
                spec.search_space, resolutions=tuple(self.dims["resolutions"])))
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
        return SearchConfig(seed=self._seeds()["search"], **self.search)

    def train_config(self) -> LoopConfig:
        return LoopConfig(seed=self._seeds()["train"], **self.train)


def _load_lut(cfg: RunConfig):
    lut = load_latency_table(_require(cfg.latency_table, "latency table"))
    lut.validate_coverage(cfg.spec)
    return lut


def cmd_gen_data(cfg: RunConfig) -> int:
    save_sequence(cfg.sequence_path, cfg.stream(cfg.build_task(cfg.spec)))
    print(f"wrote {cfg.sequence_path} ({cfg.data['stream_frames']} frames)")
    if cfg.data["synthesize_lut"]:
        synthetic_latency_table(cfg.spec).save(cfg.latency_table)
        print(f"wrote {cfg.latency_table}")
    return EXIT_OK


def cmd_search(cfg: RunConfig) -> int:
    spec, task = cfg.spec, cfg.build_task(cfg.spec)
    lut = _load_lut(cfg)
    result = run_search(spec, cfg.search_config(), lut, task,
                        cfg.train_pool(task), cfg.loss_weights)
    report = count_flops(result.arch, spec)
    result.arch.save(cfg.arch_path, extra={"mflops": report.to_json_dict()})
    log_path = cfg.out_dir / "search_log.jsonl"
    write_jsonl(log_path, result.log)
    latency = score_arch(spec, result.arch, lut)
    print(f"wrote {cfg.arch_path} ({report.total_mflops:.2f} MFLOPs, "
          f"{latency:.4f} ms) and {log_path}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    task = cfg.build_task(cfg.spec)
    arch = SampledArch.load(_require(cfg.arch_path, "architecture"))
    validate_arch(cfg.spec, arch)
    pool = cfg.train_pool(task)
    enc, log = train_encoder(cfg.spec, arch, task, pool, cfg.train_config(),
                             cfg.loss_weights)
    save_weights(cfg.weights_path, enc)
    write_jsonl(cfg.out_dir / "train_log.jsonl", log)
    metrics = {"train": evaluate_encoder(enc, task, pool),
               "test": evaluate_encoder(enc, task, cfg.eval_pool(task))}
    write_json(cfg.out_dir / "train_metrics.json", metrics)
    print(f"wrote {cfg.weights_path}; test latent mse "
          f"{metrics['test']['latent']:.6f}")
    return EXIT_OK


def cmd_eval(cfg: RunConfig) -> int:
    task = cfg.build_task(cfg.spec)
    enc = load_weights(_require(cfg.weights_path, "weights"), cfg.spec)
    metrics = evaluate_encoder(enc, task, cfg.eval_pool(task))
    write_json(cfg.out_dir / "eval_metrics.json", metrics)
    print(json.dumps(metrics, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_simulate(cfg: RunConfig) -> int:
    spec, task = cfg.spec, cfg.build_task(cfg.spec)
    enc = load_weights(_require(cfg.weights_path, "weights"), spec)
    if cfg.sequence_path.exists():
        frames = load_sequence(_require(cfg.sequence_path, "sequence"))
        check_sequence(frames, task, cfg.sequence_path)
    else:
        frames = cfg.stream(task)
    reports = simulate_stream(frames, TrainedEncoderRuntime(enc),
                              cfg.latex_thresholds, task.decoder)
    # a frame's charge is what ran on it: every inference the full pass, every
    # early check the stems plus the early head, whether it skipped or not
    flops = count_flops(enc.arch, spec)
    check = sum(flops.fixed[f"{v}/stem"] for v in spec.views) \
        + early_head_mflops(enc.arch, spec)
    for r in reports:
        r["avg_cost_mflops"] = (r["decisions"].count("inference") * flops.total_mflops
                                + r["early_checks"] * check) / len(frames)
    csv_path = cfg.out_dir / "simulate.csv"
    columns = ["threshold", "skip_ratio", "mean_mse", "avg_cost_mflops"]
    write_csv(csv_path, columns, ([repr(r[c]) for c in columns] for r in reports))
    if cfg.latex_write_trace:
        trace = [{"threshold": r["threshold"], "decisions": r["decisions"],
                  "mse_trace": r["mse_trace"]} for r in reports]
        write_json(cfg.out_dir / "simulate_trace.json", trace)
    for r in reports:
        print(f"threshold {r['threshold']:g}: skip ratio {r['skip_ratio']:.3f}, "
              f"mean mse {r['mean_mse']:.6f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_flops(cfg: RunConfig | None, arch_path: str) -> int:
    spec = cfg.spec if cfg else paper_spec()
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
    arch = SampledArch.load(_require(Path(arch_path), "architecture"))
    validate_arch(cfg.spec, arch)
    print(f"{score_arch(cfg.spec, arch, _load_lut(cfg)):.6f} ms")
    return EXIT_OK


# command -> (handler, help of its architecture argument, if it takes one)
COMMANDS = {"gen-data": (cmd_gen_data, None), "search": (cmd_search, None),
            "train": (cmd_train, None), "eval": (cmd_eval, None),
            "simulate": (cmd_simulate, None),
            "flops": (cmd_flops, "architecture JSON to count"),
            "latency": (cmd_latency, "architecture JSON to score")}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="avenas",
                                description="architecture search and adaptive "
                                            "extrapolation for avatar encoders")
    p.add_argument("--config", help="path to the JSON run configuration")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--out", help="override the output directory")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (_, arch_help) in COMMANDS.items():
        sp = sub.add_parser(name)
        if arch_help:
            sp.add_argument("arch", help=arch_help)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command, arch_help = COMMANDS[args.command]
    # only the main thread may set a handler; elsewhere SIGTERM keeps its own
    previous = signal.signal(signal.SIGTERM, _terminate) \
        if threading.current_thread() is threading.main_thread() else None
    try:
        if args.config is None and command is not cmd_flops:
            raise ConfigError("--config is required")
        cfg = None if args.config is None else RunConfig.load(args.config, args.seed,
                                                              args.out)
        return command(cfg, args.arch) if arch_help else command(cfg)
    except (ValueError, TypeError, RuntimeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        # the config and input-file checks raise InputError; any other failure
        # comes from compute, after the inputs passed
        return EXIT_VALIDATION if isinstance(e, InputError) else EXIT_RUNTIME
    except MemoryError:
        print(f"error: out of memory during {args.command}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt as e:
        print(f"error: interrupted during {args.command}", file=sys.stderr)
        return EXIT_TERMINATED if isinstance(e, Terminated) else EXIT_INTERRUPTED
    finally:
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    sys.exit(main())
