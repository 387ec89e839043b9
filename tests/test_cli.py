import copy
import csv
import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import avenas
from avenas import cli, serialize
from avenas.cli import (
    EXIT_INTERRUPTED, EXIT_OK, EXIT_RUNTIME, EXIT_TERMINATED, EXIT_VALIDATION, SCHEMA,
    SEED, RunConfig, main,
)
from avenas.cost_models import load_latency_table, score_arch
from avenas.search_engine import SearchConfig
from avenas.serialize import load_arrays, save_arrays
from avenas.supernet import DiscreteEncoder, SampledArch, toy_spec, validate_arch
from avenas.tensor_core import ShapeError
from avenas.training import LoopConfig
from avenas.objective import load_sequence

from helpers import random_arch


def write_config(tmp_path, **overrides):
    doc = {
        "seed": 5,
        "profile": "toy-dims",
        "data": {"n_sequences": 8, "frames_per_sequence": 24,
                 "stream_frames": 120, "synthesize_lut": True},
        "search": {"steps": 80, "batch_size": 8, "K": 4,
                   "gumbel_temperature": 2.0, "lambda_lat": 0.05,
                   "lr": 3e-3},
        "train": {"steps": 120, "batch_size": 8, "lr": 3e-3},
        "latex": {"thresholds": [0.0, 2.0]},
        "paths": {"out_dir": str(tmp_path / "out")},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_unknown_config_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["serach"] = {}
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert "serach" in capsys.readouterr().err


def test_unknown_section_key_rejected(tmp_path, capsys):
    path = write_config(tmp_path, search={"stepz": 10})
    assert main(["--config", str(path), "search"]) == EXIT_VALIDATION
    assert "stepz" in capsys.readouterr().err


# settings that are constants, each with the value it takes in a run of
# write_config's config; a config that sets one exits 2 naming it (the whole
# `loss` section is unknown)
CONSTANT_SETTINGS = [
    ("data", "extreme_scale", 1.5), ("data", "velocity_scale", 0.05),
    ("data", "mean_revert", 0.03), ("search", "lr_decay", 0.1),
    ("train", "lr_decay", 0.1), ("search", "budget_patience", 100),
    ("dims", "z_dim", 8), ("dims", "n_keypoints", 4), ("dims", "early_channels", 2),
    ("search", "lr_decay_every", 32), ("train", "lr_decay_every", 48),
    ("loss", "latent", 1.0), ("loss", "gaze", 0.3), ("loss", "geo", 0.3),
    ("loss", "tex", 0.3), ("loss", "keypoint", 1.0), ("loss", "render", 0.03),
    ("loss", "tau", 10.0), ("loss", "momentum", 0.9), ("latex", "window", 4)]


def _names_unknown_key(err: str, section: str, key: str) -> bool:
    if section == "loss":
        return "unknown top-level config keys: ['loss']" in err
    return f"unknown keys in config section {section!r}: [{key!r}]" in err


@pytest.mark.parametrize("section,key,value", CONSTANT_SETTINGS)
def test_constant_settings_are_unknown_keys(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path, **{section: {key: value}})
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert _names_unknown_key(capsys.readouterr().err, section, key)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [[1, 2], None, "config"])
def test_config_document_must_be_object(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert "config must be a JSON object" in capsys.readouterr().err


def test_missing_config_flag(capsys):
    assert main(["search"]) == EXIT_VALIDATION


def test_missing_lut_fails_before_compute(tmp_path, capsys):
    path = write_config(tmp_path, data={"synthesize_lut": False})
    assert main(["--config", str(path), "search"]) == EXIT_VALIDATION
    assert "latency table" in capsys.readouterr().err


def test_gen_data_outputs_deterministic(tmp_path):
    path = write_config(tmp_path)
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    out = tmp_path / "out"
    stream1 = (out / "stream.bin").read_bytes()
    lut1 = (out / "latency_table.csv").read_bytes()
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    assert (out / "stream.bin").read_bytes() == stream1
    assert (out / "latency_table.csv").read_bytes() == lut1
    frames = load_sequence(out / "stream.bin")
    assert len(frames) == 120
    lut = load_latency_table(out / "latency_table.csv")
    lut.validate_coverage(toy_spec())


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """gen-data -> search -> train once; several tests inspect the artifacts."""
    tmp_path = tmp_path_factory.mktemp("cli")
    cfg = write_config(tmp_path)
    assert main(["--config", str(cfg), "gen-data"]) == EXIT_OK
    assert main(["--config", str(cfg), "search"]) == EXIT_OK
    assert main(["--config", str(cfg), "train"]) == EXIT_OK
    return tmp_path, cfg


def test_search_emits_valid_arch(pipeline):
    tmp_path, _ = pipeline
    arch = SampledArch.load(tmp_path / "out" / "arch.json")
    validate_arch(toy_spec(), arch)
    doc = json.loads((tmp_path / "out" / "arch.json").read_text())
    assert "mflops" in doc and "total_mflops" in doc["mflops"]
    log_lines = (tmp_path / "out" / "search_log.jsonl").read_text().splitlines()
    rows = [json.loads(l) for l in log_lines]
    assert {"step", "f", "latency_ms", "res_dist"} <= set(rows[0])


def test_search_byte_identical_across_runs(pipeline, tmp_path):
    _, cfg = pipeline
    ref = json.loads(cfg.read_text())["paths"]["out_dir"]
    out2 = tmp_path / "out2"
    assert main(["--config", str(cfg), "--out", str(out2), "gen-data"]) == EXIT_OK
    assert main(["--config", str(cfg), "--out", str(out2), "search"]) == EXIT_OK
    assert (out2 / "arch.json").read_bytes() == (Path(ref) / "arch.json").read_bytes()
    assert (out2 / "search_log.jsonl").read_bytes() == \
        (Path(ref) / "search_log.jsonl").read_bytes()


def test_train_eval_simulate(pipeline):
    tmp_path, cfg = pipeline
    out = tmp_path / "out"
    assert (out / "weights.bin").exists()
    metrics = json.loads((out / "train_metrics.json").read_text())
    assert "train" in metrics and "test" in metrics
    assert main(["--config", str(cfg), "eval"]) == EXIT_OK
    assert (out / "eval_metrics.json").exists()
    assert main(["--config", str(cfg), "simulate"]) == EXIT_OK
    rows = (out / "simulate.csv").read_text().splitlines()
    assert rows[0] == "threshold,skip_ratio,mean_mse,avg_cost_mflops"
    first = rows[1].split(",")
    assert float(first[0]) == 0.0 and float(first[1]) == 0.0  # no skips at 0


@pytest.mark.parametrize("write_trace", [True, False])
def test_simulate_write_trace(pipeline, tmp_path, write_trace):
    ref = pipeline[0] / "out"
    path = write_config(tmp_path, latex={"thresholds": [0.0, 2.0, 1e9],
                                         "write_trace": write_trace},
                        paths={"out_dir": str(tmp_path / "sim"),
                               "weights": str(ref / "weights.bin"),
                               "sequence": str(ref / "stream.bin")})
    assert main(["--config", str(path), "simulate"]) == EXIT_OK
    trace_path = tmp_path / "sim" / "simulate_trace.json"
    assert trace_path.exists() == write_trace
    if not write_trace:
        return
    with open(tmp_path / "sim" / "simulate.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    trace = json.loads(trace_path.read_text())
    assert [t["threshold"] for t in trace] == [float(r["threshold"]) for r in rows]
    for t, r in zip(trace, rows):
        decisions = t["decisions"]
        assert len(decisions) == len(t["mse_trace"]) == 120
        assert set(decisions) <= {"inference", "extrapolated"}
        assert float(r["skip_ratio"]) == decisions.count("extrapolated") / len(decisions)
    assert trace[-1]["decisions"].count("extrapolated") > 0


def test_train_rejects_mismatched_arch(pipeline, tmp_path, capsys):
    _, cfg = pipeline
    bad_arch = tmp_path / "bad_arch.json"
    arch = SampledArch.load(json.loads(cfg.read_text())["paths"]["out_dir"] + "/arch.json")
    arch.resolutions["mouth"] = 999
    arch.save(bad_arch)
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "o3"),
                                         "arch": str(bad_arch)})
    assert main(["--config", str(path), "train"]) == EXIT_VALIDATION


def test_flops_ordering_of_bundled_archs(capsys):
    import importlib.resources as res
    totals = {}
    for name in ("ave_s", "ave_m"):
        path = res.files("avenas") / "reference_archs" / f"{name}.json"
        assert main(["flops", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        total_line = [l for l in out.splitlines() if l.startswith("total")][0]
        totals[name] = float(total_line.split()[1])
    assert totals["ave_s"] < totals["ave_m"]


def test_latency_command_matches_score(pipeline, capsys):
    tmp_path, cfg = pipeline
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "latency", str(out / "arch.json")]) == EXIT_OK
    printed = float(capsys.readouterr().out.split()[0])
    arch = SampledArch.load(out / "arch.json")
    lut = load_latency_table(out / "latency_table.csv")
    assert printed == pytest.approx(score_arch(toy_spec(), arch, lut), abs=5e-7)


def test_console_entry_point():
    # the package's own import path, so an uninstalled checkout works too
    src = str(Path(avenas.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "avenas.cli", "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_malformed_weights_exit_validation(tmp_path, capsys):
    weights = tmp_path / "weights.bin"
    weights.write_bytes(b"AVNS1\x00\x01\x02")   # cut inside the length prefix
    path = write_config(tmp_path, paths={"weights": str(weights)})
    assert main(["--config", str(path), "eval"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(weights) in err and "truncated" in err


@pytest.mark.parametrize("section,key,value", [
    ("search", "batch_size", 0), ("train", "batch_size", 0), ("train", "steps", -5)])
def test_bad_loop_settings_exit_validation(tmp_path, capsys, section, key, value):
    # range-checked when the config loads, so gen-data refuses it too
    arch = tmp_path / "arch.json"
    random_arch(toy_spec(), np.random.default_rng(0)).save(arch)
    path = write_config(tmp_path, **{section: {key: value}},
                        paths={"out_dir": str(tmp_path / "out"), "arch": str(arch)})
    for command in ("gen-data", section):
        assert main(["--config", str(path), command]) == EXIT_VALIDATION
        assert f"config {section}.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("section", ["search", "train"])
@pytest.mark.parametrize("key", ["reweight_temperature", "reweight_momentum"])
def test_reweight_keys_only_in_loss_section(tmp_path, capsys, section, key):
    # the re-weighting's temperature and momentum are LossWeights constants
    path = write_config(tmp_path, **{section: {key: 1.0}})
    assert main(["--config", str(path), section]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert key in err and repr(section) in err and "multiple values" not in err


@pytest.mark.parametrize("section,key,value", [
    ("search", "steps", 2.5), ("train", "lr", "0.1"), ("search", "K", True),
    ("search", "steps", "100")])
def test_mistyped_loop_settings_exit_validation(tmp_path, capsys, section, key, value):
    path = write_config(tmp_path, **{section: {key: value}})
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert f"{section}.{key}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("overrides,where", [
    ({"search": {"gumbel_temperature": True}}, "search.gumbel_temperature"),
    ({"search": {"lr_res": "x"}}, "search.lr_res"),
    ({"seed": 2.7}, "seed"), ({"seed": True}, "seed"),
    ({"data": {"n_sequences": 2.5}}, "data.n_sequences"),
    ({"data": {"synthesize_lut": "no"}}, "data.synthesize_lut"),
    ({"dims": {"resolutions": "12"}}, "dims.resolutions"),
    ({"dims": {"resolutions": [12, 16.0]}}, "dims.resolutions"),
    ({"search": {"lambda_lat": float("nan")}}, "search.lambda_lat"),
    ({"train": {"lr": float("nan")}}, "train.lr"),
    ({"search": {"latency_budget_ms": float("nan")}}, "search.latency_budget_ms"),
    ({"data": {"noise_level": float("nan")}}, "data.noise_level"),
    ({"data": {"keyframe_rate": float("nan")}}, "data.keyframe_rate"),
    ({"paths": {"out_dir": 5}}, "paths.out_dir"),
    ({"paths": {"out_dir": None}}, "paths.out_dir"),
    ({"paths": {"weights": ["w.bin"]}}, "paths.weights")])
def test_mistyped_settings_exit_validation(tmp_path, capsys, overrides, where):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert f"config {where} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("resolutions", []), ("resolutions", [0]), ("resolutions", [12, -16]),
    ("resolutions", [12, 0]), ("resolutions", [-12]), ("resolutions", [12, 16, 16]),
    ("resolutions", [12, 24, 16]),
    ("resolutions", [16, 12]), ("resolutions", [12, 12])])
def test_out_of_range_dims_exit_validation(tmp_path, capsys, key, value):
    # caught when the config loads, before gen-data writes anything that a
    # later command could die on
    path = write_config(tmp_path, dims={key: value})
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert f"config dims.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_non_finite_training_loss_exits_runtime(tmp_path, capsys):
    # an Adam step of 1e300 overflows the next forward pass
    arch = tmp_path / "arch.json"
    random_arch(toy_spec(), np.random.default_rng(0)).save(arch)
    path = write_config(tmp_path, train={"steps": 3, "lr": 1e300},
                        paths={"out_dir": str(tmp_path / "out"), "arch": str(arch)})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    assert main(["--config", str(path), "train"]) == EXIT_RUNTIME
    assert "non-finite objective at step 1" in capsys.readouterr().err
    assert not (tmp_path / "out" / "weights.bin").exists()


def test_infinite_float_settings_accepted(tmp_path):
    # json writes inf as Infinity; unlike NaN it is a valid budget and threshold
    path = write_config(tmp_path, search={"latency_budget_ms": float("inf")},
                        latex={"thresholds": [0.0, float("inf")]})
    assert "Infinity" in path.read_text()
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK


def test_train_generates_the_training_pool_once(tmp_path, monkeypatch):
    arch = tmp_path / "arch.json"
    random_arch(toy_spec(), np.random.default_rng(0)).save(arch)
    path = write_config(tmp_path, train={"steps": 2},
                        paths={"out_dir": str(tmp_path / "out"), "arch": str(arch)})
    calls = []
    pool = RunConfig.train_pool
    monkeypatch.setattr(RunConfig, "train_pool",
                        lambda self, task: calls.append(1) or pool(self, task))
    assert main(["--config", str(path), "train"]) == EXIT_OK
    assert len(calls) == 1


@pytest.mark.parametrize("fault,entry", [("weights file", "'n_frames'"),
                                         ("no mouth images", "'images/mouth'")])
def test_non_sequence_file_exits_validation(tmp_path, capsys, fault, entry):
    spec = toy_spec()
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    weights = tmp_path / "weights.bin"
    save_arrays(weights, {name: t.data for name, t in enc.weights.items()},
                meta={"arch": enc.arch.to_json_dict()})
    sequence = weights
    if fault == "no mouth images":
        assert main(["--config", str(write_config(tmp_path)), "gen-data"]) == EXIT_OK
        arrays, meta = load_arrays(tmp_path / "out" / "stream.bin")
        del arrays["images/mouth"]
        sequence = tmp_path / "stream.bin"
        save_arrays(sequence, arrays, meta)
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "weights": str(weights),
                                         "sequence": str(sequence)})
    assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(sequence) in err and entry in err


@pytest.mark.parametrize("fault", ["missing", "wrong-shape"])
def test_bad_weights_file_names_the_weight(tmp_path, capsys, fault):
    spec = toy_spec()
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    arrays = {name: t.data for name, t in enc.weights.items()}
    if fault == "missing":
        del arrays["mouth/latent/head"]
    else:
        arrays["mouth/latent/head"] = arrays["mouth/latent/head"][:, :1]
    weights = tmp_path / "weights.bin"
    save_arrays(weights, arrays, meta={"arch": enc.arch.to_json_dict()})
    path = write_config(tmp_path, paths={"weights": str(weights)})
    assert main(["--config", str(path), "eval"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "'mouth/latent/head'" in err and str(weights) in err


@pytest.mark.parametrize("command", ["eval", "simulate"])
def test_weights_file_with_extra_field_exits_validation(tmp_path, capsys, command):
    # a file for another architecture whose shared layers happen to match
    spec = toy_spec()
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    arrays = {name: t.data for name, t in enc.weights.items()}
    arrays["mouth/latent/extra"] = np.zeros((2, 3))
    arrays["mouth/latent/more"] = np.zeros(1)
    weights = tmp_path / "weights.bin"
    save_arrays(weights, arrays, meta={"arch": enc.arch.to_json_dict()})
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "weights": str(weights)})
    assert main(["--config", str(path), command]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(weights) in err and "'mouth/latent/extra'" in err
    assert "'mouth/latent/more'" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("latex,key", [
    ({"thresholds": [float("nan")]}, "thresholds"), ({"window": 1}, "window"),
    ({"window": 4.5}, "window"), ({"window": "4"}, "window"), ({"window": True}, "window"),
    ({"thresholds": 5}, "thresholds"), ({"thresholds": ["0.5"]}, "thresholds"),
    ({"thresholds": [0.5, False]}, "thresholds"), ({"write_trace": 1}, "write_trace"),
    ({"write_trace": "yes"}, "write_trace")])
def test_bad_latex_settings_exit_validation(tmp_path, capsys, latex, key):
    # json writes and reads NaN; both are caught when the config loads, before
    # the weights are even looked for
    path = write_config(tmp_path, latex=latex)
    assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert key in err and "not found" not in err


def test_weights_without_arch_exit_validation(tmp_path, capsys):
    enc = DiscreteEncoder(toy_spec(), random_arch(toy_spec(), np.random.default_rng(0)),
                          seed=1)
    weights = tmp_path / "weights.bin"
    save_arrays(weights, {name: t.data for name, t in enc.weights.items()}, meta={})
    path = write_config(tmp_path, paths={"weights": str(weights)})
    assert main(["--config", str(path), "eval"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(weights) in err and "'arch'" in err


@pytest.mark.parametrize("fault,name", [
    ("no views", "'views'"), ("no input_resolution", "'input_resolution'"),
    ("views is a list", "'views'"), ("branches is a list", "'branches'"),
    ("document is a list", "document")])
def test_malformed_arch_file_exit_validation(tmp_path, capsys, fault, name):
    arch = tmp_path / "arch.json"
    doc = random_arch(toy_spec(), np.random.default_rng(0)).to_json_dict()
    if fault == "no views":
        del doc["views"]
    elif fault == "no input_resolution":
        del doc["views"]["mouth"]["input_resolution"]
    elif fault == "views is a list":
        doc["views"] = []
    elif fault == "branches is a list":
        doc["views"]["mouth"]["branches"] = []
    else:
        doc = [doc]
    arch.write_text(json.dumps(doc))
    path = write_config(tmp_path)
    assert main(["--config", str(path), "flops", str(arch)]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert str(arch) in err and name in err


@pytest.mark.parametrize("name", ["toy", "paper"])
def test_bundled_configs_load(name):
    cfg = RunConfig.load(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    assert cfg.build_spec().search_space.resolutions
    assert cfg.search_config().steps > 0 and cfg.train_config().steps > 0


@pytest.mark.parametrize("which", ["config", "weights", "sequence"])
def test_directory_input_exits_validation(tmp_path, capsys, which):
    folder = tmp_path / "folder"
    folder.mkdir()
    spec = toy_spec()
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    weights = tmp_path / "weights.bin"
    save_arrays(weights, {name: t.data for name, t in enc.weights.items()},
                meta={"arch": enc.arch.to_json_dict()})
    config = folder
    if which != "config":
        config = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                               "weights": str(weights), which: str(folder)})
    assert main(["--config", str(config), "simulate"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"is not a regular file: {folder}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("which,command", [("weights", "eval"), ("sequence", "simulate")])
def test_non_finite_container_exits_validation(tmp_path, capsys, which, command):
    spec = toy_spec()
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    files = {"weights": tmp_path / "weights.bin", "sequence": tmp_path / "stream.bin"}
    path = write_config(tmp_path, paths={k: str(f) for k, f in files.items()})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    save_arrays(files["weights"], {name: t.data for name, t in enc.weights.items()},
                meta={"arch": enc.arch.to_json_dict()})
    arrays, meta = load_arrays(files[which])
    field = "mouth/latent/head" if which == "weights" else "z"
    arrays[field][0, 0] = np.nan
    save_arrays(files[which], arrays, meta)
    assert main(["--config", str(path), command]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{files[which]}: field {field!r} holds non-finite values" in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["latency_table.csv"]


def _save_encoder(path, spec):
    enc = DiscreteEncoder(spec, random_arch(spec, np.random.default_rng(0)), seed=1)
    save_arrays(path, {name: t.data for name, t in enc.weights.items()},
                meta={"arch": enc.arch.to_json_dict()})


def _no_compute(*args, **kwargs):
    raise AssertionError("simulate_stream ran on a sequence that does not fit")


@pytest.mark.parametrize("field,message", [
    ("images/mouth", "no field 'images/mouth' for view 'mouth' of the spec"),
    ("z", "field 'z' has shape (7,) per frame; the spec's z_dim 8 needs (8,)"),
    ("rendered", "field 'rendered' has shape (23,) per frame; the spec's z_dim 8 "
                 "needs (24,)"),
    ("n_frames", "the sequence holds no frames"),
], ids=["images", "z", "rendered", "empty"])
def test_simulate_checks_sequence_fields_before_compute(tmp_path, capsys, monkeypatch,
                                                        field, message):
    files = {"weights": tmp_path / "weights.bin", "sequence": tmp_path / "stream.bin"}
    path = write_config(tmp_path, paths={k: str(f) for k, f in files.items()})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    _save_encoder(files["weights"], toy_spec())
    arrays, meta = load_arrays(files["sequence"])
    if field == "images/mouth":
        del arrays[field]
        meta["views"].remove("mouth")
    elif field == "n_frames":
        meta[field] = 0
        arrays = {k: a[:0] for k, a in arrays.items()}
    else:
        arrays[field] = arrays[field][:, :-1]
    save_arrays(files["sequence"], arrays, meta)
    monkeypatch.setattr("avenas.cli.simulate_stream", _no_compute)
    assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
    assert f"error: {files['sequence']}: {message}" in capsys.readouterr().err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["latency_table.csv"]


def test_simulate_rejects_stream_of_another_z_dim(tmp_path, capsys, monkeypatch):
    # a stream whose latent codes are 3 entries longer than the toy spec's
    files = {"weights": tmp_path / "weights.bin", "sequence": tmp_path / "stream.bin"}
    path = write_config(tmp_path, paths={k: str(f) for k, f in files.items()})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    _save_encoder(files["weights"], toy_spec())
    arrays, meta = load_arrays(files["sequence"])
    arrays["z"] = np.pad(arrays["z"], ((0, 0), (0, 3)))
    save_arrays(files["sequence"], arrays, meta)
    monkeypatch.setattr("avenas.cli.simulate_stream", _no_compute)
    assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
    z_dim = toy_spec().z_dim
    assert f"{files['sequence']}: field 'z' has shape ({z_dim + 3},) per frame; " \
        f"the spec's z_dim {z_dim} needs ({z_dim},)" in capsys.readouterr().err


def test_shape_error_during_compute_exits_runtime(tmp_path, capsys, monkeypatch):
    files = {"weights": tmp_path / "weights.bin", "sequence": tmp_path / "stream.bin"}
    path = write_config(tmp_path, paths={k: str(f) for k, f in files.items()})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    _save_encoder(files["weights"], toy_spec())

    def mismatched(*args, **kwargs):
        raise ShapeError("conv2d: incompatible shapes (1, 2, 8, 8) and (4, 3, 3, 3)")

    monkeypatch.setattr("avenas.cli.simulate_stream", mismatched)
    assert main(["--config", str(path), "simulate"]) == EXIT_RUNTIME
    assert "error: conv2d: incompatible shapes" in capsys.readouterr().err


@pytest.mark.parametrize("error", [ValueError, TypeError])
def test_compute_error_exits_runtime(tmp_path, capsys, monkeypatch, error):
    # only the config and input-file checks mean bad input; numpy's own
    # ValueError or TypeError during a search is a runtime failure
    path = write_config(tmp_path)
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK

    def broken(*args, **kwargs):
        raise error("operands could not be broadcast together")

    monkeypatch.setattr("avenas.cli.run_search", broken)
    assert main(["--config", str(path), "search"]) == EXIT_RUNTIME
    assert "error: operands could not be broadcast" in capsys.readouterr().err


def test_out_of_memory_exits_runtime(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)

    def exhausted(cfg):
        raise MemoryError()

    monkeypatch.setitem(cli.COMMANDS, "search", (exhausted, None))
    assert main(["--config", str(path), "search"]) == EXIT_RUNTIME
    assert capsys.readouterr().err == "error: out of memory during search\n"


def test_ctrl_c_exits_130(tmp_path, capsys, monkeypatch):
    path = write_config(tmp_path)

    def interrupted(cfg):
        raise KeyboardInterrupt()

    monkeypatch.setitem(cli.COMMANDS, "search", (interrupted, None))
    assert main(["--config", str(path), "search"]) == EXIT_INTERRUPTED == 130
    assert capsys.readouterr().err == "error: interrupted during search\n"


class StopAfterFirstWrite:
    """A file that sends the process SIGTERM once its first chunk is on disk."""

    def __init__(self, f):
        self.f = f

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data)
        self.f.flush()
        signal.raise_signal(signal.SIGTERM)


def test_sigterm_mid_write_exits_143_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    # gen-data is stopped inside the atomic write of stream.bin, with its
    # temporary file partly written: neither that file nor the artifact stays
    path = write_config(tmp_path)
    monkeypatch.setattr(serialize, "open",
                        lambda *a, **kw: StopAfterFirstWrite(open(*a, **kw)),
                        raising=False)
    outside = []

    def guard(*args):           # the handler around the command; it must not run
        outside.append(args)

    previous = signal.signal(signal.SIGTERM, guard)
    try:
        code = main(["--config", str(path), "gen-data"])
        restored = signal.getsignal(signal.SIGTERM)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == EXIT_TERMINATED == 143
    assert capsys.readouterr().err == "error: interrupted during gen-data\n"
    assert restored is guard and not outside
    assert list((tmp_path / "out").iterdir()) == []


def test_main_runs_outside_the_main_thread(capsys):
    # a thread other than the main one cannot set a signal handler, so there
    # main leaves SIGTERM as it is and runs the command
    arch = Path(avenas.__file__).parent / "reference_archs" / "ave_s.json"
    codes = []
    thread = threading.Thread(target=lambda: codes.append(main(["flops", str(arch)])))
    thread.start()
    thread.join()
    assert codes == [EXIT_OK]
    assert "total" in capsys.readouterr().out


@pytest.mark.parametrize("meta_key,value", [
    ("n_frames", 1000), ("n_frames", 50), ("n_frames", 2.5), ("n_frames", "7"),
    ("n_frames", "x"), ("n_frames", True), ("views", 5), ("views", "mouth"),
    ("eye_views", ["left_eye", 1])])
def test_malformed_sequence_metadata_exits_validation(tmp_path, capsys, monkeypatch,
                                                      meta_key, value):
    # metadata that does not fit the arrays (more or fewer frames than stored,
    # say), or that is not the type the writer gives it, is never coerced
    files = {"weights": tmp_path / "weights.bin", "sequence": tmp_path / "stream.bin"}
    path = write_config(tmp_path, paths={k: str(f) for k, f in files.items()})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    _save_encoder(files["weights"], toy_spec())
    arrays, meta = load_arrays(files["sequence"])
    save_arrays(files["sequence"], arrays, {**meta, meta_key: value})
    monkeypatch.setattr("avenas.cli.simulate_stream", _no_compute)
    assert main(["--config", str(path), "simulate"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {files['sequence']}: malformed frame sequence ({meta_key} " in err
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["latency_table.csv"]


@pytest.mark.parametrize("which,command", [("config", "gen-data"),
                                           ("latency_table", "search")])
def test_undecodable_text_input_exits_validation(tmp_path, capsys, which, command):
    binary = tmp_path / "binary.dat"
    binary.write_bytes(bytes(range(128, 256)))
    config = binary
    if which != "config":
        config = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                               which: str(binary)})
    assert main(["--config", str(config), command]) == EXIT_VALIDATION
    assert f"error: {binary}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_seed_flag_exits_validation(tmp_path, capsys):
    path = write_config(tmp_path)
    assert main(["--seed", "-1", "--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert "--seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_loop_and_loss_sections_are_their_dataclasses():
    # each setting of these sections is a field, declared once on its class
    for section, cls in (("search", SearchConfig), ("train", LoopConfig)):
        assert set(SCHEMA[section]) == {f.name for f in dataclasses.fields(cls)} - {"seed"}


# A tiny pipeline: gen-data, then a 2-step search and a 2-step train.
WALK_BASE = {"seed": 3, "profile": "toy-dims", "dims": {"resolutions": [12]},
             "data": {"n_sequences": 2, "frames_per_sequence": 4,
                      "stream_frames": 4, "synthesize_lut": True},
             "search": {"steps": 2, "batch_size": 2, "K": 1},
             "train": {"steps": 2, "batch_size": 2}}


def _walk_cases():
    """For every key of the schema: a value of a wrong type, NaN for a float
    key, 0, -1 and an empty list; for every constant setting, each of these."""
    for section, settings in [("", {"seed": SEED}), *SCHEMA.items()]:
        for key, setting in settings.items():
            where = f"{section}.{key}" if section else key
            nan = [float("nan")] if setting.hint is float else []
            for value in [5 if setting.hint is str else "x", *nan, 0, -1, []]:
                yield pytest.param(where, value, id=f"{where}={value!r}")
    for section, key, _ in CONSTANT_SETTINGS:
        for value in ["x", float("nan"), 0, -1, []]:
            yield pytest.param(f"{section}.{key}", value, id=f"{section}.{key}={value!r}")


@pytest.mark.parametrize("where,value", _walk_cases())
def test_schema_walk(tmp_path, capsys, where, value):
    # every value either runs or exits 2 at load, naming its key, having
    # written nothing; never a crash (1) or a runtime failure (3). A constant
    # setting exits 2 as an unknown key, whatever its value
    section, _, key = where.rpartition(".")
    doc = copy.deepcopy(WALK_BASE)
    doc["paths"] = {"out_dir": str(tmp_path / "out")}
    (doc.setdefault(section, {}) if section else doc)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    for command in ("gen-data", "search", "train"):
        code = main(["--config", str(path), command])
        if code != EXIT_OK:
            break
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_VALIDATION), err
    if (section, key) in {(s, k) for s, k, _ in CONSTANT_SETTINGS}:
        assert code == EXIT_VALIDATION and _names_unknown_key(err, section, key)
    elif code == EXIT_VALIDATION:
        assert f"config {where} must be" in err
    if code == EXIT_VALIDATION:
        assert not (tmp_path / "out").exists()


def _arch_command_exits_validation(tmp_path, capsys, doc, command):
    """``command`` on the architecture ``doc`` exits 2, having written nothing;
    returns its error output."""
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(doc))
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "arch": str(arch)})
    argv = ["--config", str(path), command] + ([str(arch)] if command != "train" else [])
    assert main(argv) == EXIT_VALIDATION
    assert not (tmp_path / "out").exists()
    return capsys.readouterr().err


def _toy_arch_doc():
    return random_arch(toy_spec(), np.random.default_rng(0)).to_json_dict()


@pytest.mark.parametrize("command", ["flops", "latency", "train"])
@pytest.mark.parametrize("fault,named", [
    ("resolution 16.5", "view 'mouth' 'input_resolution' is not an integer"),
    ("resolution true", "view 'mouth' 'input_resolution' is not an integer"),
    ("operators a string", "branch mouth/latent 'operators' is not a list of strings"),
    ("scale true", "branch mouth/latent 'channel_scales' is not a list of numbers")],
    ids=["resolution-16.5", "resolution-true", "operators-string", "scale-true"])
def test_mistyped_arch_fields_exit_validation(tmp_path, capsys, command, fault, named):
    doc = _toy_arch_doc()
    view = doc["views"]["mouth"]
    latent = view["branches"]["latent"]
    if fault == "resolution 16.5":
        view["input_resolution"] = 16.5
    elif fault == "resolution true":
        view["input_resolution"] = True
    elif fault == "operators a string":
        latent["operators"] = "conv"
    else:
        latent["channel_scales"][0] = True
    err = _arch_command_exits_validation(tmp_path, capsys, doc, command)
    assert f"{tmp_path / 'arch.json'}: architecture {named}" in err


@pytest.mark.parametrize("command", ["flops", "latency", "train"])
@pytest.mark.parametrize("fault,named", [
    ("extra view", "view 'nose' is not in the spec"),
    ("foreign branch", "branch mouth/gaze is not in the spec"),
    ("third backbone block", "branch mouth/backbone has 3 blocks; the spec has 2"),
    ("unequal lists", "branch mouth/latent has 6 operators but 7 channel scales")],
    ids=["extra-view", "foreign-branch", "third-backbone-block", "unequal-lists"])
def test_arch_entries_off_the_spec_exit_validation(tmp_path, capsys, command, fault,
                                                   named):
    doc = _toy_arch_doc()
    views = doc["views"]
    branches = views["mouth"]["branches"]
    if fault == "extra view":
        views["nose"] = copy.deepcopy(views["mouth"])
    elif fault == "foreign branch":
        branches["gaze"] = copy.deepcopy(views["left_eye"]["branches"]["gaze"])
    elif fault == "third backbone block":
        branches["backbone"]["operators"].append("conv")
        branches["backbone"]["channel_scales"].append(1.0)
    else:
        branches["latent"]["channel_scales"].append(1.0)
    err = _arch_command_exits_validation(tmp_path, capsys, doc, command)
    assert f"architecture {named}" in err


@pytest.mark.parametrize("shape", [[10**15], [2**32, 2**32]], ids=["1e15", "2^32x2^32"])
def test_oversized_weights_field_exits_validation(tmp_path, capsys, shape):
    weights = tmp_path / "weights.bin"
    header = json.dumps({"meta": {}, "fields": [{"name": "a", "shape": shape}]}).encode()
    weights.write_bytes(b"AVNS1\x00" + len(header).to_bytes(4, "little") + header
                        + bytes(16))
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "weights": str(weights)})
    assert main(["--config", str(path), "eval"]) == EXIT_VALIDATION
    assert f"{weights}: truncated field 'a' (16 of " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shape", [[2.7], ["2"], [True]], ids=["float", "string", "bool"])
def test_mistyped_weights_shape_exits_validation(tmp_path, capsys, shape):
    # the shape coerced by int() would read exactly the bytes stored
    weights = tmp_path / "weights.bin"
    header = json.dumps({"meta": {}, "fields": [{"name": "a", "shape": shape}]}).encode()
    weights.write_bytes(b"AVNS1\x00" + len(header).to_bytes(4, "little") + header
                        + bytes(8 * int(shape[0])))
    path = write_config(tmp_path, paths={"out_dir": str(tmp_path / "out"),
                                         "weights": str(weights)})
    assert main(["--config", str(path), "eval"]) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"{weights}: malformed header" in err and "field 'a'" in err
    assert not (tmp_path / "out").exists()
