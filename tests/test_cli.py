import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import avenas
from avenas.cli import EXIT_OK, EXIT_RUNTIME, EXIT_VALIDATION, main
from avenas.cost_models import load_latency_table, score_arch
from avenas.serialize import save_arrays
from avenas.supernet import (
    DiscreteEncoder, SampledArch, random_arch, toy_spec, validate_arch,
)
from avenas.objective import load_sequence


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
    arch = tmp_path / "arch.json"
    random_arch(toy_spec(), np.random.default_rng(0)).save(arch)
    path = write_config(tmp_path, **{section: {key: value}},
                        paths={"out_dir": str(tmp_path / "out"), "arch": str(arch)})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK
    assert main(["--config", str(path), section]) == EXIT_VALIDATION
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "weights.bin").exists()


@pytest.mark.parametrize("section", ["search", "train"])
@pytest.mark.parametrize("key", ["reweight_temperature", "reweight_momentum"])
def test_reweight_keys_only_in_loss_section(tmp_path, capsys, section, key):
    # loss.tau / loss.momentum are the one place these are set
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
    ({"loss": {"tau": True}}, "loss.tau"), ({"loss": {"momentum": "x"}}, "loss.momentum"),
    ({"seed": 2.7}, "seed"), ({"seed": True}, "seed"),
    ({"data": {"n_sequences": 2.5}}, "data.n_sequences"),
    ({"data": {"synthesize_lut": "no"}}, "data.synthesize_lut"),
    ({"dims": {"z_dim": "8"}}, "dims.z_dim"),
    ({"dims": {"resolutions": [12, 16.0]}}, "dims.resolutions")])
def test_mistyped_settings_exit_validation(tmp_path, capsys, overrides, where):
    path = write_config(tmp_path, **overrides)
    assert main(["--config", str(path), "gen-data"]) == EXIT_VALIDATION
    assert f"config {where} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value", [
    ("resolutions", []), ("resolutions", [0]), ("resolutions", [12, -16]),
    ("z_dim", -3), ("z_dim", 0), ("n_keypoints", 0), ("early_channels", 0)])
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


def test_null_lr_decay_every_accepted(tmp_path):
    path = write_config(tmp_path, search={"lr_decay_every": None},
                        train={"lr_decay_every": None, "lr": 1})
    assert main(["--config", str(path), "gen-data"]) == EXIT_OK


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
