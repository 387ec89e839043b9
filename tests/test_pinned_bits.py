"""The last bits of a search and of a training run, pinned.

A toy search of a few steps (at 16 px only, and on the 12/16/24 px ladder)
and a short toy encoder training run, hashed with sha256: the search's log
rows, both logit matrices and every weight; the training run's log and every
weight. A change that moves any bit of them (a node recorded in another
order, a sum taken in another order) fails here, however small the change.

The digests hold for numpy 2.4.6 with OpenBLAS 0.3.31 (SkylakeX kernels), at
1 and 2 BLAS threads. A change that moves bits by design records new ones:

    PYTHONPATH=src python tests/test_pinned_bits.py
"""

import dataclasses
import hashlib
import json

import pytest

from avenas.cost_models import synthetic_latency_table
from avenas.objective import SyntheticTask, generate_pool, toy_loss_weights
from avenas.search_engine import SearchConfig, SearchRun
from avenas.supernet import toy_spec
from avenas.training import TrainConfig, train_encoder

from conftest import reference_toy_arch

PINNED = {
    "search-16px": {
        "log": "bc2a47c56bb28d3f3d483453377418e482bbd62866655e074426f7cdd4c13c35",
        "op_logits": "3a273dbb152c27921a9a708907593f898630438dea181ff3d0d4a51444aaf798",
        "ch_logits": "8300cf7f3733b0b12f02b858860063122aacc7e3ce41dace59cd82fcb1ad91c4",
        "weights": "9ca070e1b48b08e21ff73d089190264eac8e3830c4cd8dd921c74e9552cea9d8",
    },
    "search-ladder": {
        "log": "d4acf41ad5ac0c246f97cbc2eb86815ec6af5ddfeabe311c4a3a402d7416d38a",
        "op_logits": "256c0c40c1bb43f1c99ce313e6e199ab904bb529dd986f0a6f73a45de34c4472",
        "ch_logits": "2ea4c5de81127818d39b76db4bab04ea9353af869c94844192f22d916be83faa",
        "weights": "92c7f7aa8b46feebaf5109e3b4b8b7858a6aa2e4699b1337727e5c4245afeec6",
    },
    "train": {
        "log": "8ce5ac5e109fb8f5b712abbb554f4cb03bed3e5cebca20a5ba8cc14a5f43eaa3",
        "weights": "73c9137f35781ddc8bf492348a6300ce81427743ab4d45df340a01008cf37a4c",
    },
}


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _weights_sha(weights: dict) -> str:
    return _sha(*(part for name, t in weights.items()
                  for part in (name.encode(), t.data.tobytes())))


def _setup(resolutions):
    spec = toy_spec()
    spec = dataclasses.replace(spec, search_space=dataclasses.replace(
        spec.search_space, resolutions=resolutions))
    task = SyntheticTask(spec, seed=31)
    return spec, task, generate_pool(task, 32, n_sequences=4, frames_per_sequence=8)


def search_digests(resolutions) -> dict:
    spec, task, frames = _setup(resolutions)
    cfg = SearchConfig(steps=12, batch_size=8, K=4, gumbel_temperature=2.0,
                       lr=3e-3, seed=33)
    run = SearchRun(spec, cfg, synthetic_latency_table(spec), task, frames,
                    toy_loss_weights())
    log = [run.step() for _ in range(cfg.steps)]
    return {"log": _sha(json.dumps(log, sort_keys=True).encode()),
            "op_logits": _sha(run.op_logits.data.tobytes()),
            "ch_logits": _sha(run.ch_logits.data.tobytes()),
            "weights": _weights_sha(run.weights)}


def train_digests() -> dict:
    spec, task, frames = _setup((12, 16, 24))
    cfg = TrainConfig(steps=12, batch_size=8, lr=3e-3, seed=34, log_every=4)
    enc, log = train_encoder(spec, reference_toy_arch(spec), task, frames, cfg,
                             toy_loss_weights())
    return {"log": _sha(json.dumps(log, sort_keys=True).encode()),
            "weights": _weights_sha(enc.weights)}


CASES = {"search-16px": lambda: search_digests((16,)),
         "search-ladder": lambda: search_digests((12, 16, 24)),
         "train": train_digests}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bits_are_pinned(case):
    assert CASES[case]() == PINNED[case]


if __name__ == "__main__":
    print(json.dumps({case: run() for case, run in CASES.items()}, indent=4))
