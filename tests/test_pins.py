"""Behaviour fingerprints: the exact ``metrics.json``, ``predictions.csv``
and ``checkpoint.json`` bytes of four small ``cddet run`` invocations: one
per learning system, and one that turns on the essentials (mixup, label
smoothing, logit+feature distillation and the cosine head).

The predictions and the checkpoint hold every score and weight to the last
bit, so they move on a change that rounds differently but leaves the
metrics alone. A speed-up that leaves these bytes alone has not changed
what the engine computes on them. A change that moves a pin must re-pin it and record the
reason together with the old and new AA, AF, AA-M and mAP.
"""

import dataclasses
import hashlib
import json

import pytest
from conftest import tiny_spec

from cddet.cli import main
from cddet.stream import save_dataset, synth_generate

# Three overlapping tasks (difficulty 1.2 leaves errors to make) with a
# larger test split, so accuracies and APs are not all 1.0.
DATA_SEED = 17
TASKS = [
    dataclasses.replace(tiny_spec(t, direction=t - 1, difficulty=1.2), n_test=150)
    for t in (1, 2, 3)
]
# a config file in the data directory, read by the essentials pin
ESSENTIALS = "mixup = 0.4\nlabel_smooth = 0.1\ndistill_form = logit+feature\n"

RUNS = {
    "bc-distill": ("--profile", "distill", "--system", "bc"),
    "mc-replaykd-latent": ("--profile", "replay+kd", "--system", "mc"),
    "mt-rebalance-sumlogit": (
        "--profile", "rebalance", "--system", "mt", "--aggregation", "sumlogit",
    ),
    "mc-rebalancecosfc-essentials": (
        "--config", "essentials.cfg", "--profile", "rebalance-cosfc", "--system", "mc",
    ),
}

PINS = {
    "bc-distill": {
        "aa": 0.6066666666666667,
        "af": 0.006666666666666599,
        "aa_m": None,
        "map": 0.657642256344496,
        "sha256": "67560266a67bc066598348d38882aff23833e9afbf46007896623bb2811e2a16",
        "predictions_sha256": "db16f3a4c4ea2aeba6f0c10071f2ec66bd68ee78a48c747a1b6aaecbeb73c960",
        "checkpoint_sha256": "22e9e311e4fd8c50d89c03d764030e117e88df772295f973ec7e2972ba33e220",
    },
    "mc-replaykd-latent": {
        "aa": 0.57,
        "af": -0.09749999999999999,
        "aa_m": 0.24222222222222223,
        "map": 0.6011466891929014,
        "sha256": "95d15df67518512cfa5a4c22690b34f886c8dd2a99adf080e8def17fa797a232",
        "predictions_sha256": "69a70e2115dc175c24058b07aabb7d64910248be6606061786dc7697a9346c68",
        "checkpoint_sha256": "4ff016c0f4c7b3367f9c154b3ddd2702db0e756150173e01f2bdd0398660c7d4",
    },
    "mt-rebalance-sumlogit": {
        "aa": 0.601111111111111,
        "af": -0.07916666666666666,
        "aa_m": 0.24444444444444446,
        "map": 0.6325656662893131,
        "sha256": "49ecd2e7171580643f5255a29d4da463cd06f6cfbbbf84fcb7a25f6b76276f48",
        "predictions_sha256": "f17fdcfd1bc3333ff80dec02f5923862411f7090ee59d019fcca8aa500dbbe28",
        "checkpoint_sha256": "a3b49645ca117f3136a82eac96b36229828fa718caf0468fa675563a972fa1e7",
    },
    "mc-rebalancecosfc-essentials": {
        "aa": 0.5822222222222223,
        "af": -0.08333333333333331,
        "aa_m": 0.23777777777777778,
        "map": 0.5897189064421027,
        "sha256": "d223d98ab29ee177fe7faa9140bdd9bfe6ed182e4497bb3e8c179d04f870637e",
        "predictions_sha256": "0cfd3db6cf274d2a59f113b1307d78f119def5f7c6652f22cd653cd2ff175437",
        "checkpoint_sha256": "5c21d9c6536ee09bb7fc28dfb076125eda18ae8163e5845795509d8f39560055",
    },
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pin-data")
    for spec in TASKS:
        save_dataset(synth_generate(spec, DATA_SEED), directory / f"task{spec.task_id}.csv")
    (directory / "essentials.cfg").write_text(ESSENTIALS, encoding="utf-8")
    return directory


def _pinned_run(directory, monkeypatch, name):
    # relative paths keep the config echo, and so the bytes, location-free
    monkeypatch.chdir(directory)
    out = f"out-{name}"
    argv = [
        "run", "--data", "task1.csv", "task2.csv", "task3.csv", *RUNS[name],
        "--memory", "24", "--epochs", "3", "--seed", "0", "--out", out,
    ]
    assert main(argv) == 0
    return directory / out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_json_pinned(name, data_dir, monkeypatch):
    out = _pinned_run(data_dir, monkeypatch, name)
    blob = (out / "metrics.json").read_bytes()
    metrics = json.loads(blob)
    headline = {key: metrics[key] for key in ("aa", "af", "aa_m", "map")}
    headline["sha256"] = hashlib.sha256(blob).hexdigest()
    for key, artifact in (("predictions_sha256", "predictions.csv"), ("checkpoint_sha256", "checkpoint.json")):
        headline[key] = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
    assert headline == PINS[name]
