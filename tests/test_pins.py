"""Behaviour fingerprints: the exact ``metrics.json`` bytes of four small
``cddet run`` invocations: one per learning system, and one that turns on
the essentials (mixup, label smoothing, logit+feature distillation and the
cosine head).

A speed-up that leaves these bytes alone has not changed what the engine
computes on them. A change that moves a pin must re-pin it and record the
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
        "aa": 0.6133333333333333,
        "af": -2.7755575615628914e-17,
        "aa_m": None,
        "map": 0.6579237658954483,
        "sha256": "1661e25393dea796720e9839db343a05720015e0f709e30bae3c4bd249eacb10",
    },
    "mc-replaykd-latent": {
        "aa": 0.5733333333333334,
        "af": -0.10000000000000003,
        "aa_m": 0.21555555555555558,
        "map": 0.5944298265270663,
        "sha256": "fc743aca96d0c656046b646c48ef05cae0e0fe8247b3fd764913e360a61ebc6e",
    },
    "mt-rebalance-sumlogit": {
        "aa": 0.6044444444444445,
        "af": -0.06000000000000005,
        "aa_m": 0.23777777777777778,
        "map": 0.6363670099019635,
        "sha256": "0a82c1f27819744540989aeac1e80688e6826f81bada76fa4ab3650201c93710",
    },
    "mc-rebalancecosfc-essentials": {
        "aa": 0.5777777777777778,
        "af": -0.07749999999999996,
        "aa_m": 0.2233333333333333,
        "map": 0.5959893443138868,
        "sha256": "b9ba5ce289b944d1fdd33efe5bc8054bcf296f66fc1fffdc5cc370a3c58346ac",
    },
}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pin-data")
    for spec in TASKS:
        save_dataset(synth_generate(spec, DATA_SEED), directory / f"task{spec.task_id}.csv")
    (directory / "essentials.cfg").write_text(ESSENTIALS, encoding="utf-8")
    return directory


def _pinned_run(directory, monkeypatch, name) -> bytes:
    # relative paths keep the config echo, and so the bytes, location-free
    monkeypatch.chdir(directory)
    out = f"out-{name}"
    argv = [
        "run", "--data", "task1.csv", "task2.csv", "task3.csv", *RUNS[name],
        "--memory", "24", "--epochs", "3", "--seed", "0", "--out", out,
    ]
    assert main(argv) == 0
    return (directory / out / "metrics.json").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_metrics_json_pinned(name, data_dir, monkeypatch):
    blob = _pinned_run(data_dir, monkeypatch, name)
    metrics = json.loads(blob)
    headline = {key: metrics[key] for key in ("aa", "af", "aa_m", "map")}
    headline["sha256"] = hashlib.sha256(blob).hexdigest()
    assert headline == PINS[name]
