"""Behaviour fingerprints: the exact ``metrics.json``, ``predictions.csv``,
``checkpoint.json`` and ``config.json`` bytes of four small ``cddet run``
invocations: one per learning system, and one that turns on the essentials
(mixup, label smoothing, logit+feature distillation and the cosine head).
The runs use relative paths, so ``config.json`` does not depend on where
the test runs.

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

# A budget of 25 leaves windows of 9 replayed rows, and 8 epochs give the
# essentials pin more distilling steps: a loss kernel that rounds its
# division differently moves these pins' last bits, which power-of-two
# windows hide. bc-distill keeps budget 24 and 3 epochs, as the control.
RUNS = {
    "bc-distill": ("--profile", "distill", "--system", "bc", "--memory", "24", "--epochs", "3"),
    "mc-replaykd-latent": ("--profile", "replay+kd", "--system", "mc", "--memory", "25", "--epochs", "3"),
    "mt-rebalance-sumlogit": (
        "--profile", "rebalance", "--system", "mt", "--aggregation", "sumlogit", "--memory", "25", "--epochs", "3",
    ),
    "mc-rebalancecosfc-essentials": (
        "--config", "essentials.cfg", "--profile", "rebalance-cosfc", "--system", "mc",
        "--memory", "25", "--epochs", "8",
    ),
}

PINS = {
    "bc-distill": {
        "aa": 0.6066666666666667,
        "af": 0.006666666666666599,
        "aa_m": None,
        "map": 0.657642256344496,
        "sha256": "67560266a67bc066598348d38882aff23833e9afbf46007896623bb2811e2a16",
        "predictions_sha256": "ea8e06ccbdc3053168bbec0115586aa71581867bf322da6e6dff0254be23e901",
        "checkpoint_sha256": "ca8a8fdf5084088ba180c9a5e3f7e6f3695d14e179a1f8d0cb5ac2562c4fbd77",
        "config_sha256": "8d260e22ad1a9d77c6fe81a52c630bb75b2f4372c5147c259a319208bc6ef560",
    },
    "mc-replaykd-latent": {
        "aa": 0.5133333333333333,
        "af": -0.05999999999999994,
        "aa_m": 0.16333333333333333,
        "map": 0.537157819819344,
        "sha256": "5a25c7a8ba27df01ead30f6cc0baf16a041787a9c3100c2712b863a66223db84",
        "predictions_sha256": "220c8e22a3cbfff8a02e8b7a78d9d1b03b3b8065a271ee00aae18546499662b9",
        "checkpoint_sha256": "0043220b54d8303bd55aed56cdfb2d17bac16e710b7b5cd1e3a340eb210dada6",
        "config_sha256": "5097525637cb69ce7b4003af448dd53c5791a50195dab91145bf817909fa6ae6",
    },
    "mt-rebalance-sumlogit": {
        "aa": 0.5511111111111112,
        "af": -0.03333333333333327,
        "aa_m": 0.20444444444444443,
        "map": 0.5494260915419041,
        "sha256": "463a90b217d7f6aae6e84ee7c7f6337c03194c642068a23f38c233ba60cbc039",
        "predictions_sha256": "df49fde892b705f5b67b22ad8368104371857f90359a70ccb754e27cde08d6ac",
        "checkpoint_sha256": "aca40de1cdac3c1b8d28c9189ca543183694c1b841b25c7365268bc9bbfe3aa9",
        "config_sha256": "9c79f7f74dfb8c04753d3309a9a3ed6db08bf0e4344ca1bbc5d89d35c5eb1f96",
    },
    "mc-rebalancecosfc-essentials": {
        "aa": 0.5688888888888889,
        "af": -0.07583333333333334,
        "aa_m": 0.24222222222222223,
        "map": 0.5649040069415531,
        "sha256": "c6b33376e38f7cd58605a5ca6a13832ae560f6f7bebea7b1b828713ff1d3e42f",
        "predictions_sha256": "cb5618d70c14846b51d538e8f034c5e6c643b894aab6f4e1b843bc83e3d77cc3",
        "checkpoint_sha256": "ab2cf4e2270e1616beb2097863f774d10900bb32a9fd52e7a99bb84fb683e26c",
        "config_sha256": "fe23fe029dc64768ed2c8a2239b871a6b4fc7d39f4fbcae5f9a76170d099490c",
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
        "--seed", "0", "--out", out,
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
    for key, artifact in (
        ("predictions_sha256", "predictions.csv"), ("checkpoint_sha256", "checkpoint.json"), ("config_sha256", "config.json"),
    ):
        headline[key] = hashlib.sha256((out / artifact).read_bytes()).hexdigest()
    assert headline == PINS[name]
