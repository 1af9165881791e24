import json
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_scenario

from cddet import cli
from cddet.cli import ExperimentConfig, main, recompute_metrics_json
from cddet.errors import ConfigError
from cddet.stream import save_dataset, synth_generate


@pytest.fixture
def dataset_paths(tmp_path):
    scenario = tiny_scenario(2, seed=13)
    paths = []
    for spec in scenario.tasks:
        data = synth_generate(spec, scenario.seed)
        path = tmp_path / f"task{spec.task_id}.csv"
        save_dataset(data, path)
        paths.append(str(path))
    return paths


def run_cli(*argv):
    return main(list(argv))


class TestValidation:
    def test_aggregation_requires_mt(self, tmp_path):
        code = run_cli(
            "run", "--scenario", "easy", "--profile", "distill", "--system", "bc",
            "--aggregation", "max", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_scenario_xor_data(self, tmp_path, dataset_paths):
        code = run_cli(
            "run", "--profile", "distill", "--system", "mc", "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_unknown_profile(self, tmp_path, dataset_paths):
        code = run_cli(
            "run", "--data", *dataset_paths, "--profile", "mystery", "--system", "mc",
            "--out", str(tmp_path / "o"),
        )
        assert code == 2

    def test_paper_memory_budgets_accepted(self):
        for budget in (1500, 1000, 500, 100):
            cfg = ExperimentConfig(
                scenario="hard", profile="distill", system="mc",
                memory=budget, out="somewhere",
            )
            cfg.validate()

    def test_negative_memory_rejected(self):
        cfg = ExperimentConfig(scenario="hard", profile="distill", system="mc", memory=-1, out="x")
        with pytest.raises(ConfigError):
            cfg.validate()


class TestRun:
    def test_run_populates_output_dir(self, tmp_path, dataset_paths):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--data", *dataset_paths, "--profile", "replay", "--system", "mc",
            "--memory", "30", "--seed", "5", "--epochs", "2", "--out", str(out),
        )
        assert code == 0
        for artifact in (
            "accuracy_matrix.csv", "metrics.json", "pr_curves.csv",
            "predictions.csv", "checkpoint.json", "config.json",
        ):
            assert (out / artifact).exists(), artifact

    def test_eval_reproduces_metrics_bit_for_bit(self, tmp_path, dataset_paths):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "distill", "--system", "mt",
            "--aggregation", "sumlogit", "--memory", "30", "--seed", "5",
            "--epochs", "2", "--out", str(out),
        ) == 0
        recomputed = recompute_metrics_json(out)
        assert recomputed == (out / "metrics.json").read_text()

    def test_rerun_into_other_dir_is_byte_identical(self, tmp_path, dataset_paths):
        args = (
            "run", "--data", *dataset_paths, "--profile", "replay", "--system", "mc",
            "--memory", "30", "--seed", "9", "--epochs", "2",
        )
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        a = (tmp_path / "a" / "metrics.json").read_bytes()
        b = (tmp_path / "b" / "metrics.json").read_bytes()
        assert a == b

    def test_seed_env_fallback(self, tmp_path, dataset_paths, monkeypatch):
        monkeypatch.setenv("CDD_SEED", "21")
        out = tmp_path / "env"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "finetune", "--system", "mc",
            "--memory", "0", "--epochs", "1", "--out", str(out),
        ) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["seed"] == 21

    def test_config_file_with_flag_override(self, tmp_path, dataset_paths):
        config_file = tmp_path / "grid.cfg"
        config_file.write_text(
            "profile = replay\n"
            "system = mc\n"
            "memory = 30\n"
            "epochs = 1  # quick\n"
            "seed = 4\n"
            f"data = {dataset_paths[0]} {dataset_paths[1]}\n"
        )
        out = tmp_path / "cfg-run"
        assert run_cli(
            "run", "--config", str(config_file), "--profile", "finetune",
            "--memory", "0", "--out", str(out),
        ) == 0
        config = json.loads((out / "config.json").read_text())
        assert config["profile"] == "finetune"
        assert config["seed"] == 4

    def test_seed_grid_with_jobs(self, tmp_path, dataset_paths):
        config_file = tmp_path / "grid.cfg"
        config_file.write_text(
            "profile = finetune\nsystem = mc\nmemory = 0\nepochs = 1\nseeds = 3 4\n"
            f"data = {dataset_paths[0]} {dataset_paths[1]}\n"
        )
        out = tmp_path / "grid"
        assert run_cli("run", "--config", str(config_file), "--jobs", "2", "--out", str(out)) == 0
        assert (out / "3" / "metrics.json").exists()
        assert (out / "4" / "metrics.json").exists()


class TestEval:
    def test_hand_written_matrix(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_text("0.9,0.8,0.7\n,0.95,0.85\n,,0.9\n")
        assert run_cli("eval", str(path)) == 0
        out = capsys.readouterr().out
        assert "0.816667" in out  # AA of the worked example
        assert "-0.125000" in out  # AF of the worked example

    def test_out_of_range_matrix_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1.2\n,0.7\n")
        assert run_cli("eval", str(path)) == 2


class TestVerify:
    def test_battery_passes_and_is_deterministic(self, capsys):
        assert run_cli("verify", "--seed", "1") == 0
        first = capsys.readouterr().out
        assert run_cli("verify", "--seed", "1") == 0
        second = capsys.readouterr().out
        assert first == second
        names = [line.split()[1] for line in first.strip().splitlines()[:-1]]
        assert len(names) >= 5
        assert all(line.startswith("PASS") for line in first.strip().splitlines()[:-1])


class TestConfigKeys:
    def test_unknown_key_names_key_and_line(self, tmp_path, dataset_paths, capsys):
        config_file = tmp_path / "typo.cfg"
        config_file.write_text(
            "profile = finetune\n"
            "system = mc\n"
            "epoch = 1\n"
            "memroy = 10\n"
            f"data = {dataset_paths[0]}\n"
        )
        out = tmp_path / "typo-run"
        assert run_cli("run", "--config", str(config_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'epoch'" in err
        assert not out.exists()
