import contextlib
import errno
import io
import json
import math
import os
import re
import tempfile
from pathlib import Path

import pytest
from conftest import tiny_scenario, tiny_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from cddet import cli, trainer
from cddet.cli import ExperimentConfig, main, recompute_metrics_json
from cddet.errors import ConfigError, ParseError
from cddet.model import load_checkpoint
from cddet.stream import load_dataset, save_dataset, synth_generate


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


ARTIFACTS = ("accuracy_matrix.csv", "metrics.json", "pr_curves.csv", "predictions.csv", "checkpoint.json", "config.json")


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

    def test_scenario_and_data_exclude_each_other(self, tmp_path, dataset_paths, capsys):
        with pytest.raises(SystemExit) as exited:
            run_cli(
                "run", "--scenario", "hard", "--data", *dataset_paths, "--profile", "finetune",
                "--system", "mc", "--out", str(tmp_path / "o"),
            )
        assert exited.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
            cfg.resolve()

    def test_negative_memory_rejected(self):
        cfg = ExperimentConfig(scenario="hard", profile="distill", system="mc", memory=-1, out="x")
        with pytest.raises(ConfigError):
            cfg.resolve()


class TestChecksBeforeData:
    """Each bad setting exits 2 naming itself before any data is built."""

    @pytest.fixture(autouse=True)
    def no_data(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("data built before the settings were checked")

        for name in ("build_scenario", "synth_generate", "load_dataset", "run_scenario_over_sessions"):
            monkeypatch.setattr(cli, name, forbidden)

    @pytest.mark.parametrize("lines, named", [
        ("label_smooth = -0.5", "label_smooth"),
        ("label_smooth = 1.0", "label_smooth"),
        ("profile = rebalance\nJ = 4", "J = 4"),
        ("system = bc\nlabel_smooth = 0.1", "label_smooth"),
        ("mixup = -1", "mixup"),
        ("replay_payload = bogus\nmemory = 0", "replay_payload"),
        ("warmup = flase", "warmup"),
        ("seeds = 3 3", "seeds"),
        ("seeds =", "seeds"),
    ])
    def test_bad_setting(self, tmp_path, capsys, lines, named):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text(f"scenario = hard\nprofile = distill\nsystem = mc\n{lines}\n")
        out = tmp_path / "o"
        assert run_cli("run", "--config", str(config_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["", "seeds = 3 4\n"])
    def test_out_naming_a_file(self, tmp_path, capsys, grid):
        config_file = tmp_path / "run.cfg"
        config_file.write_text(f"scenario = hard\nprofile = distill\nsystem = mc\nepochs = 1\nmemory = 0\n{grid}")
        out = tmp_path / "taken"
        out.write_text("not a directory\n")
        assert run_cli("run", "--config", str(config_file), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err, err
        assert out.read_text() == "not a directory\n"


class TestRun:
    def test_run_populates_output_dir(self, tmp_path, dataset_paths):
        out = tmp_path / "run"
        code = run_cli(
            "run", "--data", *dataset_paths, "--profile", "replay", "--system", "mc",
            "--memory", "30", "--seed", "5", "--epochs", "2", "--out", str(out),
        )
        assert code == 0
        for artifact in ARTIFACTS:
            assert (out / artifact).exists(), artifact

    def test_the_default_epochs_are_six(self, tmp_path, dataset_paths, monkeypatch):
        """Without ``--epochs`` a run trains ``TrainConfig``'s 6 epochs:
        config.json records them, and the first session, which replays
        nothing, takes 6 x ceil(rows / 32) Adam steps."""
        optimizers, step = [], trainer.Adam.step

        def recorded(optimizer):
            optimizers.append(optimizer)
            step(optimizer)

        monkeypatch.setattr(trainer.Adam, "step", recorded)
        out = tmp_path / "run"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "finetune", "--system", "mc", "--memory", "0",
            "--out", str(out),
        ) == 0
        assert json.loads((out / "config.json").read_text())["epochs"] == 6
        assert optimizers[0].t == 6 * math.ceil(len(load_dataset(dataset_paths[0]).train) / 32)

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

    def test_a_seed_grid_may_hold_seed_0(self, tmp_path, dataset_paths):
        config_file = tmp_path / "grid.cfg"
        config_file.write_text(
            f"profile = finetune\nsystem = mc\nmemory = 0\nepochs = 1\nseeds = 0 1\ndata = {' '.join(dataset_paths)}\n"
        )
        grid = tmp_path / "grid"
        assert run_cli("run", "--config", str(config_file), "--out", str(grid)) == 0
        assert sorted(p.name for p in grid.iterdir()) == ["0", "1"]
        assert json.loads((grid / "0" / "config.json").read_text())["seed"] == 0

    def test_seed_grid_equals_single_runs(self, tmp_path, dataset_paths):
        body = f"profile = replay\nsystem = mc\nmemory = 20\nepochs = 1\ndata = {dataset_paths[0]} {dataset_paths[1]}\n"
        single_file, grid_file = tmp_path / "single.cfg", tmp_path / "grid.cfg"
        single_file.write_text(body)
        grid_file.write_text(body + "seeds = 3 4\n")
        grid = tmp_path / "grid"
        assert run_cli("run", "--config", str(grid_file), "--out", str(grid)) == 0
        assert sorted(p.name for p in grid.iterdir()) == ["3", "4"]
        for seed in ("3", "4"):
            single = tmp_path / f"single-{seed}"
            assert run_cli("run", "--config", str(single_file), "--seed", seed, "--out", str(single)) == 0
            names = sorted(p.name for p in single.iterdir())
            assert names == sorted(ARTIFACTS)
            assert sorted(p.name for p in (grid / seed).iterdir()) == names
            for name in names:
                assert (grid / seed / name).read_bytes() == (single / name).read_bytes(), f"{seed}/{name}"


    def test_mismatched_widths_rejected_before_the_model(self, tmp_path, capsys, monkeypatch):
        paths = []
        for spec in (tiny_spec(1, 0, dim=6), tiny_spec(2, 1, dim=5)):
            path = tmp_path / f"task{spec.task_id}.csv"
            save_dataset(synth_generate(spec, 0), path)
            paths.append(str(path))

        def forbidden(*args, **kwargs):
            raise AssertionError("model built before the widths were checked")

        monkeypatch.setattr(trainer.Model, "build", forbidden)
        assert run_cli(
            "run", "--data", *paths, "--profile", "finetune", "--system", "mc",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert "task 2 has 5 features, task 1 has 6" in capsys.readouterr().err

    def test_non_finite_feature_rejected_before_training(self, tmp_path, dataset_paths, capsys, monkeypatch):
        path = Path(dataset_paths[1])
        lines = path.read_text().splitlines()
        lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
        path.write_text("\n".join(lines) + "\n")

        def forbidden(*args, **kwargs):
            raise AssertionError("training started on a non-finite feature")

        monkeypatch.setattr(cli, "run_scenario_over_sessions", forbidden)
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "finetune", "--system", "mc",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert capsys.readouterr().err == f"error: {path}: line 6: non-finite feature value\n"

    @pytest.mark.parametrize("copy", [False, True])
    def test_two_files_of_one_task_rejected_before_training(self, tmp_path, dataset_paths, capsys, monkeypatch, copy):
        """The same file twice, or a copy of it: the second names the first."""
        first, second = dataset_paths[0], dataset_paths[0]
        if copy:
            second = str(tmp_path / "copy.csv")
            Path(second).write_bytes(Path(first).read_bytes())

        def forbidden(*args, **kwargs):
            raise AssertionError("training started on a repeated task")

        monkeypatch.setattr(cli, "run_scenario_over_sessions", forbidden)
        assert run_cli(
            "run", "--data", first, dataset_paths[1], second, "--profile", "finetune", "--system", "mc",
            "--out", str(tmp_path / "o"),
        ) == 2
        assert capsys.readouterr().err == f"error: {second}: task 1 is also the task of {first}\n"

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.cfg"
        assert run_cli("run", "--config", str(missing), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err


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

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_matrix_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "m.csv"
        path.write_text(text)
        assert run_cli("eval", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: line 1: no accuracy rows\n"

    @pytest.fixture
    def hard_run(self, tmp_path, capsys):
        out = tmp_path / "hard"
        assert run_cli(
            "run", "--scenario", "hard", "--profile", "finetune", "--system", "mc",
            "--memory", "0", "--epochs", "1", "--out", str(out),
        ) == 0
        assert run_cli("eval", str(out)) == 0
        capsys.readouterr()
        return out

    @pytest.mark.parametrize("text, message", [
        ("{", "line 1: malformed JSON: Expecting property name enclosed in double quotes"),
        ("[1, 2]", "line 1: expected a JSON object"),
        ('{"scenario": ["hard"]}', "scenario: expected a string, found ['hard']"),
        ('{"scenario": "hard"}', "task_ids: expected a list of integers, found None"),
        ('{"scenario": "hard", "task_ids": [1, 2, 7, 11, "12"]}', "task_ids: expected a list of integers, found [1, 2, 7, 11, '12']"),
    ])
    def test_malformed_config_json(self, hard_run, capsys, text, message):
        path = hard_run / "config.json"
        path.write_text(text)
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize("name", ["accuracy_matrix.csv", "predictions.csv"])
    def test_run_file_that_is_not_utf8(self, hard_run, capsys, name):
        path = hard_run / name
        lines = path.read_bytes().split(b"\n")
        lines[1] += b"\xff"
        path.write_bytes(b"\n".join(lines))
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8 text (invalid start byte)\n"

    def test_matrix_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "m.csv"
        path.write_bytes(b"0.5,0.4\n,0.\xff7\n")
        assert run_cli("eval", str(path)) == 2
        assert capsys.readouterr().err == f"error: {path}: line 2: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("edit, field", [
        (lambda document: document.update(aa=document["aa"] + 0.25, map=0.0), "aa"),
        (lambda document: document.pop("map"), "map"),
        (lambda document: document.update(zz=None), "zz"),
    ], ids=["aa-and-map-moved", "map-dropped", "field-added"])
    def test_stored_metrics_that_differ_from_their_recomputation(self, hard_run, capsys, edit, field):
        """``eval`` reports the first field, in the file's key order, in
        which the stored ``metrics.json`` differs from what it recomputes."""
        path = hard_run / "metrics.json"
        document = json.loads(path.read_text())
        edit(document)
        path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: field {field!r} differs from its recomputation\n"

    def test_stored_metrics_that_are_not_an_object(self, hard_run, capsys):
        path = hard_run / "metrics.json"
        path.write_text("[]\n")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: line 1: expected a JSON object\n"

    def test_run_dir_with_an_empty_matrix(self, hard_run, capsys):
        path = hard_run / "accuracy_matrix.csv"
        path.write_text("")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: line 1: no accuracy rows\n"

    @pytest.mark.parametrize("task_1, message", [
        (None, "4 tasks for 5 accuracy-matrix columns"),
        ("99", "tasks [2, 7, 11, 12, 99] are not those of scenario 'hard'"),
    ])
    def test_predictions_hold_the_runs_tasks(self, hard_run, capsys, task_1, message):
        """Task 1's rows dropped, or relabelled task 99: the predictions no
        longer match the matrix's width, or the scenario's tasks."""
        path = hard_run / "predictions.csv"
        header, *rows = path.read_text().splitlines()
        kept = [row for row in rows if not row.startswith("1,")]
        if task_1 is not None:
            kept += [task_1 + row[1:] for row in rows if row.startswith("1,")]
        path.write_text("\n".join([header, *kept]) + "\n")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.fixture
    def data_run(self, tmp_path, dataset_paths, capsys):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "finetune", "--system", "mc",
            "--memory", "0", "--seed", "5", "--epochs", "1", "--out", str(out),
        ) == 0
        capsys.readouterr()
        return out

    @staticmethod
    def _relabel_task_1(path, row_tail):
        header, *rows = path.read_text().splitlines()
        path.write_text("\n".join([header, *("99" + row_tail(row[1:]) if row.startswith("1,") else row for row in rows)]) + "\n")

    def test_predictions_relabelled_in_a_data_run(self, data_run, capsys):
        """Each record id names the task that wrote it: task 1's rows
        relabelled task 99 in the task column only."""
        path = data_run / "predictions.csv"
        self._relabel_task_1(path, lambda tail: tail)
        assert run_cli("eval", str(data_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: record '1-test-0' is not one of task 99's\n"

    def test_predictions_relabelled_in_both_columns(self, data_run, capsys):
        """Task 1's rows relabelled task 99 in the task column and in their
        record ids: ``config.json`` records the run's task ids."""
        path = data_run / "predictions.csv"
        self._relabel_task_1(path, lambda tail: tail.replace(",1-test-", ",99-test-", 1))
        assert run_cli("eval", str(data_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: tasks [2, 99] are not the run's tasks [1, 2]\n"

    def test_repeated_record_id(self, hard_run, capsys):
        """A row written twice would count its record twice in AA-M and AP."""
        path = hard_run / "predictions.csv"
        lines = path.read_text().splitlines()
        lines.insert(5, lines[1])
        path.write_text("\n".join(lines) + "\n")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: record '1-test-0' is repeated in task 1\n"

    @pytest.mark.parametrize("label, missing", [("1", "fake"), ("0", "real")])
    def test_a_task_of_one_polarity(self, hard_run, capsys, label, missing):
        """Task 7's fake rows, or its real rows, deleted: its PR curve needs
        both, and the file is at fault, not the run."""
        path = hard_run / "predictions.csv"
        header, *rows = path.read_text().splitlines()
        kept = [row for row in rows if not (row.startswith("7,") and row.split(",")[2] == label)]
        assert len(kept) < len(rows)
        path.write_text("\n".join([header, *kept]) + "\n")
        assert run_cli("eval", str(hard_run)) == 2
        assert capsys.readouterr().err == f"error: {path}: task 7 has no {missing} rows; its PR curve needs both\n"

    @pytest.mark.parametrize(
        "row, message",
        [
            ("1,r,0,0,0.1,x,0", "malformed prediction row"),
            ("1,r,0,0,0.1,,", "task 1 mixes rows with and without classes"),
        ],
    )
    def test_bad_predictions_row_names_its_line(self, tmp_path, dataset_paths, capsys, row, message):
        out = tmp_path / "run"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "replay", "--system", "mc",
            "--memory", "30", "--seed", "5", "--epochs", "1", "--out", str(out),
        ) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        lines.insert(2, row)  # after the first row of task 1, which has classes
        (out / "predictions.csv").write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("eval", str(out)) == 2
        assert capsys.readouterr().err == f"error: {out / 'predictions.csv'}: line 3: {message}\n"


class TestUnreadableInputs:
    @pytest.mark.parametrize(
        "target", ["--config", "--data", "accuracy_matrix.csv", "predictions.csv", "config.json", "absent"]
    )
    def test_an_unreadable_input_exits_2_naming_it(self, tmp_path, dataset_paths, capsys, target):
        """Each input replaced by a directory, or an ``eval`` path that does not exist."""
        out = tmp_path / "o"
        settings = ["--profile", "finetune", "--system", "mc", "--memory", "0", "--epochs", "1", "--out", str(out)]
        path, reason = tmp_path / "in", os.strerror(errno.EISDIR)
        if target == "--config":
            path.mkdir()
            argv = ["run", "--config", str(path), "--out", str(out)]
        elif target == "--data":
            path.mkdir()
            argv = ["run", "--data", dataset_paths[0], str(path), *settings]
        elif target == "absent":
            reason = os.strerror(errno.ENOENT)
            argv = ["eval", str(path)]
        else:
            assert run_cli("run", "--data", *dataset_paths, *settings) == 0
            path = out / target
            path.unlink()
            path.mkdir()
            argv = ["eval", str(out)]
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err == f"error: {path}: cannot read ({reason})\n"

    @pytest.mark.parametrize("flag", ["--config", "--data"])
    def test_a_run_input_that_is_not_utf8(self, tmp_path, dataset_paths, capsys, flag):
        path = Path(dataset_paths[1]) if flag == "--data" else tmp_path / "run.cfg"
        text = path.read_bytes() if flag == "--data" else b"profile = finetune\n"
        path.write_bytes(text + b"\xff\n")
        source = ["--data", *dataset_paths] if flag == "--data" else ["--config", str(path)]
        assert run_cli("run", *source, "--profile", "finetune", "--system", "mc", "--out", str(tmp_path / "o")) == 2
        line = text.count(b"\n") + 1
        assert capsys.readouterr().err == f"error: {path}: line {line}: not UTF-8 text (invalid start byte)\n"


class TestCheckpointMemory:
    """A run's checkpoint loads only while its memory matches its model's
    class registry."""

    @pytest.fixture
    def checkpoint(self, tmp_path, dataset_paths):
        # two tasks give four classes; a budget of 3 trims the last to no rows
        out = tmp_path / "run"
        assert run_cli(
            "run", "--data", *dataset_paths, "--profile", "replay", "--system", "mc",
            "--memory", "3", "--epochs", "1", "--out", str(out),
        ) == 0
        return out / "checkpoint.json"

    def test_a_class_trimmed_to_no_rows_loads(self, checkpoint):
        model, memory = load_checkpoint(checkpoint)
        assert memory["classes"]["3"].shape == (0, model.extractor.latent_width)

    @pytest.mark.parametrize("edit, field", [
        (lambda classes: classes.update({"99": classes.pop("0")}), "memory.classes['99']"),
        (lambda classes: classes.update({"4": classes.pop("0")}), "memory.classes['4']: the model has 4 classes"),
    ], ids=["class-key-outside-the-registry", "class-key-one-past-the-registry"])
    def test_memory_that_does_not_match_the_model(self, checkpoint, edit, field):
        blob = json.loads(checkpoint.read_text())
        edit(blob["memory"]["classes"])
        checkpoint.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=re.escape(field)):
            load_checkpoint(checkpoint)


class TestVerify:
    def test_battery_passes_and_is_deterministic(self, capsys):
        assert run_cli("verify", "--seed", "1") == 0
        first = capsys.readouterr().out
        assert run_cli("verify", "--seed", "1") == 0
        second = capsys.readouterr().out
        assert first == second
        names = [line.split()[1] for line in first.strip().splitlines()[:-1]]
        assert names == [
            "loss-gradient-suite",
            "step-central-differences",
            "step-equals-tape",
            "herding-greedy-oracle",
            "ap-threshold-oracle",
            "aggregation-coincidence",
            "snapshot-immutability",
            "metric-bruteforce",
        ]
        assert all(line.startswith("PASS") for line in first.strip().splitlines()[:-1])

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert run_cli("verify", "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be non-negative, found -1\n"


class TestConfigKeys:
    @pytest.mark.parametrize("lines, key", [
        ("epoch = 1\nmemroy = 10", "epoch"),
        ("jobs = 2", "jobs"),  # the worker-thread count of older versions
    ], ids=["typo", "jobs"])
    def test_unknown_key_names_key_and_line(self, tmp_path, dataset_paths, capsys, lines, key):
        config_file = tmp_path / "typo.cfg"
        config_file.write_text(f"profile = finetune\nsystem = mc\n{lines}\ndata = {dataset_paths[0]}\n")
        out = tmp_path / "typo-run"
        assert run_cli("run", "--config", str(config_file), "--out", str(out)) == 2
        assert f"error: {config_file}: line 3: unknown config key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, message", [
        ("memory = lots", "line 4: memory: expected an integer, found 'lots'"),
        ("J = 2.5", "line 4: J: expected an integer, found '2.5'"),
        ("lr = fast", "line 4: lr: expected a number, found 'fast'"),
        ("seeds = 1 two", "line 4: seeds: expected integers, found '1 two'"),
    ])
    def test_bad_value_names_key_and_line(self, tmp_path, capsys, line, message):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text(f"profile = finetune\nsystem = mc\nscenario = hard\n{line}\n")
        assert run_cli("run", "--config", str(config_file), "--out", str(tmp_path / "o")) == 2
        assert f"error: {config_file}: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [
        ("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False),
    ])
    def test_warmup_spellings(self, tmp_path, value, expected):
        config_file = tmp_path / "w.cfg"
        config_file.write_text(f"warmup = {value}\n")
        args = cli.build_parser().parse_args(["run", "--config", str(config_file)])
        assert cli._config_from_sources(args).warmup is expected

    @pytest.mark.parametrize("line, flags, scenario, data", [
        ("data = a.csv b.csv", ["--scenario", "hard"], "hard", []),
        ("scenario = hard", ["--data", "a.csv"], None, ["a.csv"]),
    ])
    def test_a_source_flag_replaces_the_files_source(self, tmp_path, line, flags, scenario, data):
        config_file = tmp_path / "s.cfg"
        config_file.write_text(f"{line}\n")
        args = cli.build_parser().parse_args(["run", "--config", str(config_file), *flags])
        cfg = cli._config_from_sources(args)
        assert (cfg.scenario, cfg.data) == (scenario, data)


_VALUES = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12),
    st.integers(-5, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from([
        "easy", "hard", "long", "bc", "mc", "mt", "max", "sumlog", "distill", "rebalance",
        "replay", "raw", "latent", "logit", "feature", "none", "true", "flase", "1e400", "",
    ]),
)


@settings(max_examples=200, deadline=None, database=None)
@given(settings_=st.dictionaries(st.sampled_from(sorted(cli._CONFIG_KEYS)), _VALUES, max_size=8))
def test_config_resolution_raises_only_config_errors(settings_):
    """Whatever the values, resolving a config file raises ParseError or
    ConfigError, never another exception."""
    text = "scenario = hard\nprofile = rebalance\nsystem = mt\n" + "".join(
        f"{key} = {value}\n" for key, value in settings_.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.cfg"
        path.write_text(text, encoding="utf-8")
        args = cli.build_parser().parse_args(["run", "--config", str(path), "--out", tmp])
        try:
            cli._config_from_sources(args).resolve()
        except (ParseError, ConfigError):
            pass



@pytest.fixture(scope="module")
def fuzz_run_dir(tmp_path_factory):
    """A tiny scenario run directory, built once for the edits below."""
    out = tmp_path_factory.mktemp("fuzz") / "run"
    assert run_cli(
        "run", "--scenario", "hard", "--profile", "distill", "--system", "mc",
        "--memory", "10", "--epochs", "1", "--out", str(out),
    ) == 0
    return out


def _edited(data: bytes, kind: str, at: int, bit: int) -> bytes:
    """``data`` with one edit at position ``at`` (taken modulo the file's
    bytes or lines): a truncation, a bit flip, or a deleted or repeated line."""
    if kind == "truncate":
        return data[: at % len(data)]
    if kind == "flip":
        i = at % len(data)
        return data[:i] + bytes([data[i] ^ (1 << bit)]) + data[i + 1 :]
    lines = data.splitlines(keepends=True)
    i = at % len(lines)
    if kind == "delete-line":
        return b"".join(lines[:i] + lines[i + 1 :])
    return b"".join(lines[: i + 1] + lines[i:])


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(
    name=st.sampled_from(ARTIFACTS),
    kind=st.sampled_from(["truncate", "flip", "delete-line", "repeat-line"]),
    at=st.integers(0, 2**32),
    bit=st.integers(0, 7),
)
def test_eval_of_a_run_directory_with_one_edited_file_exits_0_or_2(fuzz_run_dir, name, kind, at, bit):
    """The run-directory contract: whatever single edit one of the six files
    takes, ``cddet eval`` succeeds or reports a usage error (exit 2), and
    never fails at runtime (exit 1) or raises."""
    path = fuzz_run_dir / name
    original = path.read_bytes()
    path.write_bytes(_edited(original, kind, at, bit))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            status = run_cli("eval", str(fuzz_run_dir))
    finally:
        path.write_bytes(original)
    assert status in (0, 2), err.getvalue()
