import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import tiny_scenario, tiny_spec
from hypothesis import given, settings
from hypothesis import strategies as st

from cddet import cli, trainer
from cddet.cli import ExperimentConfig, main, recompute_metrics_json
from cddet.errors import ConfigError, ParseError
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

