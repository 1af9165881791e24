import numpy as np
import pytest

from cddet import diffcore as dc
from cddet import losses as ls
from cddet.errors import ConfigError, ParseError
from cddet.model import FAKE, REAL
from cddet.stream import Scenario, build_scenario, load_dataset, save_dataset, synth_generate


# Symmetric-KL threshold separating "same reals" from "distinct fakes".
OVERLAP_BOUND = 2.0


def symmetric_kl_isotropic(mu_a, mu_b, sigma: float) -> float:
    """KL(a||b) + KL(b||a) for equal isotropic Gaussians: ||mu_a - mu_b||^2 / sigma^2."""
    delta = np.asarray(mu_a, dtype=np.float64) - np.asarray(mu_b, dtype=np.float64)
    return float(delta @ delta) / (sigma * sigma)


def verify_overlap(scenario: Scenario, bound: float = OVERLAP_BOUND) -> bool:
    """Reals of any two tasks stay below the bound; their fakes exceed it."""
    tasks = scenario.tasks
    for i in range(len(tasks)):
        for j in range(i + 1, len(tasks)):
            a, b = tasks[i], tasks[j]
            if symmetric_kl_isotropic(a.real_shift, b.real_shift, 1.0) >= bound:
                return False
            closest = min(
                symmetric_kl_isotropic(ma, mb, 1.0)
                for ma in a.fake_means
                for mb in b.fake_means
            )
            if closest <= bound:
                return False
    return True


class TestSynthGenerate:
    def test_deterministic(self):
        scenario = build_scenario("easy", seed=3)
        spec = scenario.tasks[0]
        a = synth_generate(spec, seed=3)
        b = synth_generate(spec, seed=3)
        for split in ("train", "test"):
            np.testing.assert_array_equal(a.splits()[split].x, b.splits()[split].x)
            np.testing.assert_array_equal(a.splits()[split].y, b.splits()[split].y)

    def test_counts_per_split_and_polarity(self):
        scenario = build_scenario("easy", seed=1)
        spec = scenario.tasks[2]
        assert (spec.n_train, spec.n_test) == (300, 150)  # the default stream sizes
        data = synth_generate(spec, seed=1)
        for split_name, n in (("train", spec.n_train), ("test", spec.n_test)):
            split = data.splits()[split_name]
            assert (split.y == REAL).sum() == n
            assert (split.y == FAKE).sum() == n

    def test_linear_probe_separates_easy_task(self):
        """A logistic probe on a 6-sigma task clears 95% test accuracy."""
        scenario = build_scenario("easy", seed=7)
        spec = scenario.tasks[0]
        assert spec.difficulty == 6.0
        data = synth_generate(spec, seed=7)
        d = data.train.x.shape[1]
        w = dc.Tensor(np.zeros((d, 1)), requires_grad=True)
        b = dc.Tensor(np.zeros(1), requires_grad=True)
        x = dc.Tensor(data.train.x)
        for _ in range(150):
            loss = ls.binary_ce(dc.affine(x, w, b), data.train.y)
            w.grad = b.grad = None
            loss.backward()
            w.data = w.data - 0.5 * w.grad
            b.data = b.data - 0.5 * b.grad
        logits = data.test.x @ w.data + b.data
        preds = (dc.np_sigmoid(logits[:, 0]) >= 0.5).astype(int)
        assert (preds == data.test.y).mean() > 0.95


class TestScenarios:
    def test_lengths(self):
        assert len(build_scenario("easy", 0)) == 7
        assert len(build_scenario("hard", 0)) == 5
        assert len(build_scenario("long", 0)) == 12

    def test_long_extends_easy(self):
        easy = build_scenario("easy", 5)
        long_ = build_scenario("long", 5)
        assert [t.task_id for t in long_.tasks[:7]] == [t.task_id for t in easy.tasks]

    def test_hard_mixes_difficulties_and_sample_sizes(self):
        hard = build_scenario("hard", 2)
        difficulties = [t.difficulty for t in hard.tasks]
        assert difficulties == [6.0, 6.0, 2.5, 2.5, 3.5]  # two low-separation sources, then the small one
        small = [t for t in hard.tasks if 2 * t.n_train <= 400]
        assert len(small) == 1

    def test_warmup_default_and_optout(self):
        assert build_scenario("easy", 0).warmup is not None
        assert build_scenario("easy", 0, with_warmup=False).warmup is None

    def test_unique_task_ids(self):
        for kind in ("easy", "hard", "long"):
            ids = [t.task_id for t in build_scenario(kind, 9).tasks]
            assert len(set(ids)) == len(ids)

    def test_construction_deterministic(self):
        a = build_scenario("long", 11)
        b = build_scenario("long", 11)
        for ta, tb in zip(a.tasks, b.tasks):
            assert ta == tb

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            build_scenario("extreme", 0)


class TestOverlapProperty:
    def test_reals_overlap_fakes_separate(self):
        for seed in (0, 1, 2, 3, 4):
            scenario = build_scenario("long", seed)
            assert verify_overlap(scenario)

    def test_symmetric_kl_formula(self):
        a = np.array([0.0, 0.0])
        b = np.array([3.0, 4.0])
        assert symmetric_kl_isotropic(a, b, 1.0) == pytest.approx(25.0)
        assert symmetric_kl_isotropic(a, b, 5.0) == pytest.approx(1.0)


class TestDatasetFiles:
    def test_roundtrip(self, tmp_path):
        scenario = build_scenario("easy", 8)
        data = synth_generate(scenario.tasks[1], seed=8)
        path = tmp_path / "task.csv"
        save_dataset(data, path)
        tags = {line.split(",")[1] for line in path.read_text().splitlines()[1:]}
        assert tags == {"train", "test"}
        loaded = load_dataset(path)
        assert loaded.task_id == data.task_id
        for split in ("train", "test"):
            np.testing.assert_array_equal(loaded.splits()[split].x, data.splits()[split].x)
            np.testing.assert_array_equal(loaded.splits()[split].y, data.splits()[split].y)

    def test_val_rows_load_and_are_dropped(self, tmp_path):
        path = tmp_path / "task.csv"
        path.write_text("task_id,split,label,f0\n1,train,0,0.1\n1,val,0,0.2\n1,train,1,0.9\n"
                        "1,test,0,0.3\n1,val,1,0.8\n1,test,1,0.7\n")
        loaded = load_dataset(path)
        assert list(loaded.splits()) == ["train", "test"]
        np.testing.assert_array_equal(loaded.train.x[:, 0], [0.1, 0.9])
        np.testing.assert_array_equal(loaded.test.x[:, 0], [0.3, 0.7])

    @pytest.mark.parametrize("row, message", [
        ("1,val,2,0.5", "line 3: label must be 0 or 1, found '2'"),
        ("1,val,0,x", "line 3: non-numeric feature value"),
        ("1,val,0,0.5,0.5", "line 3: expected 4 fields, found 5"),
        ("1,val,0,nan", "line 3: non-finite feature value"),
    ])
    def test_malformed_val_row_names_line(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"task_id,split,label,f0\n1,train,0,0.5\n{row}\n1,train,1,0.5\n1,test,0,0.5\n1,test,1,0.5\n")
        with pytest.raises(ParseError, match=message):
            load_dataset(path)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,split,label,f0,f1\n1,train,0,0.5,0.5\n1,train,1,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    def test_unknown_split_tag(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,split,label,f0\n1,dev,0,0.5\n")
        with pytest.raises(ParseError, match="line 2"):
            load_dataset(path)

    def test_empty_fake_subset_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["task_id,split,label,f0"]
        rows += [f"1,train,0,{v}" for v in (0.1, 0.2)]
        rows += ["1,test,0,0.1", "1,test,1,0.9"]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="line 5: split 'train' needs both real and fake records"):
            load_dataset(path)

    def test_mixed_task_ids_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("task_id,split,label,f0\n1,train,0,0.5\n2,train,1,0.5\n")
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "bad.csv"
        path.write_text(f"task_id,split,label,f0\n1,train,0,0.5\n1,train,1,{value}\n")
        with pytest.raises(ParseError, match="line 3: non-finite feature value"):
            load_dataset(path)
