import numpy as np
import pytest

from cddet import metrics as mx
from cddet.errors import ContractError, DegenerateInputError, ParseError
from cddet.metrics import aa, aa_m, af, af_last, ap, map_score, pr_curve
from cddet.trainer import PredictionLog, RunRecord
from cddet.verify import check_ap_oracle, check_metric_bruteforce


def upper_triangular(rng, n):
    b = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i, n):
            b[i, j] = rng.uniform(0, 1)
    return b


EXAMPLE = np.array(
    [
        [0.9, 0.8, 0.7],
        [np.nan, 0.95, 0.85],
        [np.nan, np.nan, 0.9],
    ]
)


class TestAA:
    def test_constant_matrix(self):
        b = np.triu(np.full((4, 4), 0.9))
        assert aa(b) == pytest.approx(0.9)

    def test_three_task_example(self):
        assert aa(EXAMPLE) == pytest.approx((0.7 + 0.85 + 0.9) / 3, abs=1e-12)
        assert round(aa(EXAMPLE), 4) == 0.8167

    def test_single_task(self):
        assert aa(np.array([[0.75]])) == 0.75


class TestAF:
    def test_constant_rows_zero(self):
        b = np.full((5, 5), np.nan)
        for i in range(5):
            b[i, i:] = 0.6 + 0.05 * i
        assert af(b) == 0.0

    def test_worked_example(self):
        assert af(EXAMPLE) == pytest.approx(-0.125, abs=1e-12)

    def test_monotone_improvement_positive(self):
        b = np.full((3, 3), np.nan)
        b[0] = [0.5, 0.6, 0.7]
        b[1, 1:] = [0.5, 0.6]
        b[2, 2] = 0.5
        assert af(b) > 0

    def test_needs_two_tasks(self):
        with pytest.raises(ContractError):
            af(np.array([[0.5]]))

    def test_last_column_variant(self):
        assert af_last(EXAMPLE) == pytest.approx(((0.7 - 0.9) + (0.85 - 0.95)) / 2, abs=1e-12)

    def test_matches_bruteforce_exactly(self):
        result = check_metric_bruteforce(0, trials=50)
        assert result.passed, result.detail


class TestAP:
    def test_perfect_separation(self):
        scores = [0.9, 0.8, 0.2, 0.1]
        labels = [1, 1, 0, 0]
        assert ap(pr_curve(scores, labels)) == pytest.approx(1.0)

    def test_worked_example(self):
        scores = [0.9, 0.8, 0.7, 0.1]
        labels = [1, 0, 1, 0]
        value = ap(pr_curve(scores, labels))
        assert value == pytest.approx(0.5 * 1.0 + 0.5 * (2.0 / 3.0), abs=1e-12)
        assert round(value, 4) == 0.8333

    def test_map_average(self):
        curves = {
            1: pr_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]),
            2: pr_curve([0.9, 0.8, 0.7, 0.1], [1, 0, 1, 0]),
        }
        aps = {task_id: ap(curve) for task_id, curve in curves.items()}
        assert map_score(aps) == pytest.approx((1.0 + 0.83333333333333333) / 2, abs=1e-12)
        assert round(map_score(aps), 4) == 0.9167

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateInputError):
            pr_curve([0.5, 0.6], [1, 1])

    def test_ties_collapse_into_one_step(self):
        curve = pr_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
        assert curve.thresholds.size == 1
        assert curve.recall[-1] == 1.0

    def test_matches_bruteforce_on_random_sets(self):
        result = check_ap_oracle(1, trials=200)
        assert result.passed, result.detail

    def test_equals_the_sequential_loop_bit_for_bit(self):
        """The vectorised sum adds the same terms in the same order as a
        Python loop over the sweep, so it gives the same bits."""
        rng = np.random.default_rng(4)
        for _ in range(1000):
            n = int(rng.integers(2, 3001))
            labels = rng.integers(0, 2, size=n)
            labels[:2] = [0, 1]
            levels = int(rng.integers(2, n + 1))  # few levels force ties
            curve = pr_curve(rng.integers(0, levels, size=n) / levels, labels)
            total, prev = 0.0, 0.0
            for p, r in zip(curve.precision.tolist(), curve.recall.tolist()):
                total += (r - prev) * p
                prev = r
            assert ap(curve) == total

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(4, 20))
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            p = rng.uniform(0.01, 0.99, size=n)
            logit = np.log(p / (1 - p))
            a = ap(pr_curve(p, labels))
            b = ap(pr_curve(logit, labels))
            assert a == pytest.approx(b, abs=1e-12)

    def test_recall_non_decreasing(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=30)
        labels = np.array([0, 1] * 15)
        curve = pr_curve(scores, labels)
        assert np.all(np.diff(curve.recall) >= 0)


def _log(true_cls, pred_cls, true_pol=None, pred_pol=None, scores=None):
    n = len(true_cls) if true_cls is not None else len(true_pol)
    return PredictionLog(
        record_ids=[f"r{i}" for i in range(n)],
        true_polarity=np.asarray(true_pol if true_pol is not None else np.zeros(n, dtype=int)),
        pred_polarity=np.asarray(pred_pol if pred_pol is not None else np.zeros(n, dtype=int)),
        p_fake=np.asarray(scores if scores is not None else np.full(n, 0.5)),
        true_class=None if true_cls is None else np.asarray(true_cls),
        pred_class=None if pred_cls is None else np.asarray(pred_cls),
    )


class TestAAM:
    def test_all_correct(self):
        logs = {1: _log([0, 1, 0], [0, 1, 0])}
        assert aa_m(logs) == 1.0

    def test_bc_logs_not_applicable(self):
        logs = {1: _log(None, None, true_pol=[0, 1], pred_pol=[0, 1])}
        assert aa_m(logs) is None

    def test_right_polarity_wrong_task_counts_wrong(self):
        # true class 1 is (task1, fake); predicted class 3 is (task2, fake)
        logs = {1: _log([1, 1], [3, 3], true_pol=[1, 1], pred_pol=[1, 1])}
        assert aa_m(logs) == 0.0


class TestArtifacts:
    ECHO = {"profile": "replay", "seed": 3}

    def _record(self):
        logs = {
            1: _log([0, 1, 0, 1], [0, 1, 0, 3], true_pol=[0, 1, 0, 1],
                    pred_pol=[0, 1, 0, 1], scores=[0.1, 0.9, 0.2, 0.8]),
            2: _log([2, 3, 2, 3], [2, 3, 2, 2], true_pol=[0, 1, 0, 1],
                    pred_pol=[0, 1, 0, 0], scores=[0.3, 0.7, 0.4, 0.45]),
        }
        matrix = np.array([[0.9, 0.8], [np.nan, 0.95]])
        return RunRecord(matrix=matrix, logs=logs)

    def test_matrix_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(4)
        b = upper_triangular(rng, 5)
        path = tmp_path / "m.csv"
        mx.write_accuracy_matrix(path, b)
        loaded = mx.read_accuracy_matrix(path)
        np.testing.assert_array_equal(loaded[np.triu_indices(5)], b[np.triu_indices(5)])

    def test_matrix_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("0.5,1.2\n,0.7\n")
        with pytest.raises(ParseError):
            mx.read_accuracy_matrix(path)

    def test_predictions_roundtrip(self, tmp_path):
        record = self._record()
        path = tmp_path / "p.csv"
        mx.write_predictions(path, record.logs)
        logs = mx.read_predictions(path)
        for task_id in (1, 2):
            np.testing.assert_array_equal(logs[task_id].p_fake, record.logs[task_id].p_fake)
            np.testing.assert_array_equal(logs[task_id].true_class, record.logs[task_id].true_class)
            assert logs[task_id].record_ids == record.logs[task_id].record_ids

    def test_compute_metrics_shape(self):
        record = self._record()
        metrics, curves = mx.compute_metrics(record.matrix, record.logs, self.ECHO)
        assert set(curves) == {1, 2}
        assert metrics["aa"] == pytest.approx((0.8 + 0.95) / 2)
        assert metrics["af"] == pytest.approx(-0.1)
        assert metrics["af_last"] == pytest.approx(-0.1)
        assert metrics["aa_m"] is not None
        assert metrics["config"]["seed"] == 3

    def test_metrics_json_deterministic(self, tmp_path):
        record = self._record()
        metrics, _ = mx.compute_metrics(record.matrix, record.logs, self.ECHO)
        a = mx.metrics_to_json(metrics)
        b = mx.metrics_to_json(metrics)
        assert a == b

    def test_task_relabeling_preserves_aa_af(self):
        record = self._record()
        metrics_before, _ = mx.compute_metrics(record.matrix, record.logs, self.ECHO)
        record.logs = {7: record.logs[1], 9: record.logs[2]}
        metrics_after, _ = mx.compute_metrics(record.matrix, record.logs, self.ECHO)
        assert metrics_after["aa"] == metrics_before["aa"]
        assert metrics_after["af"] == metrics_before["af"]
        assert metrics_after["map"] == metrics_before["map"]
