import re

import numpy as np
import pytest
from conftest import b64
from hypothesis import given, settings
from hypothesis import strategies as st

from cddet import memory as mem
from cddet.errors import ConfigError, ContractError, EngineError
from cddet.memory import ExemplarMemory, capture, herd_select, quotas
from cddet.model import LINFC, Model, load_checkpoint, save_checkpoint
from cddet.verify import check_herding_oracle


class TestHerding:
    def test_one_dimensional_example(self):
        features = np.array([[0.0], [1.0], [2.0], [10.0]])
        assert herd_select(features, 2) == [2, 1]

    def test_m_one_picks_closest_to_mean(self):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(9, 3))
        mu = feats.mean(axis=0)
        expected = int(np.argmin(np.linalg.norm(feats - mu, axis=1)))
        assert herd_select(feats, 1) == [expected]

    def test_m_equals_n_is_permutation(self):
        feats = np.random.default_rng(1).normal(size=(7, 2))
        order = herd_select(feats, 7)
        assert sorted(order) == list(range(7))

    def test_m_out_of_range(self):
        feats = np.zeros((3, 2))
        with pytest.raises(ContractError):
            herd_select(feats, 4)
        with pytest.raises(ContractError):
            herd_select(feats, 0)

    def test_deterministic(self):
        feats = np.random.default_rng(2).normal(size=(12, 4))
        assert herd_select(feats, 8) == herd_select(feats, 8)

    def test_every_step_matches_bruteforce_oracle(self):
        result = check_herding_oracle(3, trials=40)
        assert result.passed, result.detail

    def test_tie_breaks_to_lowest_index(self):
        # mean is 2.0; all four candidates tie at distance 1 on the first step
        feats = np.array([[1.0], [3.0], [1.0], [3.0]])
        order = herd_select(feats, 4)
        assert order[0] == 0


def loop_herd_select(features, m):
    """The herding loop as it stood before the screen, kept verbatim as the
    reference: a norm over every remaining candidate at every step."""
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    mu = features.mean(axis=0)
    chosen: list[int] = []
    total = np.zeros_like(mu)
    remaining = list(range(n))
    for k in range(1, m + 1):
        candidates = np.asarray(remaining)
        dists = np.linalg.norm(mu - (total + features[candidates]) / k, axis=1)
        best = candidates[int(np.argmin(dists))]  # argmin keeps the first minimum
        chosen.append(int(best))
        total += features[best]
        remaining.remove(int(best))
    return chosen


@st.composite
def herding_cases(draw):
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["normal", "integer", "duplicates", "all-equal"]))
    feats = rng.normal(size=(n, d)) * 10.0 ** draw(st.floats(-3.0, 3.0))
    if kind == "integer":
        feats = np.round(rng.normal(size=(n, d)) * draw(st.sampled_from([1.0, 3.0, 100.0])))
    elif kind == "duplicates":
        feats[rng.integers(0, n, size=n)] = feats[rng.integers(0, n, size=n)]
    elif kind == "all-equal":
        feats[:] = feats[0]
    m = n if draw(st.booleans()) else draw(st.integers(1, n))
    return feats, m


class TestScreenedHerding:
    """``herd_select`` screens each pick and confirms it by a bound; its
    picks must be exactly those of the loop it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(herding_cases())
    def test_picks_equal_the_loop(self, case):
        feats, m = case
        assert herd_select(feats, m) == loop_herd_select(feats, m)

    @pytest.mark.parametrize("n, scale", [
        pytest.param(1, 1.0, id="1"),
        pytest.param(2, 1.0, id="2"),
        pytest.param(9, 1.0, id="9"),
        # rows of 2^-480, whose products sit near underflow: the bound's underflow terms keep the ties
        pytest.param(9, 2.0**-480, id="9-near-underflow"),
    ])
    def test_all_equal_rows_take_the_exact_search(self, monkeypatch, n, scale):
        calls = []
        exact = mem._herd_exact_pick

        def counted(*args):
            calls.append(args[-1])
            return exact(*args)

        monkeypatch.setattr(mem, "_herd_exact_pick", counted)
        feats = np.tile([[0.5, -2.0, 3.0]], (n, 1)) * scale
        assert herd_select(feats, n) == loop_herd_select(feats, n) == list(range(n))
        # each pick with two or more rows left is a tie, which only the exact
        # search may break; the last row left is screened
        assert calls == list(range(1, n))

    def test_distinct_rows_are_screened(self, monkeypatch):
        monkeypatch.setattr(mem, "_herd_exact_pick", None)  # calling it would fail
        feats = np.random.default_rng(4).normal(size=(300, 32))
        assert herd_select(feats, 300) == loop_herd_select(feats, 300)


class TestHerdingPrefix:
    @settings(max_examples=150, deadline=None)
    @given(herding_cases(), st.data())
    def test_a_shorter_selection_is_a_prefix(self, case, data):
        """Greedy herding never looks ahead: the first m picks of a longer
        selection are the selection of m, ties included."""
        feats, longer = case
        m = data.draw(st.integers(1, max(1, longer - 1)))
        assert herd_select(feats, m) == herd_select(feats, longer)[:m]


class TestQuotas:
    def test_even_division(self):
        assert quotas(1500, 10) == [150] * 10

    def test_remainder_to_lowest_indices(self):
        assert quotas(7, 3) == [3, 2, 2]

    def test_quotas_exhaust_the_budget(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            budget = int(rng.integers(1, 2000))
            k = int(rng.integers(1, 25))
            q = quotas(budget, k)
            assert sum(q) == budget
            assert max(q) - min(q) <= 1


class TestMemory:
    def test_unknown_payload_kind(self):
        with pytest.raises(ConfigError, match="^unknown payload kind 'images'$"):
            ExemplarMemory(4, "images")

    def test_trim_preserves_herding_prefix(self):
        memory = ExemplarMemory(budget=4)
        rows = np.arange(8.0).reshape(4, 2)
        memory.add_class(0, rows)
        memory.add_class(1, rows[:2])
        memory.rebalance(num_classes=2)
        stored = memory.classes[0]
        assert stored.tolist() == rows[:2].tolist()
        assert not np.shares_memory(stored, rows)  # the dropped tail is not kept alive

    def test_a_class_past_the_quotas_keeps_no_rows(self):
        """Quotas go to the stored classes in class order; a stored class
        past ``num_classes`` gets none."""
        memory = ExemplarMemory(budget=4)
        for c in range(3):
            memory.add_class(c, np.full((2, 2), float(c)))
        memory.rebalance(num_classes=2)
        assert [memory.classes[c].shape[0] for c in range(3)] == [2, 2, 0]

    def test_all_exemplars_stack_in_class_order(self):
        """Rows stack by ascending class index, whatever the insertion order;
        a class trimmed to no rows adds none."""
        memory = ExemplarMemory(budget=9)
        memory.add_class(3, np.full((2, 2), 3.0))
        memory.add_class(1, np.full((3, 2), 1.0))
        payload = memory.to_payload()
        payload["classes"]["0"] = np.empty((0, 2))
        for stored in (memory, ExemplarMemory.from_payload(payload)):
            payloads, classes = stored.all_exemplars()
            assert classes.tolist() == [1, 1, 1, 3, 3]
            assert payloads.tolist() == [[1.0, 1.0]] * 3 + [[3.0, 3.0]] * 2
        assert ExemplarMemory(budget=1).all_exemplars()[1].size == 0

    def test_budget_invariant_enforced(self):
        memory = ExemplarMemory(budget=3)
        memory.add_class(0, np.zeros((5, 2)))
        with pytest.raises(EngineError):
            memory.assert_within_budget()
        memory.rebalance(num_classes=1)
        assert memory.total() == 3

    def test_duplicate_class_rejected(self):
        memory = ExemplarMemory(budget=3)
        memory.add_class(0, np.zeros((1, 2)))
        with pytest.raises(ContractError):
            memory.add_class(0, np.zeros((1, 2)))

    def test_positive_budget_required(self):
        with pytest.raises(ConfigError):
            ExemplarMemory(budget=0)

    def test_payload_roundtrip(self):
        memory = ExemplarMemory(budget=6, payload_kind=mem.LATENT)
        rng = np.random.default_rng(5)
        memory.add_class(0, rng.normal(size=(3, 4)))
        memory.add_class(1, rng.normal(size=(2, 4)))
        restored = ExemplarMemory.from_payload(memory.to_payload())
        assert restored.budget == 6
        assert restored.payload_kind == mem.LATENT
        for idx in (0, 1):
            np.testing.assert_array_equal(restored.classes[idx], memory.classes[idx])

    def test_payload_holds_each_class_rows_alone(self):
        """A class's payload entry is its stored array itself, with no task:
        class c is task ``tasks[c // 2]``'s. A class trimmed to no rows
        keeps an array of no rows."""
        memory = ExemplarMemory(budget=2)
        for class_idx in (3, 0, 2):
            memory.add_class(class_idx, np.full((2, 2), float(class_idx)))
        memory.rebalance(num_classes=3)
        payload = memory.to_payload()
        assert {key: rows.shape[0] for key, rows in payload["classes"].items()} == {"3": 0, "0": 1, "2": 1}
        assert all(payload["classes"][str(c)] is rows for c, rows in memory.classes.items())
        assert payload["classes"]["3"].shape == (0, 2)


class TestPayloadValidation:
    """A memory payload that ``to_payload`` cannot write is rejected naming
    the field: its rows by the checkpoint's decoder, the rest by
    ``from_payload``."""

    def _payload(self):
        memory = ExemplarMemory(budget=4, payload_kind=mem.RAW)
        rng = np.random.default_rng(8)
        memory.add_class(0, rng.normal(size=(2, 5)))
        memory.add_class(1, rng.normal(size=(2, 5)))
        return memory.to_payload()

    def _load(self, tmp_path, payload, rows):
        """Load a checkpoint of ``payload`` whose class 1 holds ``rows``
        instead: the encoding of any array."""
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, self._model(), payload)
        path.write_text(path.read_text().replace(b64(payload["classes"]["1"]), b64(rows)))
        return load_checkpoint(path)

    def _model(self):
        rng = np.random.default_rng(9)
        model = Model.build(5, LINFC, rng, hidden=(7,), feature_width=4)
        model.head.expand(1, rng)  # classes 0 and 1, of task 1
        return model

    def test_valid_payload_checked_against_the_model(self):
        restored = ExemplarMemory.from_payload(self._payload(), self._model())
        assert restored.total() == 4

    def test_unknown_kind(self):
        payload = self._payload()
        payload["kind"] = "pixels"
        with pytest.raises(ConfigError, match=r"memory\.kind"):
            ExemplarMemory.from_payload(payload)

    def test_missing_field(self):
        payload = self._payload()
        del payload["budget"]
        with pytest.raises(ConfigError, match=r"memory\.budget"):
            ExemplarMemory.from_payload(payload)

    def test_non_integer_budget(self):
        payload = self._payload()
        payload["budget"] = 2.5
        with pytest.raises(ConfigError, match=r"memory\.budget"):
            ExemplarMemory.from_payload(payload)

    def test_total_over_budget(self):
        payload = self._payload()
        payload["budget"] = 1
        with pytest.raises(ConfigError, match=r"4 exemplars exceed budget 1"):
            ExemplarMemory.from_payload(payload)

    def test_non_integer_class_key(self):
        payload = self._payload()
        payload["classes"]["first"] = payload["classes"].pop("0")
        with pytest.raises(ConfigError, match=r"memory\.classes\['first'\]"):
            ExemplarMemory.from_payload(payload)

    @pytest.mark.parametrize("key", ["01", "\u0663"], ids=["leading-zero", "arabic-indic-three"])
    def test_class_key_not_in_canonical_decimal(self, key):
        """A key is the class index as ``str`` writes it: another spelling
        that ``str.isdigit`` accepts could name a class another key names."""
        payload = self._payload()
        payload["classes"][key] = payload["classes"]["1"][:1]
        with pytest.raises(ConfigError, match=re.escape(f"memory.classes[{key!r}]: class key is not a canonical")):
            ExemplarMemory.from_payload(payload)

    def test_ragged_rows(self, tmp_path):
        """Stored rows that are not a whole number of the model's rows."""
        payload = self._payload()
        message = "memory.classes['1']: 56 bytes do not hold float64s of shape (-1, 5)"
        with pytest.raises(ConfigError, match=f"^checkpoint field {re.escape(message)}$"):
            self._load(tmp_path, payload, payload["classes"]["1"].ravel()[:7])

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rows(self, tmp_path, value):
        payload = self._payload()
        rows = payload["classes"]["1"].copy()
        rows[1, 2] = value
        with pytest.raises(ConfigError, match=r"^checkpoint field memory\.classes\['1'\]: non-finite entries$"):
            self._load(tmp_path, payload, rows)

    def test_row_width_must_match_the_model(self):
        payload = self._payload()
        for key, rows in payload["classes"].items():
            payload["classes"][key] = rows[:, :-1]
        ExemplarMemory.from_payload(payload)  # consistent on its own
        with pytest.raises(ConfigError, match=r"rows have 4 entries, the model's raw width is 5"):
            ExemplarMemory.from_payload(payload, self._model())

    def test_latent_rows_must_have_the_latent_width(self):
        payload = self._payload()
        payload["kind"] = mem.LATENT
        with pytest.raises(ConfigError, match=r"the model's latent width is 7"):
            ExemplarMemory.from_payload(payload, self._model())


class TestCapture:
    def _extractor(self):
        rng = np.random.default_rng(6)
        return Model.build(5, LINFC, rng, hidden=(7, 6), feature_width=4).extractor

    def test_raw_roundtrip_bitwise(self):
        x = np.random.default_rng(7).normal(size=(3, 5))
        stored = capture(self._extractor(), x, mem.RAW)
        np.testing.assert_array_equal(stored, x)

    def test_latent_width(self):
        extractor = self._extractor()
        x = np.random.default_rng(8).normal(size=(3, 5))
        stored = capture(extractor, x, mem.LATENT)
        assert stored.shape == (3, extractor.latent_width)

    def test_latent_replay_matches_full_forward(self):
        extractor = self._extractor()
        x = np.random.default_rng(9).normal(size=(4, 5))
        full, _ = extractor.forward_with_capture(x)
        stored = capture(extractor, x, mem.LATENT)
        resumed = extractor.forward_from_latent(stored)
        np.testing.assert_array_equal(full, resumed)
