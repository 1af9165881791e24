import json
import re

import numpy as np
import pytest

from cddet import losses as ls
from cddet import model as mdl
from cddet.errors import ConfigError, ContractError, ProtocolError
from cddet.model import BC, COSFC, FAKE, LINFC, MC, REAL, SIGMOID, Model


def make_model(variant, tasks=0, seed=0, d=6):
    rng = np.random.default_rng(seed)
    model = Model.build(d, variant, rng, hidden=(8, 8), feature_width=5)
    for task_id in range(1, tasks + 1):
        if variant == SIGMOID:
            model.head.register_task(task_id)
        else:
            model.head.expand(task_id)
    return model


class TestForward:
    def test_linfc_identity_head_passes_features_through(self):
        rng = np.random.default_rng(3)
        model = make_model(LINFC, tasks=0)
        model.head.expand(1)
        # identity-ish check at head level: theta = I, bias = 0
        model.head.theta = np.eye(2, 5)
        model.head.bias = np.zeros(2)
        feats = rng.normal(size=(4, 5))
        logits = model.head.logits(feats)
        np.testing.assert_array_equal(logits, feats[:, :2])

    def test_logit_shape_tracks_sessions(self):
        model = make_model(LINFC, tasks=3)
        x = np.random.default_rng(0).normal(size=(5, 6))
        _, logits = model.forward(x)
        assert logits.shape == (5, 6)  # 2 classes per task

    def test_cosfc_scale_invariance_of_logits(self):
        model = make_model(COSFC, tasks=2, seed=1)
        rng = np.random.default_rng(2)
        feats = rng.normal(size=(7, 5))
        base = model.head.logits(feats)
        for c in (0.5, 3.0, 250.0):
            scaled = model.head.logits(c * feats)
            np.testing.assert_allclose(scaled, base, atol=1e-12)

    def test_empty_batch_rejected(self):
        model = make_model(LINFC, tasks=1)
        with pytest.raises(ContractError):
            model.forward(np.zeros((0, 6)))

    @pytest.mark.parametrize("variant", [LINFC, COSFC, SIGMOID])
    def test_tape_free_path_matches_the_tape_bitwise(self, variant):
        """Inference on plain arrays against the reference forward on the
        tape (``losses._forward_joint``), from raw rows and from latents."""
        model = make_model(variant, tasks=2, seed=4)
        x = np.random.default_rng(5).normal(size=(6, 6))
        _, latent = model.extractor.forward_with_capture(x)
        for rows, latents, (features, logits) in (
            (x, None, model.forward(x)),
            (None, latent, model.forward_from_latent(latent)),
        ):
            taped_features, taped_logits = ls._forward_joint(model, ls.tape_leaves(model), rows, latents)
            np.testing.assert_array_equal(features, taped_features.data)
            np.testing.assert_array_equal(logits, taped_logits.data)

    def test_sigmoid_head_single_output(self):
        model = make_model(SIGMOID, tasks=4)
        x = np.random.default_rng(1).normal(size=(3, 6))
        _, logits = model.forward(x)
        assert logits.shape == (3, 1)


class TestExpansion:
    def test_registry_after_three_tasks(self):
        model = make_model(LINFC, tasks=3)
        reg = model.head.registry
        assert model.head.num_classes == 6
        assert reg.task_ids() == [1, 2, 3]
        assert reg.entries[0] == (1, REAL)
        assert reg.entries[1] == (1, FAKE)

    def test_old_rows_preserved_bitwise(self):
        model = make_model(LINFC, tasks=2, seed=5)
        before = model.head.theta.copy()
        model.head.expand(3)
        np.testing.assert_array_equal(model.head.theta[:4], before)

    def test_duplicate_task_rejected(self):
        model = make_model(LINFC, tasks=1)
        with pytest.raises(ProtocolError):
            model.head.expand(1)

    def test_seeded_expansion_reproduces(self):
        a = make_model(LINFC, tasks=3, seed=11)
        b = make_model(LINFC, tasks=3, seed=11)
        np.testing.assert_array_equal(a.head.theta, b.head.theta)

    def test_sigmoid_keeps_one_unit(self):
        model = make_model(SIGMOID, tasks=3)
        assert model.head.theta.shape == (1, 5)
        with pytest.raises(ProtocolError):
            model.head.expand(4)


class TestSnapshot:
    def test_outputs_match_at_capture(self):
        model = make_model(LINFC, tasks=2, seed=7)
        model.sessions_trained = 1
        snap = model.snapshot()
        x = np.random.default_rng(3).normal(size=(4, 6))
        _, live = model.forward(x)
        _, frozen = snap.forward(x)
        np.testing.assert_array_equal(live, frozen)

    def test_immutable_under_live_updates(self):
        model = make_model(LINFC, tasks=2, seed=7)
        model.sessions_trained = 1
        snap = model.snapshot()
        rng = np.random.default_rng(4)
        inputs = [rng.normal(size=(3, 6)) for _ in range(10)]
        before = [snap.forward(x)[1] for x in inputs]
        for _ in range(100):
            for p in model.parameters():
                p += 0.01 * rng.normal(size=p.shape)  # in place: a snapshot sharing an array would drift
        after = [snap.forward(x)[1] for x in inputs]
        for b, a in zip(before, after):
            np.testing.assert_array_equal(b, a)

    def test_requires_a_trained_session(self):
        model = make_model(LINFC, tasks=1)
        with pytest.raises(ProtocolError):
            model.snapshot()


class TestPredict:
    def test_bc_boundary_is_fake(self):
        model = make_model(SIGMOID, tasks=1)
        out = mdl.predict_binary(model.head, np.array([[0.0], [-2.0], [2.0]]), BC)
        np.testing.assert_array_equal(out, [FAKE, REAL, FAKE])

    def test_mc_polarity_from_registry(self):
        model = make_model(LINFC, tasks=2)
        # class layout: (1,R) (1,F) (2,R) (2,F); peak on class 2 -> (2, REAL)
        logits = np.array([[0.0, 0.1, 3.0, 0.2]])
        assert mdl.predict_binary(model.head, logits, MC)[0] == REAL

    def test_mc_prediction_invariant_to_positive_scaling(self):
        model = make_model(LINFC, tasks=2)
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(50, 4))
        base = mdl.predict_binary(model.head, logits, MC)
        for c in (0.1, 2.0, 17.0):
            np.testing.assert_array_equal(mdl.predict_binary(model.head, c * logits, MC), base)

    def test_argmax_tie_lowest_class(self):
        model = make_model(LINFC, tasks=2)
        logits = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert mdl.predict_class(logits)[0] == 0


class TestFakeScore:
    def test_symmetric_maxima(self):
        model = make_model(LINFC, tasks=1)
        # equal activations on the real and fake class
        logits = np.array([[0.3, 0.3]])
        assert mdl.fake_score(model.head, logits, MC)[0] == pytest.approx(0.5)

    def test_ratio_arithmetic(self):
        # activations 0.6 fake vs 0.2 real -> 0.75; build logits accordingly
        m_f, m_r = 0.6, 0.2
        assert m_f / (m_f + m_r) == pytest.approx(0.75)

    def test_confident_fake_scores_one(self):
        model = make_model(LINFC, tasks=1)
        logits = np.array([[-60.0, 60.0]])
        assert mdl.fake_score(model.head, logits, MC)[0] == pytest.approx(1.0, abs=1e-12)

    def test_bc_uses_sigmoid(self):
        model = make_model(SIGMOID, tasks=1)
        score = mdl.fake_score(model.head, np.array([[0.0]]), BC)
        assert score[0] == 0.5


class TestRegistryInvariants:
    def test_polarity_partition(self):
        model = make_model(LINFC, tasks=4)
        mask = model.head.registry.fake_mask()
        assert mask.sum() == 4 and (~mask).sum() == 4

    def test_latent_replay_roundtrip(self):
        model = make_model(LINFC, tasks=1, seed=9)
        x = np.random.default_rng(6).normal(size=(5, 6))
        full, latent = model.extractor.forward_with_capture(x)
        resumed = model.extractor.forward_from_latent(latent)
        np.testing.assert_array_equal(full, resumed)


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        model = make_model(COSFC, tasks=2, seed=13)
        model.sessions_trained = 2
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model, memory_payload={"kind": "raw", "budget": 1, "classes": {}})
        loaded, memory_payload = mdl.load_checkpoint(path)
        assert memory_payload == {"kind": "raw", "budget": 1, "classes": {}}
        assert loaded.sessions_trained == 2
        assert loaded.head.variant == COSFC
        assert loaded.head.registry.entries == model.head.registry.entries
        x = np.random.default_rng(7).normal(size=(4, 6))
        np.testing.assert_array_equal(loaded.forward(x)[1], model.forward(x)[1])


class TestCheckpointValidation:
    @pytest.mark.parametrize("blob", [b"{", b'{"format": "\xff"}'])
    def test_file_that_is_not_json_rejected(self, tmp_path, blob):
        path = tmp_path / "ckpt.json"
        path.write_bytes(blob)
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: not a JSON document"):
            mdl.load_checkpoint(path)

    def _saved_payload(self, tmp_path):
        model = make_model(LINFC, tasks=2, seed=3)
        model.sessions_trained = 2
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model)
        return path, json.loads(path.read_text())

    def test_truncated_layer_list_rejected(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        del blob["model"]["extractor"]["weights"][2]
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.extractor\.weights: expected 3 entries, found 2"):
            mdl.load_checkpoint(path)

    def test_wrong_bias_shape_rejected(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["extractor"]["biases"][1] = [0.0] * 7
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.extractor\.biases\[1\]: shape \(7,\), expected \(8,\)"):
            mdl.load_checkpoint(path)

    def test_memory_rows_checked_against_the_model(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        rows = np.zeros((5, 5)).tolist()  # 5 exemplars, 5 wide, for a 6-input model under budget 1
        blob["memory"] = {"kind": "raw", "budget": 1, "classes": {"0": {"task_id": 1, "rows": rows}}}
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"memory\.classes\['0'\]\.rows: rows have 5 entries"):
            mdl.load_checkpoint(path)
        blob["memory"]["classes"]["0"]["rows"] = np.zeros((5, 6)).tolist()
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"5 exemplars exceed budget 1"):
            mdl.load_checkpoint(path)

    def test_save_writes_what_json_dump_writes(self, tmp_path):
        model = make_model(LINFC, tasks=2, seed=4)
        classes = {"2": {"task_id": 2, "rows": [[0.1, 1e-300, -2.5]]}, "10": {"task_id": 6, "rows": []}}
        memory = {"kind": "raw", "budget": 3, "classes": classes}
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model, memory)
        blob = {"format": mdl.CHECKPOINT_FORMAT, "model": mdl._model_payload(model), "memory": memory}
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        assert path.read_bytes() == (tmp_path / "dumped.json").read_bytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["extractor"]["weights"][1][0][0] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.extractor\.weights\[1\]: non-finite entries"):
            mdl.load_checkpoint(path)
        blob["model"]["extractor"]["weights"][1][0][0] = 0.0
        blob["model"]["head"]["bias"][0] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.head\.bias: non-finite entries"):
            mdl.load_checkpoint(path)

    def test_head_rows_follow_the_registry(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["head"]["theta"].pop()
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.head\.theta"):
            mdl.load_checkpoint(path)
