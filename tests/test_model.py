import errno
import json
import os
import re

import numpy as np
import pytest

from cddet import losses as ls
from cddet import model as mdl
from cddet.errors import ConfigError, ContractError, ParseError, ProtocolError
from cddet.model import COSFC, FAKE, LINFC, REAL, SIGMOID, Model
from cddet.verify import check_snapshot_immutability


def make_model(variant, tasks=0, seed=0, d=6):
    rng = np.random.default_rng(seed)
    model = Model.build(d, variant, rng, hidden=(8, 8), feature_width=5)
    for task_id in range(1, tasks + 1):
        if variant == SIGMOID:
            model.head.register_task(task_id)
        else:
            model.head.expand(task_id, rng)
    return model


class TestForward:
    def test_linfc_identity_head_passes_features_through(self):
        rng = np.random.default_rng(3)
        model = make_model(LINFC, tasks=0)
        model.head.expand(1, rng)
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
        tape (``losses._forward_joint``), from raw rows and, with the layers
        below the capture layer frozen, from latents."""
        model = make_model(variant, tasks=2, seed=4)
        x = np.random.default_rng(5).normal(size=(6, 6))
        _, latent = model.extractor.forward_with_capture(x)
        for frozen, rows, (features, logits) in (
            (0, x, model.forward(x)),
            (model.extractor.capture_layer + 1, latent, model.forward_from_latent(latent)),
        ):
            model.extractor.frozen = frozen
            taped_features, taped_logits = ls._forward_joint(model, ls.tape_leaves(model), rows)
            np.testing.assert_array_equal(features, taped_features.data)
            np.testing.assert_array_equal(logits, taped_logits.data)

    @pytest.mark.parametrize("hidden", [(8, 8), ()])
    def test_forward_passes_leave_their_inputs_unwritten(self, hidden):
        """The layers add the bias and apply the relu in place on their own
        pre-activations only: raw rows, stored latents and a training step's
        rows are byte-identical after the call, and the capture activation
        shares no memory with the input (with no hidden layer it is a copy
        of the input)."""
        rng = np.random.default_rng(6)
        model = Model.build(6, LINFC, rng, hidden=hidden, feature_width=5)
        model.head.expand(1, rng)
        model.head.expand(2, rng)
        rng = np.random.default_rng(7)
        x = rng.normal(size=(6, 6))
        latent = rng.normal(size=(6, model.extractor.latent_width))
        step = ls.step_rows(model, x[:4], np.array([2, 3, 2, 3]), x[4:], ls.ReplayConstants(np.array([0, 1])))
        grads = [np.empty_like(p) for p in model.parameters()]
        calls = [
            (x, lambda: model.forward(x)),
            (x, lambda: model.extractor.forward_with_capture(x)),
            (latent, lambda: model.forward_from_latent(latent)),
            (step.x, lambda: ls.loss_and_gradients(step, model, ls.LossWeights(gamma_m=1.0), grads)),
        ]
        for rows, call in calls:
            before = rows.copy()
            call()
            assert rows.tobytes() == before.tobytes()
        _, captured = model.extractor.forward_with_capture(x)
        assert not np.shares_memory(captured, x)

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
        assert reg.tasks == [1, 2, 3]
        assert [reg.class_of(t, p) for t in reg.tasks for p in (REAL, FAKE)] == list(range(6))

    def test_old_rows_preserved_bitwise(self):
        model = make_model(LINFC, tasks=2, seed=5)
        before = model.head.theta.copy()
        model.head.expand(3, np.random.default_rng(0))
        np.testing.assert_array_equal(model.head.theta[:4], before)

    def test_duplicate_task_rejected(self):
        model = make_model(LINFC, tasks=1)
        with pytest.raises(ProtocolError):
            model.head.expand(1, np.random.default_rng(0))

    def test_seeded_expansion_reproduces(self):
        a = make_model(LINFC, tasks=3, seed=11)
        b = make_model(LINFC, tasks=3, seed=11)
        np.testing.assert_array_equal(a.head.theta, b.head.theta)

    def test_sigmoid_keeps_one_unit(self):
        model = make_model(SIGMOID, tasks=3)
        assert model.head.theta.shape == (1, 5)
        with pytest.raises(ProtocolError):
            model.head.expand(4, np.random.default_rng(0))


class TestSnapshot:
    def test_outputs_match_at_capture(self):
        model = make_model(LINFC, tasks=2, seed=7)
        snap = model.snapshot()
        x = np.random.default_rng(3).normal(size=(4, 6))
        _, live = model.forward(x)
        _, frozen = snap.forward(x)
        np.testing.assert_array_equal(live, frozen)

    def test_immutable_under_live_updates(self):
        result = check_snapshot_immutability(4)
        assert result.passed, result.detail

    def test_requires_a_trained_session(self):
        model = make_model(LINFC, tasks=0)
        with pytest.raises(ProtocolError):
            model.snapshot()


class TestPredict:
    def test_bc_boundary_is_fake(self):
        model = make_model(SIGMOID, tasks=1)
        out = mdl.predict_binary(model.head, np.array([[0.0], [-2.0], [2.0]]))
        np.testing.assert_array_equal(out, [FAKE, REAL, FAKE])

    def test_mc_polarity_from_registry(self):
        model = make_model(LINFC, tasks=2)
        # class layout: (1,R) (1,F) (2,R) (2,F); peak on class 2 -> (2, REAL)
        logits = np.array([[0.0, 0.1, 3.0, 0.2]])
        assert mdl.predict_binary(model.head, logits)[0] == REAL

    def test_mc_prediction_invariant_to_positive_scaling(self):
        model = make_model(LINFC, tasks=2)
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(50, 4))
        base = mdl.predict_binary(model.head, logits)
        for c in (0.1, 2.0, 17.0):
            np.testing.assert_array_equal(mdl.predict_binary(model.head, c * logits), base)

    def test_argmax_tie_lowest_class(self):
        model = make_model(LINFC, tasks=2)
        logits = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert mdl.predict_class(logits)[0] == 0


class TestFakeScore:
    def test_symmetric_maxima(self):
        model = make_model(LINFC, tasks=1)
        # equal activations on the real and fake class
        logits = np.array([[0.3, 0.3]])
        assert mdl.fake_score(model.head, logits)[0] == pytest.approx(0.5)

    def test_ratio_arithmetic(self):
        # activations 0.6 fake vs 0.2 real -> 0.75; build logits accordingly
        m_f, m_r = 0.6, 0.2
        assert m_f / (m_f + m_r) == pytest.approx(0.75)

    def test_confident_fake_scores_one(self):
        model = make_model(LINFC, tasks=1)
        logits = np.array([[-60.0, 60.0]])
        assert mdl.fake_score(model.head, logits)[0] == pytest.approx(1.0, abs=1e-12)

    def test_bc_uses_sigmoid(self):
        model = make_model(SIGMOID, tasks=1)
        score = mdl.fake_score(model.head, np.array([[0.0]]))
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
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model, memory_payload={"kind": "raw", "budget": 1, "classes": {}})
        loaded, memory_payload = mdl.load_checkpoint(path)
        assert memory_payload == {"kind": "raw", "budget": 1, "classes": {}}
        assert loaded.head.variant == COSFC
        assert loaded.head.registry.tasks == model.head.registry.tasks
        x = np.random.default_rng(7).normal(size=(4, 6))
        np.testing.assert_array_equal(loaded.forward(x)[1], model.forward(x)[1])


class TestCheckpointValidation:
    @pytest.mark.parametrize(
        "blob, error, message",
        [
            pytest.param(b"{", ConfigError, "checkpoint {path}: not a JSON document (", id="{"),
            # bytes that are not UTF-8 read as in every other input file
            pytest.param(
                b'{"format": "\xff"}', ParseError, "line 1: not UTF-8 text (invalid start byte)",
                id='{"format": "\xff"}',
            ),
        ],
    )
    def test_file_that_is_not_json_rejected(self, tmp_path, blob, error, message):
        path = tmp_path / "ckpt.json"
        path.write_bytes(blob)
        with pytest.raises(error, match="^" + re.escape(message.format(path=path))) as info:
            mdl.load_checkpoint(path)
        if error is ParseError:
            assert info.value.path == path

    @pytest.mark.parametrize("kind", ["directory", "absent"])
    def test_unreadable_file_rejected_naming_it(self, tmp_path, kind):
        path = tmp_path / "ckpt.json"
        if kind == "directory":
            path.mkdir()
        reason = os.strerror(errno.EISDIR if kind == "directory" else errno.ENOENT)
        with pytest.raises(ParseError, match=f"^{re.escape(f'cannot read ({reason})')}$") as info:
            mdl.load_checkpoint(path)
        assert info.value.path == path

    def _saved_payload(self, tmp_path):
        model = make_model(LINFC, tasks=2, seed=3)
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model)
        return path, json.loads(path.read_text())

    def test_truncated_layer_list_rejected(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        del blob["model"]["extractor"]["weights"][2]
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.extractor\.weights: expected 3 entries, found 2"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("widths", [[], [6]])
    def test_widths_without_a_layer_rejected(self, tmp_path, widths):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["widths"] = widths
        blob["model"]["extractor"] = {"weights": [], "biases": []}
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match="^extractor needs at least input and feature widths$"):
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
        """Memory rows given as the arrays ``to_payload`` returns, or as the
        lists ``load_checkpoint`` returns, are written as ``json.dump``
        writes the lists."""
        model = make_model(LINFC, tasks=2, seed=4)
        arrays = {
            "2": np.array([[0.1, 1e-300, -2.5]]),
            "10": np.empty((0, 3)),
            "11": np.array([[1.0, -0.0, 3e8], [5e-324, 2.0 / 3.0, -1.5], [7.0, 1e22, 0.25]]),
        }
        listed = {key: {"task_id": 2, "rows": rows.tolist()} for key, rows in arrays.items()}
        memory = {"kind": "raw", "budget": 3, "classes": listed}
        blob = {"format": mdl.CHECKPOINT_FORMAT, "model": mdl._model_payload(model), "memory": memory}
        with open(tmp_path / "dumped.json", "w", encoding="utf-8") as fh:
            json.dump(blob, fh, sort_keys=True)
        path = tmp_path / "ckpt.json"
        for classes in (listed, {key: {"task_id": 2, "rows": rows} for key, rows in arrays.items()}):
            mdl.save_checkpoint(path, model, {"kind": "raw", "budget": 3, "classes": classes})
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

    @pytest.mark.parametrize("registry", [
        [[1, 1], [1, 0], [2, 0], [2, 1]],
        [[1, 0], [1, 1], [1, 0], [1, 1]],
    ], ids=["fake-class-first", "task-twice"])
    def test_registry_out_of_its_pair_layout_rejected(self, tmp_path, registry):
        """The registry is one [task_id, 0], [task_id, 1] pair per task, in
        turn, which is all a run writes."""
        path, blob = self._saved_payload(tmp_path)
        assert blob["model"]["registry"] == [[1, 0], [1, 1], [2, 0], [2, 1]]
        blob["model"]["registry"] = registry
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.registry: entries must be \[task_id, 0\], \[task_id, 1\]"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("value", [0, 3, "2"])
    def test_sessions_trained_must_be_the_task_count(self, tmp_path, value):
        """Each session registers one task, so the stored session count is
        the registry's task count; a checkpoint that says otherwise would
        resume at another learning rate."""
        path, blob = self._saved_payload(tmp_path)
        assert blob["model"]["sessions_trained"] == 2
        blob["model"]["sessions_trained"] = value
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=rf"^checkpoint field model\.sessions_trained: {value!r}, expected 2$"):
            mdl.load_checkpoint(path)

    def test_head_rows_follow_the_registry(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["head"]["theta"].pop()
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.head\.theta"):
            mdl.load_checkpoint(path)
