import errno
import json
import os
import re

import numpy as np
import pytest
from conftest import b64
from hypothesis import given, settings
from hypothesis import strategies as st

from cddet import losses as ls
from cddet import memory as mem
from cddet import model as mdl
from cddet.errors import ConfigError, ContractError, ParseError, ProtocolError
from cddet.memory import ExemplarMemory
from cddet.model import COSFC, FAKE, HEAD_VARIANTS, LINFC, REAL, SIGMOID, Model
from cddet.verify import check_snapshot_immutability


def make_model(variant, tasks=0, seed=0, d=6):
    rng = np.random.default_rng(seed)
    model = Model.build(d, variant, rng, hidden=(8, 8), feature_width=5)
    for task_id in range(1, tasks + 1):
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

    def test_rows_of_another_width_rejected(self):
        """The extractor checks the width of the rows it is handed, raw or latent."""
        model = make_model(LINFC, tasks=1)
        with pytest.raises(ContractError, match="^input width 5 != 6$"):
            model.forward(np.zeros((2, 5)))
        with pytest.raises(ContractError, match="^latent width 5 != 8$"):
            model.forward_from_latent(np.zeros((2, 5)))

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
        shares no memory with the input (with no hidden layer it is the
        features)."""
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
        """``expand`` registers a sigmoid head's task, keeps its one unit
        and draws nothing from the generator."""
        model = make_model(SIGMOID, tasks=3)
        rng = np.random.default_rng(0)
        model.head.expand(4, rng)
        assert model.head.registry.tasks == [1, 2, 3, 4]
        assert model.head.theta.shape == (1, 5)
        assert model.head.bias.shape == (1,)
        assert rng.random() == np.random.default_rng(0).random()


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

    def test_class_of_an_unregistered_task_or_polarity_raises(self):
        registry = make_model(LINFC, tasks=1).head.registry
        for task_id, polarity in ((2, REAL), (1, 2)):
            with pytest.raises(ContractError, match=f"^no class registered for task {task_id} polarity {polarity}$"):
                registry.class_of(task_id, polarity)

    def test_latent_replay_roundtrip(self):
        model = make_model(LINFC, tasks=1, seed=9)
        x = np.random.default_rng(6).normal(size=(5, 6))
        full, latent = model.extractor.forward_with_capture(x)
        resumed = model.extractor.forward_from_latent(latent)
        np.testing.assert_array_equal(full, resumed)

    def test_a_single_layer_captures_its_output(self, tmp_path):
        """With no hidden layer the capture layer is the feature layer: a
        latent capture stores ``latent_width`` entries a row, from which
        ``forward_from_latent`` gives ``forward``'s outputs bit for bit, and
        a checkpoint of the model and its latent memory loads back."""
        rng = np.random.default_rng(8)
        model = Model.build(6, LINFC, rng, hidden=(), feature_width=4)
        model.head.expand(1, rng)
        x = np.random.default_rng(9).normal(size=(5, 6))
        latent = mem.capture(model.extractor, x, mem.LATENT)
        assert latent.shape == (5, model.extractor.latent_width) == (5, 4)
        for resumed, direct in zip(model.forward_from_latent(latent), model.forward(x), strict=True):
            assert_bit_equal(resumed, direct)
        memory = ExemplarMemory(10, mem.LATENT)
        memory.add_class(model.head.registry.class_of(1, REAL), latent)
        path = tmp_path / "checkpoint.json"
        mdl.save_checkpoint(path, model, memory.to_payload())
        loaded, payload = mdl.load_checkpoint(path)
        assert_bit_equal(ExemplarMemory.from_payload(payload, loaded).classes[0], latent)


@st.composite
def run_states(draw):
    """A model of any head variant holding 0 to 3 tasks, and no memory or a
    raw or latent one over some of its classes, each with 0 to 3 rows (a
    class trimmed to no rows among them)."""
    model = make_model(draw(st.sampled_from(HEAD_VARIANTS)), draw(st.integers(0, 3)), draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from([None, mem.RAW, mem.LATENT]))
    if kind is None:
        return model, None
    width = model.extractor.input_width if kind == mem.RAW else model.extractor.latent_width
    n_classes = len(model.head.registry)
    classes = draw(st.sets(st.sampled_from(range(n_classes)))) if n_classes else set()
    row = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=width, max_size=width)
    stored = {c: np.array(draw(st.lists(row, max_size=3))).reshape(-1, width) for c in sorted(classes)}
    memory = ExemplarMemory(max(sum(len(rows) for rows in stored.values()), 1) + draw(st.integers(0, 2)), kind)
    for c, rows in stored.items():
        memory.add_class(c, rows)
    return model, memory


def assert_bit_equal(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestCheckpoint:
    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(run_states())
    def test_roundtrip(self, tmp_path_factory, state):
        """Save, load and save again writes the same bytes; the loaded memory
        payload passes ``from_payload`` against the loaded model, and every
        weight and exemplar row comes back bit for bit."""
        model, memory = state
        path = tmp_path_factory.mktemp("ckpt") / "checkpoint.json"
        mdl.save_checkpoint(path, model, None if memory is None else memory.to_payload())
        written = path.read_bytes()
        loaded, payload = mdl.load_checkpoint(path)
        mdl.save_checkpoint(path, loaded, payload)
        assert path.read_bytes() == written
        assert (loaded.head.variant, loaded.head.registry.tasks) == (model.head.variant, model.head.registry.tasks)
        for got, want in zip(loaded.parameters(), model.parameters(), strict=True):
            assert_bit_equal(got, want)
        if memory is None:
            assert payload is None
            return
        restored = ExemplarMemory.from_payload(payload, loaded)
        assert (restored.budget, restored.payload_kind) == (memory.budget, memory.payload_kind)
        assert restored.classes.keys() == memory.classes.keys()
        for c, rows in memory.classes.items():
            assert_bit_equal(restored.classes[c], rows)


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

    def test_another_format_rejected(self, tmp_path):
        """A v2 file, which stored every array as nested lists of floats."""
        model = make_model(LINFC, tasks=2, seed=3)
        ext, head = model.extractor, model.head
        blob = {"format": "cddet-checkpoint-v2", "memory": None, "model": {
            "widths": list(ext.widths), "capture_layer": ext.capture_layer, "variant": head.variant,
            "tasks": head.registry.tasks, "extractor": {
                "weights": [w.tolist() for w in ext.weights], "biases": [b.tolist() for b in ext.biases],
            }, "head": {"theta": head.theta.tolist(), "bias": head.bias.tolist()},
        }}
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps(blob, sort_keys=True))
        with pytest.raises(ConfigError, match="^unsupported checkpoint format 'cddet-checkpoint-v2'$"):
            mdl.load_checkpoint(path)

    def _saved_payload(self, tmp_path):
        model = make_model(LINFC, tasks=2, seed=3)
        path = tmp_path / "ckpt.json"
        mdl.save_checkpoint(path, model)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("edit, message", [
        (lambda blob: blob["model"].update(capture_layer=2), "^capture layer 2 out of range for 2 hidden layers$"),
        (lambda blob: blob["model"].update(extractor=[]), "^malformed checkpoint: "),
        (lambda blob: blob.update(memory=[1]), "^checkpoint field memory: not an object$"),
        (lambda blob: blob.update(memory={"kind": "raw", "budget": 4, "classes": []}),
         r"^checkpoint field memory\.classes: not an object$"),
    ], ids=["capture-layer-out-of-range", "extractor-a-list", "memory-a-list", "memory-classes-a-list"])
    def test_a_field_of_the_wrong_kind_rejected(self, tmp_path, edit, message):
        path, blob = self._saved_payload(tmp_path)
        edit(blob)
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=message):
            mdl.load_checkpoint(path)

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
        blob["model"]["extractor"]["biases"][1] = b64(np.zeros(7))
        path.write_text(json.dumps(blob))
        message = "checkpoint field model.extractor.biases[1]: 56 bytes do not hold float64s of shape (8,)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            mdl.load_checkpoint(path)

    def test_memory_rows_checked_against_the_model(self, tmp_path):
        """Rows are read at the model's width for the memory's kind, so a
        byte count that is no whole number of its rows is rejected."""
        path, blob = self._saved_payload(tmp_path)
        rows = b64(np.zeros((5, 5)))  # 5 exemplars, 5 wide, for a 6-input model under budget 1
        blob["memory"] = {"kind": "raw", "budget": 1, "classes": {"0": rows}}
        path.write_text(json.dumps(blob))
        message = "checkpoint field memory.classes['0']: 200 bytes do not hold float64s of shape (-1, 6)"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            mdl.load_checkpoint(path)
        blob["memory"]["classes"]["0"] = b64(np.zeros((5, 6)))
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"5 exemplars exceed budget 1"):
            mdl.load_checkpoint(path)

    def test_awkward_values_round_trip_bit_for_bit(self, tmp_path):
        """Signed zero, the least subnormal, a tiny and a large normal and a
        value with no short decimal come back bit for bit in parameters and
        memory rows, as do an empty argmax head and a class trimmed to no
        rows. Each array is stored as the base64 of its little-endian
        float64 bytes, and the loaded state writes the same file again."""
        awkward = np.array([-0.0, 5e-324, 1e-300, 2.0 / 3.0, 1e22])
        for tasks in (0, 2):  # an empty head; a head with four classes and a memory over them
            model = make_model(LINFC, tasks=tasks, seed=4)
            model.extractor.weights[2][3] = awkward
            model.extractor.biases[2] = -awkward
            memory = None
            if tasks:
                model.head.theta[1] = awkward[::-1]
                classes = {"1": np.resize(awkward, (3, 6)), "2": np.empty((0, 6)), "3": -np.resize(awkward, (1, 6))}
                memory = {"kind": "raw", "budget": 4, "classes": classes}
            path = tmp_path / f"ckpt-{tasks}.json"
            mdl.save_checkpoint(path, model, memory)
            written = path.read_bytes()
            stored = json.loads(written)["model"]
            assert stored["extractor"]["weights"][2] == b64(model.extractor.weights[2])
            assert stored["head"]["theta"] == b64(model.head.theta)
            loaded, payload = mdl.load_checkpoint(path)
            for got, want in zip(loaded.parameters(), model.parameters(), strict=True):
                assert_bit_equal(got, want)
            assert loaded.head.theta.shape == (2 * tasks, 5)
            if memory is None:
                assert payload is None
            else:
                assert payload["classes"].keys() == classes.keys()
                for key, rows in classes.items():
                    assert_bit_equal(payload["classes"][key], rows)
            mdl.save_checkpoint(path, loaded, payload)
            assert path.read_bytes() == written

    def test_save_rejects_rows_of_another_width(self, tmp_path):
        """A file stores no row count, so rows of another width than the
        model's would load as other rows: the memory must match the model
        before anything is written."""
        path = tmp_path / "ckpt.json"
        memory = {"kind": "raw", "budget": 3, "classes": {"0": np.zeros((3, 4))}}  # 12 entries: two 6-wide rows
        with pytest.raises(ConfigError, match=r"memory\.classes\['0'\]: rows have 4 entries, the model's raw width is 6"):
            mdl.save_checkpoint(path, make_model(LINFC, tasks=2, seed=3), memory)
        assert not path.exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, tmp_path, value):
        path, blob = self._saved_payload(tmp_path)
        model = make_model(LINFC, tasks=2, seed=3)
        weights = model.extractor.weights[1].copy()
        weights[0, 0] = value
        blob["model"]["extractor"]["weights"][1] = b64(weights)
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.extractor\.weights\[1\]: non-finite entries"):
            mdl.load_checkpoint(path)
        blob["model"]["extractor"]["weights"][1] = b64(model.extractor.weights[1])
        blob["model"]["head"]["bias"] = b64([value, 0.0, 0.0, 0.0])
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.head\.bias: non-finite entries"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("where", ["model", "memory"])
    def test_a_character_outside_base64_rejected(self, tmp_path, where):
        """One character outside the base64 alphabet, inserted into a stored
        array: a lenient decoder would drop it and load the array."""
        path, blob = self._saved_payload(tmp_path)
        blob["memory"] = {"kind": "raw", "budget": 2, "classes": {"3": b64(np.ones((2, 6)))}}
        field = ("model", "extractor", "weights", 0) if where == "model" else ("memory", "classes", "3")
        *parents, last = field
        holder = blob
        for key in parents:
            holder = holder[key]
        holder[last] = holder[last][:8] + "*" + holder[last][8:]
        path.write_text(json.dumps(blob))
        name = "model.extractor.weights[0]" if where == "model" else "memory.classes['3']"
        with pytest.raises(ConfigError, match=f"^checkpoint field {re.escape(name)}: not a base64 string$"):
            mdl.load_checkpoint(path)

    def test_a_width_below_one_rejected(self, tmp_path):
        """A width of 1 loads. A zero width is rejected before any array is
        read at it: its arrays would be empty, and a memory's row width zero."""
        narrow = Model.build(1, LINFC, np.random.default_rng(2), hidden=(1,), feature_width=1)
        mdl.save_checkpoint(tmp_path / "narrow.json", narrow)
        assert mdl.load_checkpoint(tmp_path / "narrow.json")[0].extractor.widths == (1, 1, 1)
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["widths"][0] = 0
        blob["model"]["extractor"]["weights"][0] = ""
        blob["memory"] = {"kind": "raw", "budget": 2, "classes": {"0": ""}}
        path.write_text(json.dumps(blob))
        message = "checkpoint field model.widths: [0, 8, 8, 5] holds a width below 1"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            mdl.load_checkpoint(path)

    def test_a_task_held_twice_rejected(self, tmp_path):
        """``tasks`` holds each task once, which is all a run writes."""
        path, blob = self._saved_payload(tmp_path)
        assert blob["model"]["tasks"] == [1, 2]
        blob["model"]["tasks"] = [1, 1]
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"^checkpoint field model\.tasks: \[1, 1\] holds a task twice$"):
            mdl.load_checkpoint(path)

    @pytest.mark.parametrize("field, index, value", [
        ("capture_layer", None, 0.0),
        ("capture_layer", None, True),
        ("widths", 1, 8.5),
        ("widths", 1, "8"),
        ("tasks", 0, 1.0),
        ("tasks", 0, False),
    ])
    def test_integer_fields_must_be_json_integers(self, tmp_path, field, index, value):
        """A float, a string or a bool where the format has an integer is
        rejected naming the field, not converted or loaded as it is."""
        path, blob = self._saved_payload(tmp_path)
        if index is None:
            blob["model"][field] = value
        else:
            blob["model"][field][index] = value
        path.write_text(json.dumps(blob))
        where = f"model.{field}" if index is None else f"model.{field}[{index}]"
        message = f"checkpoint field {where}: {value!r} is not an integer"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            mdl.load_checkpoint(path)

    def test_head_rows_follow_the_registry(self, tmp_path):
        path, blob = self._saved_payload(tmp_path)
        blob["model"]["head"]["theta"] = b64(make_model(LINFC, tasks=2, seed=3).head.theta[:-1])
        path.write_text(json.dumps(blob))
        with pytest.raises(ConfigError, match=r"model\.head\.theta: 120 bytes do not hold float64s of shape \(4, 5\)"):
            mdl.load_checkpoint(path)


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """A checkpoint small enough that its structure is about half its bytes:
    a two-task model and a latent memory, one class trimmed to no rows."""
    rng = np.random.default_rng(11)
    model = Model.build(2, LINFC, rng, hidden=(2,), feature_width=2)
    for task_id in (1, 2):
        model.head.expand(task_id, rng)
    memory = ExemplarMemory(4, mem.LATENT)
    memory.add_class(0, rng.normal(size=(3, 2)))
    memory.add_class(3, np.empty((0, 2)))
    path = tmp_path_factory.mktemp("fuzz") / "checkpoint.json"
    mdl.save_checkpoint(path, model, memory.to_payload())
    return path


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(at=st.integers(0, 2**32), value=st.integers(0, 255))
def test_a_checkpoint_with_one_edited_byte_loads_or_is_rejected(small_checkpoint, at, value):
    """The checkpoint contract: whatever byte one position of the file takes,
    ``load_checkpoint`` loads it or raises ``ConfigError`` or ``ParseError``,
    never another exception."""
    original = small_checkpoint.read_bytes()
    i = at % len(original)
    small_checkpoint.write_bytes(original[:i] + bytes([value]) + original[i + 1 :])
    try:
        mdl.load_checkpoint(small_checkpoint)
    except (ConfigError, ParseError):
        pass
    finally:
        small_checkpoint.write_bytes(original)
