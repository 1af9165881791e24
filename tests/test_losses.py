import numpy as np
import pytest

from cddet import diffcore as dc
from cddet import losses as ls
from cddet.errors import ContractError
from cddet.losses import AGG_RULES, LossWeights, ReplayConstants
from cddet.model import FAKE, LINFC, REAL, Model
from cddet.verify import check_aggregation_coincidence, check_loss_gradients


def _onehot(classes, k):
    """The one-hot label rows of ``classes``, as ``step_rows`` builds them."""
    return ls.label_smooth(classes, k, 0.0)


class TestMulticlassCE:
    def test_uniform_logits(self):
        logits = dc.Tensor(np.zeros((3, 4)))
        assert ls.multiclass_ce(logits, _onehot([0, 1, 2], 4)).item() == pytest.approx(np.log(4.0), abs=1e-12)

    def test_closed_form(self):
        loss = ls.multiclass_ce(dc.Tensor([[2.0, 0.0]]), _onehot([0], 2))
        assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-2.0)), abs=1e-12)
        assert round(loss.item(), 4) == 0.1269

    def test_confident_target_is_zero(self):
        loss = ls.multiclass_ce(dc.Tensor([[80.0, 0.0, 0.0]]), _onehot([0], 3))
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_label_rows_of_another_shape_rejected(self):
        """numpy would broadcast a 1-row block over every row."""
        with pytest.raises(ContractError, match="label rows shape"):
            ls.multiclass_ce(dc.Tensor(np.zeros((2, 3))), _onehot([0], 3))


class TestBinaryCE:
    def test_zero_logit(self):
        loss = ls.binary_ce(dc.Tensor([[0.0], [0.0]]), [0, 1])
        assert loss.item() == pytest.approx(np.log(2.0), abs=1e-12)

    def test_closed_form(self):
        loss = ls.binary_ce(dc.Tensor([[1.0]]), [1])
        assert loss.item() == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-12)
        assert round(loss.item(), 4) == 0.3133

    def test_saturated_limit(self):
        assert ls.binary_ce(dc.Tensor([[50.0]]), [1]).item() <= 1e-12


class TestKdKl:
    def test_identical_logits_zero(self):
        z = np.array([[0.4, -1.2, 2.0], [0.0, 0.5, -0.5]])
        loss = ls.kd_kl(z, dc.Tensor(z), T=1.0, k=3)
        assert loss.item() == 0.0

    def test_two_class_closed_form(self):
        loss = ls.kd_kl(np.array([[1.0, 0.0]]), dc.Tensor([[0.0, 1.0]]), 1.0, 2)
        p = dc.np_sigmoid(np.array([1.0]))[0]
        expected = (p - (1 - p)) * 1.0  # (p - q) * logit gap = 2*sigmoid(1) - 1
        assert loss.item() == pytest.approx(expected, abs=1e-12)
        assert loss.item() == pytest.approx(0.46212, abs=5e-6)

    def test_temperature_scaling_keeps_zero_at_equality(self):
        z = np.array([[3.0, -1.0]])
        for t in (1.0, 2.0, 4.0):
            assert ls.kd_kl(z, dc.Tensor(z), t, 2).item() == 0.0

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            old = rng.normal(size=(4, 5))
            new = rng.normal(size=(4, 5))
            val = ls.kd_kl(old, dc.Tensor(new), 2.0, 5).item()
            assert val >= -1e-15
            if not np.allclose(dc.np_softmax(old / 2.0, 1), dc.np_softmax(new / 2.0, 1)):
                assert val > 1e-10

    def test_the_distilled_columns_are_a_view_of_the_leading_ones(self):
        z = np.arange(12.0).reshape(3, 4)
        picked = ls._kd_columns(z, 3)
        assert np.shares_memory(picked, z) and picked.tobytes() == z[:, [0, 1, 2]].tobytes()

    def test_binary_mask_mode(self):
        z = np.array([[0.7], [-0.3]])
        assert ls.kd_kl(z, dc.Tensor(z), 1.0, 1).item() == 0.0
        moved = ls.kd_kl(z, dc.Tensor(z + 1.0), 1.0, 1).item()
        assert moved > 0


class TestKdFeature:
    def test_identical(self):
        f = np.random.default_rng(2).normal(size=(3, 4))
        assert ls.kd_feature(f, dc.Tensor(f)).item() == pytest.approx(0.0, abs=1e-15)

    def test_orthogonal(self):
        old = np.array([[1.0, 0.0]])
        new = np.array([[0.0, 1.0]])
        assert ls.kd_feature(old, dc.Tensor(new)).item() == pytest.approx(1.0)

    def test_opposite(self):
        old = np.array([[1.0, 2.0]])
        assert ls.kd_feature(old, dc.Tensor(-old)).item() == pytest.approx(2.0)


def _embeddings_with_cosines(target_cos, rival_cosines):
    """Unit feature [1,0,...]; embeddings with prescribed cosines against it."""
    dim = 2 + len(rival_cosines)
    rows = []
    for j, c in enumerate([target_cos] + list(rival_cosines)):
        row = np.zeros(dim)
        row[0] = c
        row[1 + j] = np.sqrt(1.0 - c * c)
        rows.append(row)
    features = np.zeros((1, dim))
    features[0, 0] = 1.0
    return dc.Tensor(features), dc.Tensor(np.array(rows))


class TestMarginRanking:
    def test_satisfied_margin(self):
        feats, emb = _embeddings_with_cosines(1.0, [0.7])
        loss = ls.margin_ranking(feats, emb, [0], tau=0.2, J=1)
        assert loss.item() == 0.0

    def test_hinge_arithmetic(self):
        feats, emb = _embeddings_with_cosines(0.5, [0.6, 0.4])
        loss = ls.margin_ranking(feats, emb, [0], tau=0.2, J=2)
        assert loss.item() == pytest.approx(0.3 + 0.1, abs=1e-12)
        assert ls.margin_ranking(feats, emb, [0], tau=0.2, J=1).item() == pytest.approx(0.3, abs=1e-12)

    def test_j_zero(self):
        feats, emb = _embeddings_with_cosines(0.5, [0.6])
        assert ls.margin_ranking(feats, emb, [0], tau=0.2, J=0).item() == 0.0

    def test_no_rows(self):
        _, emb = _embeddings_with_cosines(0.5, [0.6, 0.4])
        assert ls.margin_ranking(dc.Tensor(np.zeros((0, 4))), emb, [], tau=0.2, J=2).item() == 0.0

    def test_j_too_large(self):
        feats, emb = _embeddings_with_cosines(0.5, [0.6])
        with pytest.raises(ContractError):
            ls.margin_ranking(feats, emb, [0], tau=0.2, J=2)


class TestAggregate:
    def test_given_distribution(self):
        # class layout: real, fakeA, fakeB with activations 0.2, 0.5, 0.3
        acts = np.array([0.2, 0.5, 0.3])
        logits = np.log(acts)
        fake_mask = np.array([REAL, FAKE, FAKE]) == FAKE
        (d_f,), _, _, _ = ls.aggregate_batch(logits, fake_mask, "sumlog")
        assert d_f == pytest.approx(np.log(0.5) + np.log(0.3), abs=1e-9)
        assert round(d_f, 4) == -1.8971
        (d_f,), _, _, _ = ls.aggregate_batch(logits, fake_mask, "sumlogit")
        assert d_f == pytest.approx(np.log(0.8), abs=1e-9)
        (d_f,), _, _, _ = ls.aggregate_batch(logits, fake_mask, "max")
        assert d_f == pytest.approx(np.log(0.5), abs=1e-9)

    def test_single_pair_coincidence(self):
        """Every rule agrees with SumLog on one real and one fake class, and
        SumLogit's two scores are the logs of a partition of unity."""
        result = check_aggregation_coincidence(3, trials=1000)
        assert result.passed, result.detail

    def test_the_coincidence_check_fails_on_a_rule_that_drifts(self, monkeypatch):
        """A rule whose fake score lies 1e-9 off SumLog's on a pair fails it."""
        right = ls.aggregate_batch

        def drifting(logits, fake_mask, rule):
            d_f, d_r, grad_f, grad_r = right(logits, fake_mask, rule)
            return (d_f + 1e-9 if rule == ls.MAX else d_f), d_r, grad_f, grad_r

        monkeypatch.setattr(ls, "aggregate_batch", drifting)
        assert not check_aggregation_coincidence(3, trials=10).passed

    def test_sumlogit_partition_of_unity(self):
        rng = np.random.default_rng(4)
        fake_mask = np.array([REAL, FAKE, REAL, FAKE, FAKE]) == FAKE
        for _ in range(100):
            logits = rng.normal(size=5)
            (d_f,), (d_r,), _, _ = ls.aggregate_batch(logits, fake_mask, "sumlogit")
            assert np.exp(d_f) + np.exp(d_r) == pytest.approx(1.0, abs=1e-12)

    def test_single_polarity_rejected(self):
        with pytest.raises(ContractError):
            ls.aggregate_batch(np.zeros(2), np.array([FAKE, FAKE]) == FAKE, "max")

    @pytest.mark.parametrize("rule", ["sumlog", "sumlogit"])
    def test_a_group_adds_in_class_order(self, rule):
        """Bit for bit, a SumLog or SumLogit score adds its group's terms one
        class after another. numpy adds 8 or more contiguous elements
        pairwise, so a group gathered in another memory layout would add
        them in another order. The step and the tape share this score, so
        only an oracle outside both can pin its order."""
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(16, 18))
        fake_mask = rng.permutation(np.arange(18) % 2 == 0)
        d_f, d_r, _, _ = ls.aggregate_batch(logits, fake_mask, rule)
        logp = dc.np_log_softmax(logits, axis=1)
        for d, group in ((d_f, np.flatnonzero(fake_mask)), (d_r, np.flatnonzero(~fake_mask))):
            inside = logp[:, group]
            top = inside.max(axis=1)
            terms = inside if rule == "sumlog" else np.exp(inside - top[:, None])
            total = terms[:, 0].copy()
            for c in range(1, group.size):
                total += terms[:, c]
            want = total if rule == "sumlog" else top + np.log(total)
            assert d.tobytes() == want.tobytes()


class TestKernelRounding:
    """Bit for bit, each loss kernel divides by the window's row count where
    its formula does. Every step window of the pinned runs holds a power of
    two rows, where dividing earlier or later rounds alike, and the step and
    the tape share these kernels, so only an oracle on 3-row windows pins
    the order. Each oracle is written one entry at a time, on eight draws."""

    @pytest.mark.parametrize("seed", range(8))
    def test_ce_gradient_divides_last(self, seed):
        logp = dc.np_log_softmax(np.random.default_rng(seed).normal(size=(3, 4)), axis=1)
        rows = ls.label_smooth(np.array([0, 2, 3]), 4, 0.1)
        p = np.exp(logp)
        want = np.array([[(p[i, k] * rows[i].sum() - rows[i, k]) / 3 for k in range(4)] for i in range(3)])
        assert ls._ce_parts(logp, rows)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_bce_gradient_divides_last(self, seed):
        z, y = np.random.default_rng(seed).normal(size=(3, 1)), np.array([0.0, 1.0, 1.0])
        s = dc.np_sigmoid(z[:, 0])
        want = np.array([[(s[i] - y[i]) / 3] for i in range(3)])
        assert ls._bce_parts(z, y)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_kd_gradient_scales_by_t_over_n(self, seed):
        rng = np.random.default_rng(seed)
        old, new, cols, T = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), np.arange(3), 2.0
        logp, p = ls.kd_targets(old, cols.size, T)
        q = np.exp(dc.np_log_softmax(new[:, cols] / T, axis=1))
        want = np.zeros((3, 4))
        for i in range(3):
            for c in cols:
                want[i, c] = (q[i, c] - p[i, c]) * (T / 3)
        assert ls._kd_parts(logp, p, new, cols.size, T)[1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("seed", range(8))
    def test_margin_value_scales_by_one_over_n(self, seed):
        sims, targets, tau, J = np.random.default_rng(seed).uniform(-1, 1, size=(3, 4)), np.array([1, 0, 3]), 0.5, 2
        total = 0.0
        for i in range(3):
            rivals = sorted((c for c in range(4) if c != targets[i]), key=lambda c: -sims[i, c])[:J]
            for c in rivals:
                gap = sims[i, c] - sims[i, targets[i]] + tau
                total += gap if gap > 0 else 0.0
        assert ls._margin_parts(sims, targets, tau, J)[0] == total * (1.0 / 3)


class TestMtClassLoss:
    def _setup(self, seed=5, n=6, k=4):
        rng = np.random.default_rng(seed)
        logits = dc.Tensor(rng.normal(size=(n, k)))
        targets = rng.integers(0, k, size=n)
        polarities = np.array([REAL, FAKE, REAL, FAKE])
        return logits, targets, _onehot(targets, k), polarities

    def test_lambda_zero_equals_ce(self):
        logits, _, rows, pol = self._setup()
        mt = ls.mt_class_loss(logits, rows, pol, 0.0, "sumlogit")
        ce = ls.multiclass_ce(logits, rows)
        assert mt.item() == ce.item()

    def test_lambda_one_is_pure_binary_term(self):
        logits, targets, rows, pol = self._setup()
        mt = ls.mt_class_loss(logits, rows, pol, 1.0, "sumlogit")
        d_f, d_r, _, _ = ls.aggregate_batch(logits.data, np.asarray(pol) == FAKE, "sumlogit")
        w = (np.asarray(pol) == FAKE)[targets].astype(float)
        expected = -np.mean(w * d_f + (1 - w) * d_r)
        assert mt.item() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_label_rows_of_another_shape_rejected(self, lam):
        logits, _, _, pol = self._setup()
        with pytest.raises(ContractError, match="label rows shape"):
            ls.mt_class_loss(logits, _onehot([1], 4), pol, lam, "sumlogit")

    def test_default_lambda_is_benchmark_value(self):
        assert LossWeights().lam == 0.3


class TestLabelSmooth:
    def test_eps_zero_identity(self):
        rows = ls.label_smooth([2], 4, 0.0)
        np.testing.assert_array_equal(rows, [[0, 0, 1, 0]])

    def test_arithmetic(self):
        rows = ls.label_smooth([0], 4, 0.1)
        np.testing.assert_allclose(rows[0], [0.925, 0.025, 0.025, 0.025], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            eps = rng.uniform(0, 0.99)
            rows = ls.label_smooth(rng.integers(0, 5, size=8), 5, eps)
            np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-12)


def _small_model(variant=LINFC, tasks=2, seed=0, d=5):
    rng = np.random.default_rng(seed)
    model = Model.build(d, variant, rng, hidden=(6,), feature_width=4)
    for t in range(1, tasks + 1):
        if variant == "sigmoid":
            model.head.register_task(t)
        else:
            model.head.expand(t, rng)
    return model


def _session_rows(rng, model, task, n=6):
    """Raw rows of a task and their classes."""
    d = model.extractor.input_width
    x = rng.normal(size=(n, d))
    polarity = rng.integers(0, 2, size=n)
    return x, np.array([model.head.registry.class_of(task, p) for p in polarity])


class TestTotalLoss:
    def test_bare_classification_bit_identity(self):
        rng = np.random.default_rng(8)
        model = _small_model()
        x, classes = _session_rows(rng, model, task=2)
        w = LossWeights(gamma_d=0.0, gamma_m=0.0)
        combined = ls.total_loss(ls.step_rows(model, x, classes), model, w)
        _, logits = model.forward(x)
        bare = ls.multiclass_ce(dc.Tensor(logits), _onehot(classes, logits.shape[1]))
        assert combined.item() == bare.item()

    def test_step_rows_smooths_the_label_rows_by_eps(self):
        """A step's and a session's label rows: one-hot at eps 0, bit for
        bit, and ``label_smooth``'s rows at another eps."""
        rng = np.random.default_rng(14)
        model = _small_model()
        x, classes = _session_rows(rng, model, task=2)
        k = model.head.theta.shape[0]
        assert ls.step_rows(model, x, classes).targets.tobytes() == np.eye(k)[classes].tobytes()
        smoothed = ls.step_rows(model, x, classes, eps=0.1).targets
        assert smoothed.tobytes() == ls.label_smooth(classes, k, 0.1).tobytes()

    def test_distilling_without_snapshot_constants_is_a_contract_error(self):
        """The reference and the step both refuse to distil replayed rows
        that carry only their classes, and both run once they carry
        ``snapshot_constants`` of the logit or the feature form."""
        rng = np.random.default_rng(9)
        model = _small_model()
        new_x, new_classes = _session_rows(rng, model, task=2, n=4)
        ex_x, ex_classes = _session_rows(rng, model, task=1, n=3)
        w = LossWeights(gamma_d=1.0)
        grads = [np.empty_like(p) for p in model.parameters()]
        step = ls.step_rows(model, new_x, new_classes, ex_x, ReplayConstants(ex_classes))
        with pytest.raises(ContractError, match="snapshot's outputs"):
            ls.total_loss(step, model, w)
        with pytest.raises(ContractError, match="snapshot's outputs"):
            ls.loss_and_gradients(step, model, w, grads)
        for form in ("logit", "feature"):
            ex = ls.snapshot_constants(model, ex_x, ex_classes, w.T, form)
            step = ls.step_rows(model, new_x, new_classes, ex_x, ex)
            want = ls.total_loss(step, model, w).item()
            got = ls.loss_and_gradients(step, model, w, grads)
            assert abs(got - want) <= 1e-15 * abs(want), form

    def test_the_replayed_rows_constants_decide_what_is_distilled(self):
        """The loss distils the logits when the replayed rows carry the
        logit targets and the features when they carry the old features:
        the classification term plus gamma_d times those terms, in the
        reference and in the step."""
        rng = np.random.default_rng(15)
        model = _small_model()
        old = model.snapshot()
        for p in model.parameters():  # the live model drifts from the old one
            p += 0.05 * rng.normal(size=p.shape)
        new_x, new_classes = _session_rows(rng, model, task=2, n=4)
        ex_x, ex_classes = _session_rows(rng, model, task=1, n=3)
        w = LossWeights(gamma_d=0.7, T=2.0)
        grads = [np.empty_like(p) for p in model.parameters()]
        old_feats, old_logits = old.forward(ex_x)
        feats, logits = model.forward(np.concatenate([new_x, ex_x]))
        rows = _onehot(np.concatenate([new_classes, ex_classes]), logits.shape[1])
        ce = ls.multiclass_ce(dc.Tensor(logits), rows).item()
        kd = ls.kd_kl(old_logits, dc.Tensor(logits[4:]), w.T, old_logits.shape[1]).item()
        feature = ls.kd_feature(old_feats, dc.Tensor(feats[4:])).item()
        terms = {"logit": kd, "feature": feature, "logit+feature": kd + feature}
        for form, distilled in terms.items():
            ex = ls.snapshot_constants(old, ex_x, ex_classes, w.T, form)
            step = ls.step_rows(model, new_x, new_classes, ex_x, ex)
            want = ce + w.gamma_d * distilled
            assert ls.total_loss(step, model, w).item() == pytest.approx(want, rel=1e-12, abs=0), form
            assert ls.loss_and_gradients(step, model, w, grads) == pytest.approx(want, rel=1e-12, abs=0), form

    def test_replay_only_profile_is_classification_over_union(self):
        rng = np.random.default_rng(10)
        model = _small_model()
        new_x, new_classes = _session_rows(rng, model, task=2, n=4)
        ex_x, ex_classes = _session_rows(rng, model, task=1, n=3)
        w = LossWeights(gamma_d=0.0, gamma_m=0.0)
        step = ls.step_rows(model, new_x, new_classes, ex_x, ReplayConstants(ex_classes))
        combined = ls.total_loss(step, model, w)
        _, logits = model.forward(np.concatenate([new_x, ex_x]))
        bare = ls.multiclass_ce(dc.Tensor(logits), _onehot(np.concatenate([new_classes, ex_classes]), logits.shape[1]))
        assert combined.item() == bare.item()

    def test_distillation_profile_composes(self):
        rng = np.random.default_rng(11)
        model = _small_model()
        snap = model.snapshot()
        # nudge the live model so distillation is non-zero
        for p in model.parameters():
            p += 0.05 * rng.normal(size=p.shape)
        new_x, new_classes = _session_rows(rng, model, task=2, n=4)
        ex_x, ex_classes = _session_rows(rng, model, task=1, n=3)
        ex = ls.snapshot_constants(snap, ex_x, ex_classes, 1.0, "logit")
        step = ls.step_rows(model, new_x, new_classes, ex_x, ex)
        base = ls.total_loss(step, model, LossWeights()).item()
        with_kd = ls.total_loss(step, model, LossWeights(gamma_d=1.0)).item()
        assert with_kd > base

    def test_mt_lambda_zero_gradients_match_mc(self):
        rng = np.random.default_rng(12)
        model = _small_model()
        snap = model.snapshot()
        new_x, new_classes = _session_rows(rng, model, task=2, n=5)
        ex_x, ex_classes = _session_rows(rng, model, task=1, n=3)
        w = LossWeights(gamma_d=0.5, lam=0.0)
        ex = ls.snapshot_constants(snap, ex_x, ex_classes, w.T, "logit")

        def grads_for(rule):
            leaves = ls.tape_leaves(model)
            step = ls.step_rows(model, new_x, new_classes, ex_x, ex)
            ls.total_loss(step, model, w, rule=rule, leaves=leaves).backward()
            return [leaf.grad for leaf in leaves]

        g_mc = grads_for(None)
        g_mt = grads_for("sumlogit")
        for a, b in zip(g_mc, g_mt):
            if a is None:
                assert b is None
            else:
                np.testing.assert_allclose(a, b, atol=1e-12)

    def test_latent_exemplar_rows(self):
        """Latent rows enter above the capture layer, once the layers below
        it are frozen, as latent replay does."""
        rng = np.random.default_rng(13)
        model = _small_model()
        snap = model.snapshot()
        new_x, new_classes = _session_rows(rng, model, task=2, n=4)
        lat = rng.normal(size=(3, model.extractor.latent_width))
        pol = rng.integers(0, 2, size=3)
        classes = np.array([model.head.registry.class_of(1, p) for p in pol])
        ex = ls.snapshot_constants(snap, lat, classes, 1.0, "logit", latent=True)
        model.extractor.frozen = model.extractor.capture_layer + 1
        loss = ls.total_loss(ls.step_rows(model, new_x, new_classes, lat, ex), model, LossWeights(gamma_d=0.3))
        assert np.isfinite(loss.item())


def _smooth_margin_setup(rng, tau=0.2, J=2):
    """Random margin configuration kept away from hinge kinks and rank ties."""
    while True:
        feats = rng.normal(size=(3, 6))
        emb = rng.normal(size=(5, 6))
        targets = rng.integers(0, 5, size=3)
        fn = feats / np.linalg.norm(feats, axis=1, keepdims=True)
        en = emb / np.linalg.norm(emb, axis=1, keepdims=True)
        sims = fn @ en.T
        ok = True
        for i in range(3):
            order = np.argsort(-sims[i], kind="stable")
            rivals = order[order != targets[i]]
            gaps = np.abs(tau - sims[i, targets[i]] + sims[i, rivals[:J]])
            if gaps.min() < 0.05 or abs(sims[i, rivals[J - 1]] - sims[i, rivals[J]]) < 0.05:
                ok = False
                break
        if ok:
            return feats, emb, targets


class TestLossGradients:
    """Every loss against central finite differences at 50 random smooth points."""

    def test_battery_cases(self):
        """The battery's cases: cross-entropy, binary CE, KD over every class,
        feature KD, the MT loss under each aggregation rule, margin ranking
        with every hinge active, and the affine-relu layer."""
        result = check_loss_gradients(20, points=50)
        assert result.passed, result.detail

    @pytest.mark.parametrize(
        "kernel", ["_ce_parts", "_bce_parts", "_kd_parts", "_kd_feature_parts", "_margin_parts", "_mt_parts"]
    )
    def test_the_battery_fails_on_a_wrong_gradient(self, monkeypatch, kernel):
        """The battery checks every term's gradient: any one kernel's,
        0.1% off, fails it."""
        right = getattr(ls, kernel)

        def wrong(*args):
            value, grad = right(*args)
            return value, grad * (1.0 + 1e-3)

        monkeypatch.setattr(ls, kernel, wrong)
        assert check_loss_gradients(0, points=2).passed is False

    def test_the_battery_checks_the_terms_on_the_steps_operands(self, monkeypatch):
        """The battery hands each term operands the step can hand it: one-hot
        label rows, which between them name every class; a lambda strictly
        inside (0, 1), as ``LossWeights`` admits and where both halves of the
        MT mix count; and distillation over the old logits' own columns."""
        rows, lams, kd_cols = [], [], []
        ce, mt, kd = ls.multiclass_ce, ls.mt_class_loss, ls.kd_kl

        def spy_ce(logits, label_rows):
            rows.append(label_rows)
            return ce(logits, label_rows)

        def spy_mt(logits, label_rows, polarity, lam, rule):
            rows.append(label_rows)
            lams.append(lam)
            return mt(logits, label_rows, polarity, lam, rule)

        def spy_kd(old_logits, new_logits, T, k):
            kd_cols.append((k, old_logits.shape[1]))
            return kd(old_logits, new_logits, T, k)

        for name, spy in (("multiclass_ce", spy_ce), ("mt_class_loss", spy_mt), ("kd_kl", spy_kd)):
            monkeypatch.setattr(ls, name, spy)
        assert check_loss_gradients(0).passed
        rows = np.concatenate(rows)
        assert set(np.unique(rows)) == {0.0, 1.0} and np.all(rows.sum(axis=1) == 1.0)
        assert rows.any(axis=0).all()
        assert lams and all(0.0 < lam < 1.0 for lam in lams)
        assert kd_cols and all(k == cols for k, cols in kd_cols)

    def test_multiclass_ce(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            rows = _onehot(rng.integers(0, 5, size=4), 5)
            f = lambda z: ls.multiclass_ce(z, rows)
            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(4, 5)))) < 1e-6

    def test_binary_ce(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            targets = rng.integers(0, 2, size=6)
            f = lambda z: ls.binary_ce(z, targets)
            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(6, 1)))) < 1e-6

    def test_kd_kl(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            old = rng.normal(size=(3, 3))
            f = lambda z: ls.kd_kl(old, z, 2.0, 3)
            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(3, 5)))) < 1e-6

    def test_kd_kl_binary(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            old = rng.normal(size=(4, 1))
            f = lambda z: ls.kd_kl(old, z, 1.0, 1)
            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(4, 1)))) < 1e-6

    def test_kd_feature(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            old = rng.normal(size=(3, 4))
            f = lambda z: ls.kd_feature(old, z)
            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(3, 4)))) < 1e-6

    def test_margin_ranking(self):
        rng = np.random.default_rng(25)
        for J in (2, 1):
            for _ in range(50):
                feats, emb, targets = _smooth_margin_setup(rng, J=J)
                emb_t = dc.Tensor(emb)
                f = lambda z: ls.margin_ranking(z, emb_t, targets, 0.2, J)
                assert dc.grad_check(f, dc.Tensor(feats)) < 1e-6

    @pytest.mark.parametrize("rule", AGG_RULES)
    def test_mt_class_loss(self, rule):
        rng = np.random.default_rng(26)
        pol = np.array([REAL, FAKE, REAL, FAKE])
        for _ in range(50):
            rows = _onehot(rng.integers(0, 4, size=3), 4)

            def f(z):
                return ls.mt_class_loss(z, rows, pol, 0.3, rule)

            assert dc.grad_check(f, dc.Tensor(rng.normal(size=(3, 4)))) < 1e-6

    def test_total_loss_composition(self):
        # linear extractor avoids relu kinks; checks the full chain rule
        rng = np.random.default_rng(27)
        model = Model.build(4, LINFC, rng, hidden=(), feature_width=4)
        model.head.expand(1, rng)
        model.head.expand(2, rng)
        snap = model.snapshot()
        new_x = rng.normal(size=(3, 4))
        ex_x = rng.normal(size=(2, 4))
        w = LossWeights(gamma_d=0.5, gamma_m=0.0)
        ex = ls.snapshot_constants(snap, ex_x, np.array([0, 1]), w.T, "logit+feature")

        leaves = ls.tape_leaves(model)

        step = ls.step_rows(model, new_x, np.array([2, 3, 2]), ex_x, ex)

        def f(probe):  # the probe stands in for the first layer's weights
            return ls.total_loss(step, model, w, leaves=[probe, *leaves[1:]])

        assert dc.grad_check(f, dc.Tensor(model.extractor.weights[0].copy())) < 1e-6
