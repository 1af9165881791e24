"""Oracles for the fused loss and layer ops.

Each fused op is checked twice: its gradient against central differences
(``grad_check``), and its value and gradient against the composition of
primitive ops it replaced, which is kept here as the reference.

Tolerances, fixed from float64 arithmetic and the removed probability floor:
- Where every probability lies inside [1e-12, 1 - 1e-12] the old clamp is
  inactive, so fused and composed versions differ only by rounding. Both
  take a handful of float64 operations on values of order 1-30, which
  leaves errors near 1e-15; ``CLOSE = 1e-12`` allows a thousandfold margin
  and still fails on any real formula difference.
- Outside that range the composed versions floor a probability at 1e-12,
  capping a log-probability at log(1e-12) = -27.63. The fused versions
  carry no floor, so there they are checked against the exact closed form.
- ``GRAD_TOL = 1e-6`` is the finite-difference tolerance the other loss
  gradient tests use (step 1e-5, second-order truncation error).
"""

import numpy as np
import pytest
from tape_ops import (
    add_scalar,
    clamp,
    cosine_pairs,
    gather_pairs,
    log,
    neg,
    relu,
    sigmoid,
    softplus,
    sub,
    take_cols,
    tmax,
    tmean,
    transpose,
)

from cddet import diffcore as dc
from cddet import losses as ls
from cddet.model import FAKE, REAL

PROB_FLOOR = 1e-12  # the clamp the composed versions applied before a log
CLOSE = 1e-12
GRAD_TOL = 1e-6
FLOORED_LOG = np.log(PROB_FLOOR)


# ---------------------------------------------------------------------------
# the compositions the fused ops replaced


def _clamped_log(p):
    return log(clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def composed_multiclass_ce(logits, rows):
    logp = _clamped_log(dc.softmax(logits, axis=1))
    picked = dc.tsum(dc.mul(dc.Tensor(rows), logp), axis=1)
    return dc.scale(tmean(picked), -1.0)


def composed_binary_ce(logit, targets):
    y = np.asarray(targets, dtype=np.float64)
    z = dc.tsum(take_cols(logit, np.array([0])), axis=1)
    s = clamp(sigmoid(z), PROB_FLOOR, 1.0 - PROB_FLOOR)
    pos_term = dc.mul(dc.Tensor(y), log(s))
    neg_term = dc.mul(dc.Tensor(1.0 - y), log(sub(dc.Tensor(np.ones_like(y)), s)))
    return dc.scale(tmean(dc.add(pos_term, neg_term)), -1.0)


def composed_kd_kl(old_logits, new_logits, T, k):
    cols = np.arange(k)
    old = np.asarray(old_logits, dtype=np.float64)[:, cols]
    t = float(T)
    if k == 1:
        p1 = np.clip(dc.np_sigmoid(old[:, 0] / t), PROB_FLOOR, 1.0 - PROB_FLOOR)
        p0 = 1.0 - p1
        z = dc.scale(dc.tsum(take_cols(new_logits, cols), axis=1), 1.0 / t)
        q1 = clamp(sigmoid(z), PROB_FLOOR, 1.0 - PROB_FLOOR)
        q0 = sub(dc.Tensor(np.ones_like(p1)), q1)
        rows = dc.add(
            dc.mul(dc.Tensor(p1), sub(dc.Tensor(np.log(p1)), log(q1))),
            dc.mul(dc.Tensor(p0), sub(dc.Tensor(np.log(p0)), log(q0))),
        )
        return dc.scale(tmean(rows), t * t)
    p = np.clip(dc.np_softmax(old / t, axis=1), PROB_FLOOR, 1.0 - PROB_FLOOR)
    logq = _clamped_log(dc.softmax(dc.scale(take_cols(new_logits, cols), 1.0 / t), axis=1))
    rows = dc.tsum(dc.mul(dc.Tensor(p), sub(dc.Tensor(np.log(p)), logq)), axis=1)
    return dc.scale(tmean(rows), t * t)


def composed_kd_feature(old_feats, new_feats):
    cos = cosine_pairs(dc.Tensor(old_feats), new_feats)
    return tmean(add_scalar(neg(cos), 1.0))


def loop_rivals(sims, targets, J):
    """The per-row search the vectorised one replaced."""
    rivals = np.empty((sims.shape[0], J), dtype=np.intp)
    for i in range(sims.shape[0]):
        order = np.argsort(-sims[i], kind="stable")
        rivals[i] = order[order != targets[i]][:J]
    return rivals


def composed_margin_ranking(features, embeddings, targets, tau, J):
    n = features.shape[0]
    targets = np.asarray(targets, dtype=np.intp)
    sims = dc.cosine_matrix(features, embeddings)
    sel_rows = np.repeat(np.arange(n), J)
    sel_cols = loop_rivals(sims.data, targets, J).ravel()
    rival_sims = gather_pairs(sims, sel_rows, sel_cols)
    target_sims = gather_pairs(sims, sel_rows, np.repeat(targets, J))
    hinge = relu(add_scalar(sub(rival_sims, target_sims), float(tau)))
    return dc.scale(dc.tsum(hinge), 1.0 / n)


def _mask_matrix(mask, n):
    return dc.Tensor(np.broadcast_to(mask.astype(np.float64), (n, mask.size)).copy())


def composed_mt_class_loss(logits, rows, fake_mask, lam, rule):
    n = logits.shape[0]
    acts = dc.softmax(logits, axis=1)
    fm, rm = _mask_matrix(fake_mask, n), _mask_matrix(~fake_mask, n)
    if rule == ls.SUMLOG:
        logg = _clamped_log(acts)
        d_f, d_r = dc.tsum(dc.mul(logg, fm), axis=1), dc.tsum(dc.mul(logg, rm), axis=1)
    elif rule == ls.SUMLOGIT:
        d_f = _clamped_log(dc.tsum(dc.mul(acts, fm), axis=1))
        d_r = _clamped_log(dc.tsum(dc.mul(acts, rm), axis=1))
    elif rule == ls.MAX:
        d_f = _clamped_log(tmax(dc.mul(acts, fm), axis=1))
        d_r = _clamped_log(tmax(dc.mul(acts, rm), axis=1))
    else:
        s_f = dc.tsum(dc.mul(logits, fm), axis=1)
        s_r = dc.tsum(dc.mul(logits, rm), axis=1)
        d_f = neg(softplus(sub(s_r, s_f)))
        d_r = neg(softplus(sub(s_f, s_r)))
    w_fake = rows[:, fake_mask].sum(axis=1)
    picked = dc.add(dc.mul(d_f, dc.Tensor(w_fake)), dc.mul(d_r, dc.Tensor(1.0 - w_fake)))
    binary_term = dc.scale(tmean(picked), -1.0)
    ce = composed_multiclass_ce(logits, rows)
    return dc.add(dc.scale(ce, 1.0 - lam), dc.scale(binary_term, lam))


def composed_affine_relu(x, w, b):
    return relu(dc.affine(x, w, b))


def composed_linear(x, w, b):
    return dc.affine(x, transpose(w), b)


# ---------------------------------------------------------------------------
# helpers


def value_and_grad(f, point):
    """Loss value and analytic gradient of ``f`` at ``point``."""
    probe = dc.Tensor(point.copy(), requires_grad=True)
    out = f(probe)
    out.backward()
    grad = probe.grad if probe.grad is not None else np.zeros_like(point)
    return out.item(), grad


def assert_matches_composed(fused, composed, point, finite_differences=True):
    v_fused, g_fused = value_and_grad(fused, point)
    v_ref, g_ref = value_and_grad(composed, point)
    assert v_fused == pytest.approx(v_ref, abs=CLOSE, rel=CLOSE)
    np.testing.assert_allclose(g_fused, g_ref, atol=CLOSE, rtol=CLOSE)
    if finite_differences:
        assert dc.grad_check(fused, dc.Tensor(point)) < GRAD_TOL


POL = np.array([REAL, FAKE, REAL, FAKE, FAKE])


# ---------------------------------------------------------------------------
# against the compositions, inside the floor


class TestAgainstComposed:
    def test_multiclass_ce_hard_and_soft(self):
        rng = np.random.default_rng(100)
        for _ in range(30):
            z = rng.normal(scale=3.0, size=(4, 5))
            hard = ls.label_smooth(rng.integers(0, 5, size=4), 5, 0.0)
            soft = rng.dirichlet(np.ones(5), size=4)
            for rows in (hard, soft):
                assert_matches_composed(
                    lambda t: ls.multiclass_ce(t, rows),
                    lambda t: composed_multiclass_ce(t, rows),
                    z,
                )

    def test_binary_ce(self):
        rng = np.random.default_rng(101)
        for _ in range(30):
            z = rng.normal(scale=3.0, size=(6, 1))
            y = rng.integers(0, 2, size=6)
            assert_matches_composed(
                lambda t: ls.binary_ce(t, y), lambda t: composed_binary_ce(t, y), z
            )

    @pytest.mark.parametrize("T", [1.0, 2.0])
    def test_kd_kl_softmax(self, T):
        rng = np.random.default_rng(102)
        for _ in range(30):
            old = rng.normal(scale=2.0, size=(3, 5))
            z = rng.normal(scale=2.0, size=(3, 5))
            assert_matches_composed(
                lambda t: ls.kd_kl(old, t, T, 3),
                lambda t: composed_kd_kl(old, t, T, 3),
                z,
            )

    def test_kd_kl_binary(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            old = rng.normal(scale=2.0, size=(4, 1))
            z = rng.normal(scale=2.0, size=(4, 1))
            assert_matches_composed(
                lambda t: ls.kd_kl(old, t, 2.0, 1),
                lambda t: composed_kd_kl(old, t, 2.0, 1),
                z,
            )

    def test_kd_feature(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            old = rng.normal(size=(3, 4))
            assert_matches_composed(
                lambda t: ls.kd_feature(old, t),
                lambda t: composed_kd_feature(old, t),
                rng.normal(size=(3, 4)),
            )

    @pytest.mark.parametrize("rule", ls.AGG_RULES)
    @pytest.mark.parametrize("lam", [0.3, 1.0])
    def test_mt_class_loss(self, rule, lam):
        rng = np.random.default_rng(105)
        for _ in range(30):
            z = rng.normal(scale=2.0, size=(4, 5))
            rows = ls.label_smooth(rng.integers(0, 5, size=4), 5, 0.0)
            assert_matches_composed(
                lambda t: ls.mt_class_loss(t, rows, POL, lam, rule),
                lambda t: composed_mt_class_loss(t, rows, POL == FAKE, lam, rule),
                z,
            )

    def test_affine_relu(self):
        rng = np.random.default_rng(106)
        w = dc.Tensor(rng.normal(size=(4, 3)))
        b = dc.Tensor(rng.normal(size=3))
        for _ in range(30):
            x = rng.normal(size=(5, 4))
            # keep every pre-activation away from the kink at zero
            if np.abs(x @ w.data + b.data).min() < 1e-3:
                continue
            assert_matches_composed(
                lambda t: dc.tsum(dc.affine_relu(t, w, b)),
                lambda t: dc.tsum(composed_affine_relu(t, w, b)),
                x,
            )
            assert_matches_composed(
                lambda t: dc.tsum(dc.affine_relu(dc.Tensor(x), t, b)),
                lambda t: dc.tsum(composed_affine_relu(dc.Tensor(x), t, b)),
                w.data,
            )

    def test_linear(self):
        rng = np.random.default_rng(107)
        x = dc.Tensor(rng.normal(size=(5, 4)))
        b = dc.Tensor(rng.normal(size=3))

        def squared(layer):
            return lambda w: dc.tsum(dc.mul(layer(x, w, b), layer(x, w, b)))

        for _ in range(10):
            assert_matches_composed(squared(dc.linear), squared(composed_linear), rng.normal(size=(3, 4)))

    def test_affine_relu_bitwise_forward(self):
        rng = np.random.default_rng(108)
        x, w, b = (dc.Tensor(rng.normal(size=s)) for s in ((7, 4), (4, 6), (6,)))
        np.testing.assert_array_equal(dc.affine_relu(x, w, b).data, composed_affine_relu(x, w, b).data)


# ---------------------------------------------------------------------------
# margin ranking: vectorised rival search


class TestMarginRankingRivals:
    def test_matches_loop_on_random_sims(self):
        rng = np.random.default_rng(110)
        for _ in range(30):
            feats = rng.normal(size=(6, 5))
            emb = rng.normal(size=(7, 5))
            targets = rng.integers(0, 7, size=6)
            for J in (1, 2, 6):
                # random points may sit on a hinge or rank kink, where finite
                # differences mean nothing; the smooth-point gradient check
                # lives in test_losses
                assert_matches_composed(
                    lambda t: ls.margin_ranking(t, dc.Tensor(emb), targets, 0.5, J),
                    lambda t: composed_margin_ranking(t, dc.Tensor(emb), targets, 0.5, J),
                    feats,
                    finite_differences=False,
                )

    def test_ties_resolve_to_the_lowest_class_like_the_loop(self):
        # classes 1, 2 and 3 share one embedding: equal cosines, so the
        # rival order among them is decided by index alone
        emb = np.array([
            [1.0, 0.0, 0.0],
            [0.6, 0.8, 0.0],
            [0.6, 0.8, 0.0],
            [0.6, 0.8, 0.0],
            [0.0, 0.0, 1.0],
        ])
        feats = np.array([[1.0, 0.2, 0.1], [0.3, 1.0, 0.0]])
        targets = np.array([0, 2])
        sims = dc.cosine_matrix(dc.Tensor(feats), dc.Tensor(emb)).data
        assert sims[0, 1] == sims[0, 2] == sims[0, 3]
        for J in (1, 2, 3, 4):
            f_probe = dc.Tensor(feats.copy(), requires_grad=True)
            got = ls.margin_ranking(f_probe, dc.Tensor(emb), targets, 0.9, J)
            r_probe = dc.Tensor(feats.copy(), requires_grad=True)
            want = composed_margin_ranking(r_probe, dc.Tensor(emb), targets, 0.9, J)
            assert got.item() == pytest.approx(want.item(), abs=CLOSE)
            got.backward()
            want.backward()
            np.testing.assert_allclose(f_probe.grad, r_probe.grad, atol=CLOSE)
        np.testing.assert_array_equal(loop_rivals(sims, targets, 2), [[1, 2], [1, 3]])


# ---------------------------------------------------------------------------
# beyond the floor: the fused ops follow the exact closed form


class TestBeyondTheFloor:
    def test_binary_ce_unfloored(self):
        z = dc.Tensor([[-40.0]])
        exact = 40.0 + np.log1p(np.exp(-40.0))
        assert ls.binary_ce(z, [1]).item() == pytest.approx(exact, rel=CLOSE)
        assert composed_binary_ce(z, [1]).item() == pytest.approx(-FLOORED_LOG, rel=CLOSE)

    def test_multiclass_ce_unfloored(self):
        z = dc.Tensor([[0.0, 50.0]])
        exact = 50.0 + np.log1p(np.exp(-50.0))
        rows = ls.label_smooth([0], 2, 0.0)
        assert ls.multiclass_ce(z, rows).item() == pytest.approx(exact, rel=CLOSE)
        assert composed_multiclass_ce(z, rows).item() == pytest.approx(-FLOORED_LOG, rel=CLOSE)

    def test_sumlogit_unfloored(self):
        z = np.array([[60.0, 0.0, 1.0]])
        (d_f,), (d_r,), _, _ = ls.aggregate_batch(z, np.array([REAL, FAKE, FAKE]) == FAKE, ls.SUMLOGIT)
        assert d_f == pytest.approx(np.logaddexp(0.0, 1.0) - np.logaddexp.reduce(z[0]), rel=CLOSE)
        assert d_f < FLOORED_LOG
        assert np.isfinite(d_r)

    def test_fused_gradients_stay_finite_when_saturated(self):
        z = np.array([[0.0, 800.0, -800.0], [300.0, -300.0, 0.0]])
        rows = ls.label_smooth([0, 1], 3, 0.0)
        for f in (
            lambda t: ls.multiclass_ce(t, rows),
            lambda t: ls.mt_class_loss(t, rows, POL[:3], 0.3, ls.SUMLOGIT),
            lambda t: ls.kd_kl(-z, t, 2.0, 3),
        ):
            value, grad = value_and_grad(f, z)
            assert np.isfinite(value) and np.all(np.isfinite(grad))
