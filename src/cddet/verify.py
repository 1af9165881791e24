"""Embedded verification battery: every check pits an implementation against
an independent oracle (finite differences, exhaustive scans) and reports one
pass/fail line. Deterministic under the given seed.

Each oracle lives here once: the tier-1 tests call these checks, at their
own strength (trials or points), and assert on the ``CheckResult``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from . import losses as ls
from .memory import LATENT, RAW, herd_select
from .metrics import ap, pr_curve
from .model import COSFC, FAKE, LINFC, REAL, SIGMOID, Model
from .seeding import substream


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def check_loss_gradients(seed: int, points: int = 10, tol: float = 1e-6) -> CheckResult:
    rng = substream(seed, "verify:grad")
    worst = 0.0

    def track(err):
        nonlocal worst
        worst = max(worst, err)

    for _ in range(points):
        rows = ls.label_smooth(rng.integers(0, 4, size=3), 4, 0.0)
        track(dc.grad_check(lambda z: ls.multiclass_ce(z, rows), dc.Tensor(rng.normal(size=(3, 4)))))
        ybin = rng.integers(0, 2, size=4)
        track(dc.grad_check(lambda z: ls.binary_ce(z, ybin), dc.Tensor(rng.normal(size=(4, 1)))))
        old = rng.normal(size=(3, 4))
        track(dc.grad_check(lambda z: ls.kd_kl(old, z, 2.0, 4), dc.Tensor(rng.normal(size=(3, 4)))))
        feats = rng.normal(size=(3, 4))
        track(dc.grad_check(lambda z: ls.kd_feature(feats, z), dc.Tensor(rng.normal(size=(3, 4)))))
        pol = np.array([REAL, FAKE, REAL, FAKE])
        for rule in ls.AGG_RULES:
            track(
                dc.grad_check(
                    lambda z: ls.mt_class_loss(z, rows, pol, 0.3, rule),
                    dc.Tensor(rng.normal(size=(3, 4))),
                )
            )
        emb = dc.Tensor(rng.normal(size=(5, 4)))
        rank_targets = rng.integers(0, 5, size=3)
        # tau > 2 keeps every hinge active and J = 4 ranks every rival, so
        # the margin loss is smooth at any point
        track(
            dc.grad_check(
                lambda f: ls.margin_ranking(f, emb, rank_targets, 2.5, 4),
                dc.Tensor(rng.normal(size=(3, 4))),
            )
        )
        w, b = dc.Tensor(rng.normal(size=(4, 3))), dc.Tensor(rng.normal(size=3))
        x = rng.normal(size=(5, 4))
        if np.abs(x @ w.data + b.data).min() > 0.05:  # away from the relu kink
            track(dc.grad_check(lambda t: dc.tsum(dc.affine_relu(t, w, b)), dc.Tensor(x)))
    return CheckResult("loss-gradient-suite", worst < tol, f"max rel err {worst:.3e}")


def _step_case(rng, variant: str, payload: str):
    """A small model one session in, and one step over a new and a replayed
    batch, with its snapshot's constants, that switches on every loss term
    of the system the head and the rule make. Latent replay freezes the
    layers up to the capture layer, as training does."""
    model = Model.build(6, variant, rng, hidden=(8, 7), feature_width=5)
    model.head.expand(1, rng)
    snap = model.snapshot()
    model.head.expand(2, rng)
    new_pol = rng.integers(0, 2, size=4)
    ex_pol = np.array([REAL, FAKE, FAKE])
    new_x = rng.normal(size=(4, 6))
    latent = payload == LATENT
    ex_x = np.abs(rng.normal(size=(3, model.extractor.latent_width))) if latent else rng.normal(size=(3, 6))
    ex = ls.snapshot_constants(snap, ex_x, ex_pol, STEP_WEIGHTS.T, "logit+feature", latent)
    if latent:
        model.extractor.frozen = model.extractor.capture_layer + 1
    return model, ls.step_rows(model, new_x, 2 + new_pol, ex_x, ex)


STEP_WEIGHTS = ls.LossWeights(gamma_d=0.7, gamma_m=0.4, lam=0.3, T=2.0, tau=2.5, J=3)
STEP_CASES = [(LINFC, RAW, ls.SUMLOGIT), (COSFC, LATENT, None), (SIGMOID, RAW, None)]


def _step(rule, model: Model, rows: ls.StepRows):
    """The step's loss value, and the trainable parameters' gradients in
    ``model.parameters()`` order."""
    grads = [np.empty_like(p) for p in model.parameters()[2 * model.extractor.frozen :]]
    value = ls.loss_and_gradients(rows, model, STEP_WEIGHTS, grads, rule=rule)
    return value, grads


def check_step_gradients(seed: int, coords: int = 3, step: float = 1e-6, tol: float = 1e-6) -> CheckResult:
    """The training step's gradients against central differences of the
    step's own loss value, a few coordinates of every parameter, with no
    tape involved. tau > 2 keeps every margin hinge active and J ranks every
    rival, so the loss is smooth away from the relu kinks."""
    rng = substream(seed, "verify:step")
    worst, checked = 0.0, 0
    for variant, payload, rule in STEP_CASES:
        model, rows = _step_case(rng, variant, payload)
        _, grads = _step(rule, model, rows)
        for p, g in zip(model.parameters()[2 * model.extractor.frozen :], grads):
            for flat in rng.choice(p.size, size=min(coords, p.size), replace=False):
                idx = np.unravel_index(flat, p.shape)
                base = p[idx]
                p[idx] = base + step
                hi = _step(rule, model, rows)[0]
                p[idx] = base - step
                lo = _step(rule, model, rows)[0]
                p[idx] = base
                numeric = (hi - lo) / (2.0 * step)
                worst = max(worst, abs(float(g[idx]) - numeric) / max(1.0, abs(numeric)))
                checked += 1
    return CheckResult("step-central-differences", worst < tol, f"{checked} coordinates, max rel err {worst:.3e}")


def check_step_against_tape(seed: int) -> CheckResult:
    """The training step's loss value and gradients against
    ``total_loss(...).backward()`` on the same rows: the value and every
    trainable parameter's gradient must match bit for bit."""
    rng = substream(seed, "verify:step-tape")
    for variant, payload, rule in STEP_CASES:
        model, rows = _step_case(rng, variant, payload)
        value, grads = _step(rule, model, rows)
        leaves = ls.tape_leaves(model)
        loss = ls.total_loss(rows, model, STEP_WEIGHTS, rule=rule, leaves=leaves)
        if value.hex() != loss.item().hex():
            return CheckResult("step-equals-tape", False, f"{variant}/{rule}: the loss value differs from the tape")
        loss.backward()
        for leaf, g in zip(leaves[2 * model.extractor.frozen :], grads):
            if leaf.grad is None or leaf.grad.tobytes() != g.tobytes():
                return CheckResult("step-equals-tape", False, f"{variant}/{rule}: a gradient differs from the tape")
    return CheckResult("step-equals-tape", True, f"{len(STEP_CASES)} systems, the value and every gradient bitwise equal")


def check_herding_oracle(seed: int, trials: int = 20) -> CheckResult:
    rng = substream(seed, "verify:herd")
    for t in range(trials):
        n = int(rng.integers(2, 13))
        f = int(rng.integers(1, 5))
        feats = rng.normal(size=(n, f))
        m = int(rng.integers(1, n + 1))
        order = herd_select(feats, m)
        mu = feats.mean(axis=0)
        chosen: list[int] = []
        total = np.zeros(f)
        for k, picked in enumerate(order, start=1):
            best, best_dist = None, None
            for i in range(n):
                if i in chosen:
                    continue
                dist = float(np.linalg.norm(mu - (total + feats[i]) / k))
                if best_dist is None or dist < best_dist:
                    best, best_dist = i, dist
            if picked != best:
                return CheckResult("herding-greedy-oracle", False, f"trial {t}: step {k} picked {picked}, oracle {best}")
            chosen.append(picked)
            total += feats[picked]
    return CheckResult("herding-greedy-oracle", True, f"{trials} seeded sets, every greedy step optimal")


def check_ap_oracle(seed: int, trials: int = 200) -> CheckResult:
    rng = substream(seed, "verify:ap")
    worst = 0.0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = np.round(rng.uniform(0, 1, size=n), 2)
        got = ap(pr_curve(scores, labels))
        pos = int((labels == 1).sum())
        points = []
        for t in sorted(set(scores.tolist()), reverse=True):
            tp = int(((scores >= t) & (labels == 1)).sum())
            fp = int(((scores >= t) & (labels == 0)).sum())
            points.append((tp / pos, tp / (tp + fp)))
        want, prev = 0.0, 0.0
        for r, p in points:
            want += (r - prev) * p
            prev = r
        worst = max(worst, abs(got - want))
    return CheckResult("ap-threshold-oracle", worst < 1e-12, f"max abs gap {worst:.3e}")


def check_aggregation_coincidence(seed: int, trials: int = 1000) -> CheckResult:
    rng = substream(seed, "verify:agg")
    fake_pair = np.array([REAL, FAKE]) == FAKE
    fake_many = np.array([REAL, FAKE, REAL, FAKE, FAKE]) == FAKE
    worst = 0.0
    for _ in range(trials):
        logits = rng.normal(size=2)
        base_f, base_r, _, _ = ls.aggregate_batch(logits, fake_pair, "sumlog")
        for rule in ls.AGG_RULES[1:]:
            d_f, d_r, _, _ = ls.aggregate_batch(logits, fake_pair, rule)
            worst = max(worst, abs(d_f[0] - base_f[0]), abs(d_r[0] - base_r[0]))
        d_f, d_r, _, _ = ls.aggregate_batch(rng.normal(size=5), fake_many, "sumlogit")
        worst = max(worst, abs(np.exp(d_f[0]) + np.exp(d_r[0]) - 1.0))
    return CheckResult("aggregation-coincidence", worst < 1e-12, f"max deviation {worst:.3e}")


def check_snapshot_immutability(seed: int) -> CheckResult:
    rng = substream(seed, "verify:snap")
    model = Model.build(6, LINFC, rng, hidden=(8,), feature_width=5)
    model.head.expand(1, rng)
    snap = model.snapshot()
    inputs = [rng.normal(size=(3, 6)) for _ in range(10)]
    before = [snap.forward(x)[1] for x in inputs]
    for _ in range(100):
        for p in model.parameters():
            p += 0.01 * rng.normal(size=p.shape)
    for x, prior in zip(inputs, before):
        if not np.array_equal(snap.forward(x)[1], prior):
            return CheckResult("snapshot-immutability", False, "snapshot output drifted")
    return CheckResult("snapshot-immutability", True, "10 inputs bitwise stable over 100 updates")


def check_metric_bruteforce(seed: int, trials: int = 50) -> CheckResult:
    from .metrics import aa, af

    rng = substream(seed, "verify:metrics")
    for _ in range(trials):
        n = int(rng.integers(2, 9))
        b = np.full((n, n), np.nan)
        for i in range(n):
            for j in range(i, n):
                b[i, j] = rng.uniform(0, 1)
        want_aa = sum(float(b[i, n - 1]) for i in range(n)) / n
        want_af = 0.0
        for i in range(n - 1):
            row = sum(float(b[i, j]) - float(b[i, i]) for j in range(i + 1, n))
            want_af += row / (n - 1 - i)
        want_af /= n - 1
        if aa(b) != want_aa or af(b) != want_af:
            return CheckResult("metric-bruteforce", False, "AA/AF mismatch against full recomputation")
    return CheckResult("metric-bruteforce", True, f"{trials} random matrices match exactly")


def run_battery(seed: int = 0) -> list[CheckResult]:
    return [
        check_loss_gradients(seed),
        check_step_gradients(seed),
        check_step_against_tape(seed),
        check_herding_oracle(seed),
        check_ap_oracle(seed),
        check_aggregation_coincidence(seed),
        check_snapshot_immutability(seed),
        check_metric_bruteforce(seed),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.passed else 'FAIL'}  {r.name:<26} {r.detail}" for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
