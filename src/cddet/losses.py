"""Training objectives: classification, distillation, margin ranking and the
multi-task binary aggregation, plus label smoothing and mixup.

All losses return scalar tensors and are differentiable through the live
model only; snapshot outputs enter as plain arrays and never receive
gradients. Each loss term is one tape op whose gradient is written in
closed form. Log-probabilities come from a max-shifted log-softmax or a
softplus, so they stay finite without any probability floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Array, Tensor
from .errors import ConfigError, ContractError, DimensionError, ProtocolError
from .model import BC, FAKE, MC, MT, Model

SUMLOG = "sumlog"
SUMLOGIT = "sumlogit"
SUMFEAT = "sumfeat"
MAX = "max"
AGG_RULES = (SUMLOG, SUMLOGIT, SUMFEAT, MAX)


@dataclass(frozen=True)
class LossWeights:
    """Trade-off weights for the composite session objective."""

    gamma_d: float = 0.0
    gamma_m: float = 0.0
    lam: float = 0.3
    T: float = 1.0
    tau: float = 0.2
    J: int = 2

    def __post_init__(self):
        if self.gamma_d < 0 or self.gamma_m < 0:
            raise ConfigError("gamma weights must be non-negative")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must lie in [0, 1]")
        if self.T <= 0:
            raise ConfigError("temperature must be positive")
        if self.tau < 0 or self.J < 0:
            raise ConfigError("tau and J must be non-negative")


@dataclass
class Batch:
    """Aligned sample rows: raw inputs first, then latent payload rows.

    ``old_features`` and ``old_logits`` optionally carry the snapshot's
    outputs for the same rows, so distillation need not recompute them.
    """

    x: Array | None = None
    latents: Array | None = None
    classes: Array | None = None
    polarity: Array | None = None
    target_rows: Array | None = None
    old_features: Array | None = None
    old_logits: Array | None = None

    def __len__(self) -> int:
        n = 0 if self.x is None else self.x.shape[0]
        m = 0 if self.latents is None else self.latents.shape[0]
        return n + m

    def take(self, rows) -> "Batch":
        """The given rows of a batch that holds one payload kind only."""
        return Batch(**{name: None if v is None else v[rows] for name, v in vars(self).items()})


def _loss_op(parent: Tensor, value, grad: Array) -> Tensor:
    """A loss term as one tape op; ``grad`` is d(value)/d(parent)."""

    def backward(g: Array) -> None:
        dc._accumulate(parent, g * grad)

    return dc._op(np.asarray(value, dtype=np.float64), (parent,), backward)


def _target_rows(targets, n: int, k: int) -> Array:
    """Dense [n,k] target rows from class indices or soft label rows."""
    targets = np.asarray(targets)
    if targets.ndim == 2:
        if targets.shape != (n, k):
            raise ContractError(f"soft targets shape {targets.shape} != {(n, k)}")
        return targets.astype(np.float64)
    targets = targets.astype(np.intp)
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= k:
        raise ContractError("target class out of range")
    return _one_hot(targets, k)


def _ce_parts(logp: Array, rows: Array) -> tuple[float, Array]:
    """-mean_i sum_k rows[i,k] logp[i,k] for logp = log softmax(z), and its
    gradient in z."""
    n = logp.shape[0]
    value = -(rows * logp).sum() / n
    grad = (np.exp(logp) * rows.sum(axis=1, keepdims=True) - rows) / n
    return value, grad


def multiclass_ce(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target class.

    ``targets`` may be integer class indices or soft label rows.
    """
    n, k = logits.shape
    logp = dc.np_log_softmax(logits.data, axis=1)
    return _loss_op(logits, *_ce_parts(logp, _target_rows(targets, n, k)))


def binary_ce(logit: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy of sigmoid outputs against 0/1 targets,
    computed from the logits: softplus(-z) for fakes, softplus(z) for reals."""
    y = np.asarray(targets, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("binary targets must be 0 or 1")
    z = logit.data[:, 0] if logit.data.ndim == 2 else logit.data
    if z.shape != y.shape:
        raise ContractError(f"logit shape {z.shape} does not match targets {y.shape}")
    value = np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z))
    dz = (dc.np_sigmoid(z) - y) / y.size
    if logit.data.ndim == 2:
        grad = np.zeros_like(logit.data)
        grad[:, 0] = dz
    else:
        grad = dz
    return _loss_op(logit, value, grad)


def kd_kl(old_logits: Array, new_logits: Tensor, T: float, class_mask) -> Tensor:
    """Temperature-scaled KL from the frozen old outputs to the live ones.

    The old distribution is the target and receives no gradient; the
    gradient in the live logits is (softmax(z/T) - p) * T per row. A
    single-column mask compares the sigmoid output as the 2-point
    distribution softmax([0, z]).
    """
    mask = np.asarray(class_mask)
    cols = np.flatnonzero(mask) if mask.dtype == bool else mask.astype(np.intp)
    if cols.size == 0:
        raise ContractError("distillation mask selects no classes")
    old = np.atleast_2d(np.asarray(old_logits, dtype=np.float64))[:, cols]
    new = new_logits.data[:, cols]
    if cols.size == 1:
        old = np.hstack([np.zeros_like(old), old])
        new = np.hstack([np.zeros_like(new), new])
    t = float(T)
    n = new.shape[0]
    logp = dc.np_log_softmax(old / t, axis=1)
    logq = dc.np_log_softmax(new / t, axis=1)
    p = np.exp(logp)
    value = (p * (logp - logq)).sum(axis=1).mean() * (t * t)
    grad = np.zeros_like(new_logits.data)
    grad[:, cols] = ((np.exp(logq) - p) * (t / n))[:, -cols.size :]
    return _loss_op(new_logits, value, grad)


def kd_feature(old_feats: Array, new_feats: Tensor) -> Tensor:
    """Mean cosine distance between frozen and live feature rows; range [0, 2]."""
    old = np.asarray(old_feats, dtype=np.float64)
    new = new_feats.data
    if old.shape != new.shape or old.ndim != 2:
        raise DimensionError("kd_feature expects two [n,f] feature blocks")
    na = dc.row_norms(old, "old features")
    nb = dc.row_norms(new, "new features")
    cos = np.einsum("ij,ij->i", old, new) / (na * nb)
    dcos = old / (na * nb)[:, None] - cos[:, None] * new / (nb * nb)[:, None]
    return _loss_op(new_feats, np.mean(1.0 - cos), dcos * (-1.0 / cos.size))


def margin_ranking(features: Tensor, embeddings: Tensor, targets, tau: float, J: int) -> Tensor:
    """Hinge on the gap between the target-class cosine and the J closest rivals."""
    k = embeddings.shape[0]
    if J > k - 1:
        raise ContractError(f"J={J} exceeds the {k - 1} available rival classes")
    n = features.shape[0]
    if J == 0 or n == 0:
        return dc.constant(0.0)
    targets = np.asarray(targets, dtype=np.intp)
    sims = dc.cosine_matrix(features, embeddings)
    rows = np.arange(n)

    # rivals: the J highest cosines besides the target's. The stable sort
    # breaks ties toward the lower class, and the target, keyed +inf, sorts last.
    keyed = -sims.data
    keyed[rows, targets] = np.inf
    rivals = np.argsort(keyed, axis=1, kind="stable")[:, :J]
    gaps = sims.data[rows[:, None], rivals] - sims.data[rows, targets][:, None] + float(tau)
    active = gaps > 0

    grad = np.zeros_like(sims.data)
    grad[rows[:, None], rivals] = active / n
    grad[rows, targets] = -active.sum(axis=1) / n
    return _loss_op(sims, np.where(active, gaps, 0.0).sum() * (1.0 / n), grad)


def _fake_mask_of(registry) -> Array:
    if hasattr(registry, "fake_mask"):
        return registry.fake_mask()
    return np.asarray(registry) == FAKE


def _group_score(logp: Array, p: Array, group: Array, rule: str) -> tuple[Array, Array]:
    """One polarity's log score per row under a softmax-based rule, and its
    gradient in the logits."""
    if rule == SUMLOG:
        return logp[:, group].sum(axis=1), group - group.sum() * p
    grad = -p
    if rule == SUMLOGIT:
        # log of the group's probability mass, and the in-group softmax
        inside = logp[:, group]
        top = inside.max(axis=1)
        d = top + np.log(np.exp(inside - top[:, None]).sum(axis=1))
        grad[:, group] += np.exp(inside - d[:, None])
        return d, grad
    # MAX: the group's largest activation; ties go to the lowest class
    rows = np.arange(logp.shape[0])
    best = np.flatnonzero(group)[np.argmax(logp[:, group], axis=1)]
    grad[rows, best] += 1.0
    return logp[rows, best], grad


def _polarity_mask(fake_mask, rule: str) -> Array:
    if rule not in AGG_RULES:
        raise ConfigError(f"unknown aggregation rule {rule!r}")
    mask = np.asarray(fake_mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ContractError("aggregation needs at least one fake and one real class")
    return mask


def aggregate_batch(logits: Array, fake_mask: Array, rule: str):
    """Per-row fake and real log scores (d_F, d_R) of logits[n,k] under the
    chosen rule, and their gradients in the logits: (d_F, d_R, grad_F, grad_R)."""
    mask = _polarity_mask(fake_mask, rule)
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return _aggregate(z, dc.np_log_softmax(z, axis=1), mask, rule)


def _aggregate(z: Array, logp: Array, mask: Array, rule: str):
    """``aggregate_batch`` on validated input, given logp = log softmax(z)."""
    if rule == SUMFEAT:
        # polarity-summed logits through a two-way softmax, log taken
        u = z[:, mask].sum(axis=1) - z[:, ~mask].sum(axis=1)
        sign = np.where(mask, 1.0, -1.0)
        grad_f = dc.np_sigmoid(-u)[:, None] * sign
        grad_r = -dc.np_sigmoid(u)[:, None] * sign
        return -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u), grad_f, grad_r
    p = np.exp(logp)
    d_f, grad_f = _group_score(logp, p, mask, rule)
    d_r, grad_r = _group_score(logp, p, ~mask, rule)
    return d_f, d_r, grad_f, grad_r


def aggregate(logits_row, registry, rule: str) -> tuple[float, float]:
    """Single-row aggregation returning plain (d_F, d_R) values."""
    d_f, d_r, _, _ = aggregate_batch(logits_row, _fake_mask_of(registry), rule)
    return float(d_f[0]), float(d_r[0])


def mt_class_loss(logits: Tensor, targets, registry, lam: float, rule: str) -> Tensor:
    """Convex mix of the multi-class loss and the aggregated binary one.

    At lam = 0 this returns the multi-class cross-entropy itself, so the
    optimisation path is identical to the plain multi-class system.
    """
    if not 0.0 <= lam <= 1.0:
        raise ConfigError("lambda must lie in [0, 1]")
    if lam == 0.0:
        return multiclass_ce(logits, targets)

    n, k = logits.shape
    rows = _target_rows(targets, n, k)
    mask = _polarity_mask(_fake_mask_of(registry), rule)
    w_fake = rows[:, mask].sum(axis=1)
    logp = dc.np_log_softmax(logits.data, axis=1)
    d_f, d_r, grad_f, grad_r = _aggregate(logits.data, logp, mask, rule)
    binary = -np.mean(w_fake * d_f + (1.0 - w_fake) * d_r)
    grad_binary = -(w_fake[:, None] * grad_f + (1.0 - w_fake)[:, None] * grad_r) / n
    ce, grad_ce = _ce_parts(logp, rows)
    value = ce * (1.0 - lam) + binary * lam
    return _loss_op(logits, value, grad_ce * (1.0 - lam) + grad_binary * lam)


def label_smooth(targets, k: int, eps: float) -> Array:
    """One-hot rows pulled toward uniform: (1 - eps) * onehot + eps / k."""
    if not 0.0 <= eps < 1.0:
        raise ContractError("smoothing epsilon must lie in [0, 1)")
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.full((targets.size, k), eps / k, dtype=np.float64)
    rows[np.arange(targets.size), targets] += 1.0 - eps
    return rows


def mix_pairs(x_a: Array, y_a: Array, x_b: Array, y_b: Array, lam_mix: float):
    """Convex combination of two aligned batches, inputs and label rows alike."""
    if x_a.shape != x_b.shape or y_a.shape != y_b.shape:
        raise ContractError("mixup requires equal batch shapes")
    x = lam_mix * x_a + (1.0 - lam_mix) * x_b
    y = lam_mix * y_a + (1.0 - lam_mix) * y_b
    return x, y


def mixup(batch_a, batch_b, alpha: float, rng: np.random.Generator):
    """Mix two (inputs, label rows) batches; the coefficient is Beta(alpha, alpha)."""
    x_a, y_a = batch_a
    x_b, y_b = batch_b
    lam_mix = float(rng.beta(alpha, alpha)) if alpha > 0 else 1.0
    x, y = mix_pairs(np.asarray(x_a, float), np.asarray(y_a, float), np.asarray(x_b, float), np.asarray(y_b, float), lam_mix)
    return (x, y), lam_mix


# ---------------------------------------------------------------------------
# composite session objective


def _forward_joint(model: Model, raw: Array | None, latents: Array | None):
    """Features and logits of the live model, on the tape."""
    parts = []
    if raw is not None and raw.shape[0]:
        parts.append(model.extractor.forward(raw, tape=True))
    if latents is not None and latents.shape[0]:
        parts.append(model.extractor.forward_from_latent(latents, tape=True))
    if not parts:
        raise ContractError("no rows to train on")
    features = parts[0] if len(parts) == 1 else dc.concat_rows(parts[0], parts[1])
    return features, model.head.logits(features, tape=True)


def _np_forward_joint(snapshot: Model, raw: Array | None, latents: Array | None):
    """The snapshot's features and logits as plain arrays, raw rows first."""
    parts_f, parts_z = [], []
    if raw is not None and raw.shape[0]:
        f, z = snapshot.forward(raw)
        parts_f.append(f.data)
        parts_z.append(z.data)
    if latents is not None and latents.shape[0]:
        f, z = snapshot.forward_from_latent(latents)
        parts_f.append(f.data)
        parts_z.append(z.data)
    return np.concatenate(parts_f, axis=0), np.concatenate(parts_z, axis=0)


def _stack(*arrays):
    arrays = [a for a in arrays if a is not None and len(a)]
    if not arrays:
        return None
    return np.concatenate(arrays, axis=0)


def total_loss(
    system: str,
    batch_new: Batch,
    batch_exemplar: Batch | None,
    model: Model,
    snapshot: Model | None,
    weights: LossWeights,
    rule: str | None = None,
    distill_form: str = "logit",
) -> Tensor:
    """Classification over new plus replayed rows, distillation and margin
    ranking over the replayed rows, weighted by gamma_d and gamma_m."""
    if (weights.gamma_d > 0 or weights.gamma_m > 0) and snapshot is None:
        raise ProtocolError("distillation or margin terms need a model snapshot")

    ex = batch_exemplar if batch_exemplar is not None and len(batch_exemplar) else None
    raw = _stack(batch_new.x, ex.x if ex else None)
    latents = ex.latents if ex else None
    features, logits = _forward_joint(model, raw, latents)

    n_new = 0 if batch_new.x is None else batch_new.x.shape[0]
    ex_slice = slice(n_new, None)

    polarity = _stack(batch_new.polarity, ex.polarity if ex else None)
    classes = _stack(batch_new.classes, ex.classes if ex else None)

    if system == BC:
        class_loss = binary_ce(logits, polarity)
    else:
        targets = _combined_targets(batch_new, ex, logits.shape[1], classes)
        if system == MC:
            class_loss = multiclass_ce(logits, targets)
        elif system == MT:
            if rule is None:
                raise ConfigError("multi-task loss needs an aggregation rule")
            class_loss = mt_class_loss(logits, targets, model.head.registry, weights.lam, rule)
        else:
            raise ConfigError(f"unknown learning system {system!r}")

    total = class_loss
    wants_distill = ex is not None and weights.gamma_d > 0
    wants_margin = ex is not None and weights.gamma_m > 0 and system != BC
    if wants_distill or wants_margin:
        ex_feats = dc.take_rows(features, ex_slice)

    if wants_distill:
        if ex.old_logits is not None:
            old_feats, old_logits = ex.old_features, ex.old_logits
        else:
            old_feats, old_logits = _np_forward_joint(snapshot, ex.x, ex.latents)
        distill_terms = []
        if distill_form in ("logit", "logit+feature"):
            mask = np.arange(logits.shape[1]) < old_logits.shape[1]
            distill_terms.append(kd_kl(old_logits, dc.take_rows(logits, ex_slice), weights.T, mask))
        if distill_form in ("feature", "logit+feature"):
            distill_terms.append(kd_feature(old_feats, ex_feats))
        if not distill_terms:
            raise ConfigError(f"unknown distillation form {distill_form!r}")
        distill = distill_terms[0]
        for term in distill_terms[1:]:
            distill = dc.add(distill, term)
        total = dc.add(total, dc.scale(distill, weights.gamma_d))

    if wants_margin:
        ex_classes = classes[n_new:]
        supp = margin_ranking(ex_feats, model.head.theta, ex_classes, weights.tau, weights.J)
        total = dc.add(total, dc.scale(supp, weights.gamma_m))

    return total


def _combined_targets(batch_new: Batch, ex: Batch | None, k: int, classes: Array):
    """Integer classes unless either batch carries soft rows, then dense rows."""
    new_rows = batch_new.target_rows
    ex_rows = ex.target_rows if ex else None
    if new_rows is None and ex_rows is None:
        return classes
    parts = []
    if batch_new.x is not None and batch_new.x.shape[0]:
        parts.append(new_rows if new_rows is not None else _one_hot(batch_new.classes, k))
    if ex is not None and len(ex):
        parts.append(ex_rows if ex_rows is not None else _one_hot(ex.classes, k))
    rows = np.concatenate(parts, axis=0)
    if rows.shape[1] != k:
        padded = np.zeros((rows.shape[0], k))
        padded[:, : rows.shape[1]] = rows
        rows = padded
    return rows


def _one_hot(targets: Array, k: int) -> Array:
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.zeros((targets.size, k), dtype=np.float64)
    rows[np.arange(targets.size), targets] = 1.0
    return rows
