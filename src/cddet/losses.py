"""Training objectives: classification, distillation, margin ranking and the
multi-task binary aggregation, plus label smoothing and mixup.

All losses return scalar tensors and are differentiable through the live
model only; snapshot outputs enter as plain arrays and never receive
gradients. Each loss term is one tape op whose gradient is written in
closed form. Log-probabilities come from a max-shifted log-softmax or a
softplus, so they stay finite without any probability floor.

Each term's value and gradient are computed by one plain-array function
(``_ce_parts``, ``_bce_parts``, ``_kd_parts``, ``_kd_feature_parts``,
``_margin_parts``, ``_mt_parts``) that both its tape op and the training
step call. Training runs ``loss_and_gradients``: the model's one inference
path (``np_activations`` and ``ClassifierHead.logits_and_cosines``), these
terms and the backward sweep written out by hand on plain arrays, with the
tape's operands, memory layouts and order of summation; it writes each
parameter gradient into the optimizer's buffer, and each equals
``total_loss(...).backward()`` bit for bit. ``total_loss`` on the tape is
kept as the reference the tests and ``cddet verify`` check the step
against; its forward, ``_forward_joint``, is the only place the network is
built on the tape, over leaves that wrap the model's parameter arrays
(``tape_leaves``). The step reads its rows as ``StepRows``: the input
rows with the layer each block enters at, their targets and the replayed
rows' per-row constants, which the trainer gathers for each step
(``step_rows`` lays out a pair of batches the same way). Means are written
as sum / size, which is what ``np.mean`` computes, without its per-call
dispatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Array, Tensor
from .errors import ConfigError, ContractError, DimensionError, NumericsError, ProtocolError
from .model import BC, COSFC, FAKE, MC, MT, Model

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
        if not all(math.isfinite(v) for v in (self.gamma_d, self.gamma_m, self.lam, self.T, self.tau)):
            raise ConfigError("gamma_d, gamma_m, lambda, T and tau must be finite")
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
    outputs for the same rows, so distillation need not recompute them;
    ``kd_logp``/``kd_p`` (its distillation targets, from ``kd_targets``) and
    ``old_norms`` (the row norms of ``old_features``) are per-row constants
    the training step reads when present.
    """

    x: Array | None = None
    latents: Array | None = None
    classes: Array | None = None
    polarity: Array | None = None
    target_rows: Array | None = None
    old_features: Array | None = None
    old_logits: Array | None = None
    kd_logp: Array | None = None
    kd_p: Array | None = None
    old_norms: Array | None = None

    def __len__(self) -> int:
        n = 0 if self.x is None else self.x.shape[0]
        m = 0 if self.latents is None else self.latents.shape[0]
        return n + m


def _loss_op(parent: Tensor, value, grad: Array, name: str) -> Tensor:
    """A loss term as one tape op; ``grad`` is d(value)/d(parent)."""

    def backward(g: Array) -> None:
        dc._accumulate(parent, g * grad)

    return dc._op(np.asarray(value, dtype=np.float64), (parent,), backward, f"loss {name}")


def _checked_loss(value, name: str) -> float:
    """A loss term's value as a float, or ``NumericsError`` naming the term."""
    value = float(value)
    if not math.isfinite(value):
        raise NumericsError(f"loss {name} produced non-finite entries")
    return value


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


def _ce_parts(logp: Array, rows: Array, p: Array | None = None) -> tuple[float, Array]:
    """-mean_i sum_k rows[i,k] logp[i,k] for logp = log softmax(z), and its
    gradient in z; ``p`` is exp(logp) when the caller already holds it."""
    n = logp.shape[0]
    value = -(rows * logp).sum() / n
    grad = ((np.exp(logp) if p is None else p) * rows.sum(axis=1, keepdims=True) - rows) / n
    return value, grad


def multiclass_ce(logits: Tensor, targets) -> Tensor:
    """Mean negative log softmax probability of the target class.

    ``targets`` may be integer class indices or soft label rows.
    """
    n, k = logits.shape
    logp = dc.np_log_softmax(logits.data, axis=1)
    return _loss_op(logits, *_ce_parts(logp, _target_rows(targets, n, k)), "multiclass_ce")


def binary_ce(logit: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy of sigmoid outputs against 0/1 targets,
    computed from the logits: softplus(-z) for fakes, softplus(z) for reals."""
    y = np.asarray(targets, dtype=np.float64)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ContractError("binary targets must be 0 or 1")
    return _loss_op(logit, *_bce_parts(logit.data, y), "binary_ce")


def _bce_parts(logits: Array, y: Array) -> tuple[float, Array]:
    """``binary_ce``'s value and its gradient in ``logits`` ([n] or [n,1])."""
    z = logits[:, 0] if logits.ndim == 2 else logits
    if z.shape != y.shape:
        raise ContractError(f"logit shape {z.shape} does not match targets {y.shape}")
    value = (y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)).sum() / y.size
    dz = (dc.np_sigmoid(z) - y) / y.size
    if logits.ndim == 2:
        grad = np.zeros_like(logits)
        grad[:, 0] = dz
    else:
        grad = dz
    return value, grad


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
    logp, p = kd_targets(old_logits, cols, T)
    return _loss_op(new_logits, *_kd_parts(logp, p, new_logits.data, cols, T), "kd_kl")


def _kd_columns(logits: Array, cols: Array) -> Array:
    """The distilled columns; a single column becomes the pair [0, z]."""
    picked = logits[:, cols]
    return np.hstack([np.zeros_like(picked), picked]) if cols.size == 1 else picked


def kd_targets(old_logits: Array, cols: Array, T: float) -> tuple[Array, Array]:
    """The old model's distillation targets: log-probabilities and
    probabilities at temperature T over the given columns.

    A row's targets depend on its batch only through the memory layout:
    a one-row batch sums its row in another order than a taller one.
    """
    old = _kd_columns(np.atleast_2d(np.asarray(old_logits, dtype=np.float64)), cols)
    logp = dc.np_log_softmax(old / float(T), axis=1)
    return logp, np.exp(logp)


def _kd_parts(logp: Array, p: Array, new_logits: Array, cols: Array, T: float) -> tuple[float, Array]:
    """``kd_kl``'s value and its gradient in ``new_logits``, given the targets."""
    t = float(T)
    logq = dc.np_log_softmax(_kd_columns(new_logits, cols) / t, axis=1)
    n = logq.shape[0]
    value = (p * (logp - logq)).sum(axis=1).sum() / n * (t * t)
    grad = np.zeros_like(new_logits)
    grad[:, cols] = ((np.exp(logq) - p) * (t / n))[:, -cols.size :]
    return value, grad


def kd_feature(old_feats: Array, new_feats: Tensor) -> Tensor:
    """Mean cosine distance between frozen and live feature rows; range [0, 2]."""
    old = np.asarray(old_feats, dtype=np.float64)
    new = new_feats.data
    if old.shape != new.shape or old.ndim != 2:
        raise DimensionError("kd_feature expects two [n,f] feature blocks")
    na = dc.row_norms(old, "old features")
    nb = dc.row_norms(new, "new features")
    return _loss_op(new_feats, *_kd_feature_parts(old, na, new, nb), "kd_feature")


def _kd_feature_parts(old: Array, na: Array, new: Array, nb: Array) -> tuple[float, Array]:
    """``kd_feature``'s value and its gradient in ``new``; ``na`` and ``nb``
    hold the row norms of ``old`` and ``new``."""
    cos = np.einsum("ij,ij->i", old, new) / (na * nb)
    dcos = old / (na * nb)[:, None] - cos[:, None] * new / (nb * nb)[:, None]
    return (1.0 - cos).sum() / cos.size, dcos * (-1.0 / cos.size)


def margin_ranking(features: Tensor, embeddings: Tensor, targets, tau: float, J: int) -> Tensor:
    """Hinge on the gap between the target-class cosine and the J closest rivals."""
    k = embeddings.shape[0]
    if J > k - 1:
        raise ContractError(f"J={J} exceeds the {k - 1} available rival classes")
    n = features.shape[0]
    if J == 0 or n == 0:
        return dc.constant(0.0)
    sims = dc.cosine_matrix(features, embeddings)
    return _loss_op(sims, *_margin_parts(sims.data, targets, tau, J), "margin_ranking")


def _margin_parts(sims: Array, targets, tau: float, J: int) -> tuple[float, Array]:
    """``margin_ranking``'s value and its gradient in the cosines sims[n,k]."""
    n = sims.shape[0]
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.arange(n)

    # rivals: the J highest cosines besides the target's. The stable sort
    # breaks ties toward the lower class, and the target, keyed +inf, sorts last.
    keyed = -sims
    keyed[rows, targets] = np.inf
    rivals = np.argsort(keyed, axis=1, kind="stable")[:, :J]
    gaps = sims[rows[:, None], rivals] - sims[rows, targets][:, None] + float(tau)
    active = gaps > 0

    grad = np.zeros_like(sims)
    grad[rows[:, None], rivals] = active / n
    grad[rows, targets] = -active.sum(axis=1) / n
    return np.where(active, gaps, 0.0).sum() * (1.0 / n), grad


def _fake_mask_of(registry) -> Array:
    if hasattr(registry, "fake_mask"):
        return registry.fake_mask()
    return np.asarray(registry) == FAKE


def _group_score(logp: Array, p: Array, group: Array, rule: str) -> tuple[Array, Array]:
    """One polarity's log score per row under a softmax-based rule, and its
    gradient in the logits; ``group`` holds the polarity's class indices."""
    if rule == SUMLOG:
        grad = 0.0 - group.size * p  # 0 - x, not -x: a zero stays +0, as in a 0/1 mask minus x
        grad[:, group] += 1.0
        return logp[:, group].sum(axis=1), grad
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
    best = group[np.argmax(logp[:, group], axis=1)]
    grad[rows, best] += 1.0
    return logp[rows, best], grad


def polarity_classes(fake_mask, rule: str) -> tuple[Array, Array]:
    """The fake and the real class indices of a head whose fake classes are
    ``fake_mask``, checked for the aggregation ``rule``: a known rule, and
    at least one class of each polarity."""
    if rule not in AGG_RULES:
        raise ConfigError(f"unknown aggregation rule {rule!r}")
    mask = np.asarray(fake_mask, dtype=bool)
    if not mask.any() or mask.all():
        raise ContractError("aggregation needs at least one fake and one real class")
    return np.flatnonzero(mask), np.flatnonzero(~mask)


def aggregate_batch(logits: Array, fake_mask: Array, rule: str):
    """Per-row fake and real log scores (d_F, d_R) of logits[n,k] under the
    chosen rule, and their gradients in the logits: (d_F, d_R, grad_F, grad_R)."""
    classes = polarity_classes(fake_mask, rule)
    z = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    logp = dc.np_log_softmax(z, axis=1)
    return _aggregate(z, logp, np.exp(logp), classes, rule)


def _aggregate(z: Array, logp: Array, p: Array, classes: tuple[Array, Array], rule: str):
    """``aggregate_batch`` on validated input, given logp = log softmax(z),
    p = exp(logp) and the (fake, real) class indices."""
    fake, real = classes
    if rule == SUMFEAT:
        # polarity-summed logits through a two-way softmax, log taken
        u = z[:, fake].sum(axis=1) - z[:, real].sum(axis=1)
        sign = np.full(z.shape[1], -1.0)
        sign[fake] = 1.0
        grad_f = dc.np_sigmoid(-u)[:, None] * sign
        grad_r = -dc.np_sigmoid(u)[:, None] * sign
        return -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u), grad_f, grad_r
    d_f, grad_f = _group_score(logp, p, fake, rule)
    d_r, grad_r = _group_score(logp, p, real, rule)
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
    classes = polarity_classes(_fake_mask_of(registry), rule)
    return _loss_op(logits, *_mt_parts(logits.data, rows, classes, lam, rule), "mt_class_loss")


def _mt_parts(z: Array, rows: Array, classes: tuple[Array, Array], lam: float, rule: str) -> tuple[float, Array]:
    """``mt_class_loss``'s value and its gradient in the logits z[n,k], for
    0 < lam <= 1, dense target rows and the (fake, real) class indices from
    ``polarity_classes``."""
    n = z.shape[0]
    w_fake = rows[:, classes[0]].sum(axis=1)
    logp = dc.np_log_softmax(z, axis=1)
    p = np.exp(logp)
    d_f, d_r, grad_f, grad_r = _aggregate(z, logp, p, classes, rule)
    binary = -((w_fake * d_f + (1.0 - w_fake) * d_r).sum() / n)
    grad_binary = -(w_fake[:, None] * grad_f + (1.0 - w_fake)[:, None] * grad_r) / n
    ce, grad_ce = _ce_parts(logp, rows, p)
    value = ce * (1.0 - lam) + binary * lam
    return value, grad_ce * (1.0 - lam) + grad_binary * lam


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


def tape_leaves(model: Model) -> list[Tensor]:
    """The model's parameters as tape leaves, in ``parameters()`` order;
    only the trainable ones take a gradient, as in the training step."""
    frozen = 2 * model.extractor.frozen
    return [Tensor(p, requires_grad=i >= frozen) for i, p in enumerate(model.parameters())]


def _forward_joint(model: Model, leaves: list[Tensor], raw: Array | None, latents: Array | None):
    """Features and logits of the live model on the tape, the reference's
    forward over ``leaves`` (``tape_leaves``): raw rows through every layer,
    then latent rows from the capture layer on."""
    ext = model.extractor
    last = len(ext.weights) - 1
    parts = []
    for start, rows in ((0, raw), (ext.capture_layer + 1, latents)):
        if rows is None or not rows.shape[0]:
            continue
        h = Tensor(rows)
        for i in range(start, last + 1):
            h = (dc.affine_relu if i < last else dc.affine)(h, leaves[2 * i], leaves[2 * i + 1])
        parts.append(h)
    if not parts:
        raise ContractError("no rows to train on")
    features = parts[0] if len(parts) == 1 else dc.concat_rows(parts[0], parts[1])
    theta, other = leaves[-2:]
    if model.head.variant == COSFC:
        cos = dc.cosine_matrix(features, theta)
        return features, dc.mul(cos, _broadcast_scalar(other, cos.shape))
    return features, dc.linear(features, theta, other)


def _broadcast_scalar(s: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Tile a scalar parameter to ``shape`` so elementwise ops stay shape-exact."""

    def backward(g: Array) -> None:
        dc._accumulate(s, np.asarray(g.sum()))

    return dc._op(np.broadcast_to(s.data, shape).copy(), (s,), backward)


def _np_forward_joint(snapshot: Model, raw: Array | None, latents: Array | None):
    """The snapshot's features and logits as plain arrays, raw rows first."""
    outs = []
    if raw is not None and raw.shape[0]:
        outs.append(snapshot.forward(raw))
    if latents is not None and latents.shape[0]:
        outs.append(snapshot.forward_from_latent(latents))
    return tuple(np.concatenate(parts, axis=0) for parts in zip(*outs))


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
    leaves: list[Tensor] | None = None,
) -> Tensor:
    """Classification over new plus replayed rows, distillation and margin
    ranking over the replayed rows, weighted by gamma_d and gamma_m; the
    parameters enter as ``leaves`` (by default ``tape_leaves(model)``)."""
    if (weights.gamma_d > 0 or weights.gamma_m > 0) and snapshot is None:
        raise ProtocolError("distillation or margin terms need a model snapshot")
    if leaves is None:
        leaves = tape_leaves(model)

    ex = batch_exemplar if batch_exemplar is not None and len(batch_exemplar) else None
    raw = _stack(batch_new.x, ex.x if ex else None)
    latents = ex.latents if ex else None
    features, logits = _forward_joint(model, leaves, raw, latents)

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
        supp = margin_ranking(ex_feats, leaves[-2], ex_classes, weights.tau, weights.J)
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


# ---------------------------------------------------------------------------
# the training step: total_loss and its backward sweep on plain arrays


def _np_layers_backward(extractor, start: int, acts: list[Array], g: Array, grads: list[Array], add: bool) -> None:
    """The tape's backward through the trainable layers from ``start`` on,
    given their ``np_activations``: each layer's gradients are written into
    ``grads`` (as ``loss_and_gradients`` takes them), or added when ``add``."""
    weights, frozen = extractor.weights, extractor.frozen
    last, stop = len(weights) - 1, max(start, frozen)
    for i in range(last, stop - 1, -1):
        if i < last:
            g = g * (acts[i - start + 1] > 0)  # relu(z) > 0 exactly where z > 0
        x = acts[i - start]
        gw, gb = grads[2 * (i - frozen)], grads[2 * (i - frozen) + 1]
        if add:
            gw += x.T @ g
            gb += g.sum(axis=0)
        else:
            np.matmul(x.T, g, out=gw)
            np.sum(g, axis=0, out=gb)
        if i > stop:
            g = g @ weights[i].T


@dataclass
class StepRows:
    """One training step's rows in the order the loss reads them: the new
    rows, then the replayed rows.

    ``chains`` lists each block of input rows with the layer it enters at
    (0 for raw inputs, ``capture_layer + 1`` for capture-layer activations);
    their outputs, stacked in order, are the step's feature rows, of which
    the first ``n_new`` are new. ``targets`` holds each row's target: label
    rows [n,k] for MC and MT, the 0/1 polarity as floats [n] for BC. ``ex``
    carries the replayed rows' classes and the snapshot's constants on them,
    one row per replayed row.
    """

    chains: list[tuple[int, Array]]
    n_new: int
    targets: Array
    ex: Batch | None


def step_rows(system: str, batch_new: Batch, batch_exemplar: Batch | None, model: Model) -> StepRows:
    """A new and a replayed batch laid out as ``total_loss`` stacks them:
    the raw rows (new, then replayed) through every layer, the latent
    replayed rows from the capture layer on."""
    ex = batch_exemplar if batch_exemplar is not None and len(batch_exemplar) else None
    raw = _stack(batch_new.x, ex.x if ex else None)
    chains = [] if raw is None else [(0, raw)]
    if ex is not None and ex.latents is not None and ex.latents.shape[0]:
        chains.append((model.extractor.capture_layer + 1, ex.latents))
    if not chains:
        raise ContractError("no rows to train on")
    if system == BC:
        targets = np.asarray(_stack(batch_new.polarity, ex.polarity if ex else None), dtype=np.float64)
    else:
        k = model.head.theta.shape[0]
        classes = _stack(batch_new.classes, ex.classes if ex else None)
        targets = _target_rows(_combined_targets(batch_new, ex, k, classes), classes.size, k)
    n_new = 0 if batch_new.x is None else batch_new.x.shape[0]
    return StepRows(chains, n_new, targets, ex)


def loss_and_gradients(
    system: str,
    step: StepRows,
    model: Model,
    weights: LossWeights,
    grads: list[Array],
    rule: str | None = None,
    distill_form: str = "logit",
    mt_classes: tuple[Array, Array] | None = None,
) -> float:
    """``total_loss``'s value, computed without the tape, after writing the
    gradient of every trainable parameter into ``grads``: one array per
    trainable parameter, in ``model.parameters()`` order (``Adam.grads``).

    The forward pass, the loss terms and the backward sweep use the tape's
    operands, memory layouts and order of summation, so each gradient equals
    ``total_loss(...).backward()`` bit for bit; the value agrees to rounding.
    ``mt_classes`` is ``polarity_classes`` of the head, derived here when not
    given. Distilling needs the snapshot's outputs on the replayed rows
    (``old_features``/``old_logits``); its per-row constants are used when
    ``step.ex`` carries them. Inputs are not checked here: every row is
    checked once, when the session's plan is built, and the first of
    ``step.chains`` enters no higher than the lowest trainable layer.
    """
    ext, head = model.extractor, model.head
    chains = [(start, ext.np_activations(x, start)) for start, x in step.chains]
    outs = [acts[-1] for _, acts in chains]
    feats = outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)

    logits, cosines = head.logits_and_cosines(feats)

    n_new, targets = step.n_new, step.targets
    if system == BC:
        value, d_logits = _bce_parts(logits, targets)
        total = _checked_loss(value, "binary_ce")
    elif system in (MC, MT):
        if system == MT and rule is None:
            raise ConfigError("multi-task loss needs an aggregation rule")
        if system == MT and weights.lam > 0:
            if mt_classes is None:
                mt_classes = polarity_classes(head.registry.fake_mask(), rule)
            value, d_logits = _mt_parts(logits, targets, mt_classes, weights.lam, rule)
            total = _checked_loss(value, "mt_class_loss")
        else:
            value, d_logits = _ce_parts(dc.np_log_softmax(logits, axis=1), targets)
            total = _checked_loss(value, "multiclass_ce")
    else:
        raise ConfigError(f"unknown learning system {system!r}")

    ex = step.ex
    n_ex = feats.shape[0] - n_new
    ex_feats = feats[n_new:]
    ex_norms = None  # row norms of ex_feats, shared by feature KD and the margin cosines
    d_feats_ex = None  # gradient into the exemplar rows of the features
    d_theta_margin = None
    gamma_d, gamma_m = weights.gamma_d, weights.gamma_m
    if n_ex and gamma_d > 0:
        if ex.old_logits is None or ex.old_features is None:
            raise ContractError("distillation needs the snapshot's outputs on the exemplar rows")
        if distill_form not in ("logit", "feature", "logit+feature"):
            raise ConfigError(f"unknown distillation form {distill_form!r}")
        old_logits, old_features = ex.old_logits, ex.old_features
        distill = 0.0
        if distill_form in ("logit", "logit+feature"):
            cols = np.arange(old_logits.shape[1])
            if ex.kd_logp is not None and n_ex > 1:
                logp, p = ex.kd_logp, ex.kd_p
            else:
                logp, p = kd_targets(old_logits, cols, weights.T)
            value, g = _kd_parts(logp, p, logits[n_new:], cols, weights.T)
            distill += _checked_loss(value, "kd_kl")
            d_logits[n_new:] += gamma_d * g
        if distill_form in ("feature", "logit+feature"):
            old_norms = ex.old_norms if ex.old_norms is not None else dc.row_norms(old_features, "old features")
            ex_norms = dc.row_norms(ex_feats, "exemplar features")
            value, g = _kd_feature_parts(old_features, old_norms, ex_feats, ex_norms)
            distill += _checked_loss(value, "kd_feature")
            d_feats_ex = gamma_d * g
        total = total + distill * gamma_d

    if n_ex and gamma_m > 0 and system != BC:
        if weights.J > head.theta.shape[0] - 1:
            raise ContractError(f"J={weights.J} exceeds the {head.theta.shape[0] - 1} available rival classes")
        supp = 0.0
        if weights.J > 0:
            sims, sna, snb, san, sbn = dc.np_cosine_matrix(ex_feats, head.theta, ex_norms)
            value, g = _margin_parts(dc.checked(sims, "margin cosines"), ex.classes, weights.tau, weights.J)
            supp = _checked_loss(value, "margin_ranking")
            d_ex, d_theta_margin = dc.np_cosine_backward(gamma_m * g, sims, sna, snb, san, sbn)
            d_feats_ex = d_ex if d_feats_ex is None else d_feats_ex + d_ex
        total = total + supp * gamma_m

    g_theta, g_other = grads[-2:]
    if cosines is not None:
        np.sum(d_logits * cosines[0], out=g_other)
        d_feats, g_theta[...] = dc.np_cosine_backward(d_logits * head.scale, *cosines)
    else:
        d_feats = d_logits @ head.theta
        np.matmul(d_logits.T, feats, out=g_theta)
        np.sum(d_logits, axis=0, out=g_other)
    if d_theta_margin is not None:
        g_theta += d_theta_margin
    if d_feats_ex is not None:
        d_feats[n_new:] += d_feats_ex
    row = 0
    for k, ((start, acts), out) in enumerate(zip(chains, outs)):
        g = d_feats if len(chains) == 1 else d_feats[row : row + out.shape[0]]
        _np_layers_backward(ext, start, acts, g, grads, add=k > 0)
        row += out.shape[0]
    return _checked_loss(total, "total")
