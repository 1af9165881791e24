"""Training objectives: classification, distillation, margin ranking and the
multi-task binary aggregation, plus label smoothing.

All losses return scalar tensors and are differentiable through the live
model only; the old model's outputs enter as plain arrays and never receive
gradients. Each loss term is one tape op whose gradient is written in
closed form, over the operands the step reads: label rows
(``label_smooth``'s), the leading ``k`` logit columns, the replayed rows
as a slice. Log-probabilities come from a max-shifted log-softmax or a
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
against. Both read one ``StepRows``: the step's rows as one block that
enters the network at its first trainable layer
(``FeatureExtractor.frozen``), their targets and the replayed rows'
``ReplayConstants``. ``step_rows`` is the one builder of that layout: the
trainer lays out a session's rows with it once and gathers each step's
from them, and the tests and ``cddet verify`` build steps with it directly.
None takes a learning system: a sigmoid head is BC, an aggregation rule
MT. The reference's forward, ``_forward_joint``, is the only place the
network is built on the tape, over leaves that wrap the model's parameter
arrays (``tape_leaves``). The replayed rows' constants have one builder,
``snapshot_constants``: it runs the old model on those rows and keeps only
what the distillation form reads, which is what the loss distils. Means
are written as sum / size, which is what ``np.mean`` computes. The step
reduces through the ufuncs (``np.add.reduce`` and the like), which
``x.sum()``, ``np.sum``, ``np.max`` and ``np.any`` call behind Python
frames: the same bits, in fewer calls. The distilled logit columns are the
old model's, the leading ones, so the step reads them as a view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .diffcore import Array, Tensor
from .errors import ConfigError, ContractError, DimensionError, NumericsError
from .model import COSFC, FAKE, SIGMOID, Model

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
class ReplayConstants:
    """The replayed rows' per-row constants, one row per replayed row: their
    ``classes`` and, from ``snapshot_constants``, what the distillation form
    reads of the old model's outputs on them. The logit forms fill the
    targets ``kd_logp``/``kd_p`` over the old model's ``old_cols`` logit
    columns (a single sigmoid column becomes a pair), the feature forms its
    features ``old_features`` and their row norms ``old_norms``. What is
    filled in is what the loss distils: the logits when ``kd_p`` is set,
    the features when ``old_features`` is.
    """

    classes: Array
    old_cols: int = 0
    kd_logp: Array | None = None
    kd_p: Array | None = None
    old_features: Array | None = None
    old_norms: Array | None = None

    def take(self, idx: Array) -> ReplayConstants:
        """The constants of rows ``idx``."""
        arrays = (self.kd_logp, self.kd_p, self.old_features, self.old_norms)
        picked = (None if a is None else a.take(idx, axis=0) for a in arrays)
        return ReplayConstants(self.classes.take(idx), self.old_cols, *picked)


def _check_distillable(ex: ReplayConstants) -> None:
    """Raise unless the replayed rows carry something to distil towards."""
    if ex.kd_p is None and ex.old_features is None:
        raise ContractError("distillation needs the snapshot's outputs on the replayed rows")


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


def _ce_parts(logp: Array, rows: Array, p: Array | None = None) -> tuple[float, Array]:
    """-mean_i sum_k rows[i,k] logp[i,k] for logp = log softmax(z), and its
    gradient in z; ``p`` is exp(logp) when the caller already holds it."""
    n = logp.shape[0]
    value = -np.add.reduce(rows * logp, axis=None) / n
    grad = ((np.exp(logp) if p is None else p) * np.add.reduce(rows, axis=1, keepdims=True) - rows) / n
    return value, grad


def multiclass_ce(logits: Tensor, rows: Array) -> Tensor:
    """Mean cross-entropy of softmax(logits) against label rows [n,k] (``step_rows``')."""
    if rows.shape != logits.shape:  # numpy would broadcast a 1-row block silently
        raise ContractError(f"label rows shape {rows.shape} != logits shape {logits.shape}")
    logp = dc.np_log_softmax(logits.data, axis=1)
    return _loss_op(logits, *_ce_parts(logp, rows), "multiclass_ce")


def binary_ce(logit: Tensor, targets) -> Tensor:
    """Mean binary cross-entropy of sigmoid outputs against 0/1 targets,
    computed from the logits: softplus(-z) for fakes, softplus(z) for reals."""
    y = np.asarray(targets, dtype=np.float64)
    return _loss_op(logit, *_bce_parts(logit.data, y), "binary_ce")


def _bce_parts(logits: Array, y: Array) -> tuple[float, Array]:
    """``binary_ce``'s value and its gradient in the sigmoid head's logits [n,1]."""
    z = logits[:, 0]
    if z.shape != y.shape:
        raise ContractError(f"logit shape {z.shape} does not match targets {y.shape}")
    value = np.add.reduce(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z), axis=None) / y.size
    grad = np.zeros(logits.shape)
    grad[:, 0] = (dc.np_sigmoid(z) - y) / y.size
    return value, grad


def kd_kl(old_logits: Array, new_logits: Tensor, T: float, k: int) -> Tensor:
    """Temperature-scaled KL from the frozen old outputs to the live ones
    over the leading ``k`` columns, the old model's.

    The old distribution is the target and receives no gradient; the
    gradient in the live logits is (softmax(z/T) - p) * T per row. At k = 1
    it compares the sigmoid output as the 2-point distribution softmax([0, z]).
    """
    logp, p = kd_targets(old_logits, k, T)
    return _loss_op(new_logits, *_kd_parts(logp, p, new_logits.data, k, T), "kd_kl")


def _kd_columns(logits: Array, k: int) -> Array:
    """The distilled columns, the leading ``k``: the old model's columns
    keep their place when the head expands, so they are a view, not a
    gather. A single column becomes the pair [0, z]."""
    picked = logits[:, :k]
    return np.hstack([np.zeros(picked.shape), picked]) if k == 1 else picked


def kd_targets(old_logits: Array, k: int, T: float) -> tuple[Array, Array]:
    """The old model's distillation targets: log-probabilities and
    probabilities at temperature T over its leading ``k`` columns.

    A one-row batch sums its row in another order than a taller one, so
    the step and its reference both read the targets ``snapshot_constants``
    computes once for all of a session's replayed rows.
    """
    logp = dc.np_log_softmax(_kd_columns(old_logits, k) / float(T), axis=1)
    return logp, np.exp(logp)


def _kd_parts(logp: Array, p: Array, new_logits: Array, k: int, T: float) -> tuple[float, Array]:
    """``kd_kl``'s value and its gradient in ``new_logits``, given the
    targets over its leading ``k`` columns."""
    t = float(T)
    logq = dc.np_log_softmax(_kd_columns(new_logits, k) / t, axis=1)
    n = logq.shape[0]
    value = np.add.reduce(np.add.reduce(p * (logp - logq), axis=1), axis=None) / n * (t * t)
    grad = np.zeros(new_logits.shape)
    grad[:, :k] = ((np.exp(logq) - p) * (t / n))[:, -k:]
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
    nanb = na * nb
    cos = np.einsum("ij,ij->i", old, new) / nanb
    dcos = old / nanb[:, None] - cos[:, None] * new / (nb * nb)[:, None]
    return np.add.reduce(1.0 - cos, axis=None) / cos.size, dcos * (-1.0 / cos.size)


def margin_ranking(features: Tensor, embeddings: Tensor, targets, tau: float, J: int) -> Tensor:
    """Hinge on the gap between the target-class cosine and the J closest rivals."""
    k = embeddings.shape[0]
    if J > k - 1:
        raise ContractError(f"J={J} exceeds the {k - 1} available rival classes")
    n = features.shape[0]
    if J == 0 or n == 0:
        return Tensor(0.0)
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

    grad = np.zeros(sims.shape)
    grad[rows[:, None], rivals] = active / n
    grad[rows, targets] = -np.add.reduce(active, axis=1) / n
    return np.add.reduce(np.where(active, gaps, 0.0), axis=None) * (1.0 / n), grad


def _group_score(logp: Array, p: Array, group: Array, rule: str) -> tuple[Array, Array]:
    """One polarity's log score per row under a softmax-based rule, and its
    gradient in the logits; ``group`` holds the polarity's class indices."""
    if rule == SUMLOG:
        grad = 0.0 - group.size * p  # 0 - x, not -x: a zero stays +0, as in a 0/1 mask minus x
        grad[:, group] += 1.0
        return np.add.reduce(logp[:, group], axis=1), grad
    grad = -p
    if rule == SUMLOGIT:
        # log of the group's probability mass, and the in-group softmax
        inside = logp[:, group]
        top = np.maximum.reduce(inside, axis=1)
        d = top + np.log(np.add.reduce(np.exp(inside - top[:, None]), axis=1))
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
        u = np.add.reduce(z[:, fake], axis=1) - np.add.reduce(z[:, real], axis=1)
        sign = np.full(z.shape[1], -1.0)
        sign[fake] = 1.0
        grad_f = dc.np_sigmoid(-u)[:, None] * sign
        grad_r = -dc.np_sigmoid(u)[:, None] * sign
        return -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u), grad_f, grad_r
    d_f, grad_f = _group_score(logp, p, fake, rule)
    d_r, grad_r = _group_score(logp, p, real, rule)
    return d_f, d_r, grad_f, grad_r


def mt_class_loss(logits: Tensor, rows: Array, polarity, lam: float, rule: str) -> Tensor:
    """Convex mix of the multi-class loss against label ``rows`` and the
    aggregated binary one; ``polarity`` holds each class's polarity, or is a fake mask.

    At lam = 0 this returns the multi-class cross-entropy itself, so the
    optimisation path is identical to the plain multi-class system.
    """
    if lam == 0.0:
        return multiclass_ce(logits, rows)
    if rows.shape != logits.shape:
        raise ContractError(f"label rows shape {rows.shape} != logits shape {logits.shape}")
    classes = polarity_classes(np.asarray(polarity) == FAKE, rule)
    return _loss_op(logits, *_mt_parts(logits.data, rows, classes, lam, rule), "mt_class_loss")


def _mt_parts(z: Array, rows: Array, classes: tuple[Array, Array], lam: float, rule: str) -> tuple[float, Array]:
    """``mt_class_loss``'s value and its gradient in the logits z[n,k], for
    0 < lam <= 1, dense target rows and the (fake, real) class indices."""
    n = z.shape[0]
    w_fake = np.add.reduce(rows[:, classes[0]], axis=1)
    w_real = 1.0 - w_fake
    logp = dc.np_log_softmax(z, axis=1)
    p = np.exp(logp)
    d_f, d_r, grad_f, grad_r = _aggregate(z, logp, p, classes, rule)
    binary = -(np.add.reduce(w_fake * d_f + w_real * d_r, axis=None) / n)
    grad_binary = -(w_fake[:, None] * grad_f + w_real[:, None] * grad_r) / n
    ce, grad_ce = _ce_parts(logp, rows, p)
    value = ce * (1.0 - lam) + binary * lam
    return value, grad_ce * (1.0 - lam) + grad_binary * lam


def label_smooth(targets, k: int, eps: float) -> Array:
    """One-hot rows pulled toward uniform: (1 - eps) * onehot + eps / k."""
    targets = np.asarray(targets, dtype=np.intp)
    rows = np.full((targets.size, k), eps / k, dtype=np.float64)
    rows[np.arange(targets.size), targets] += 1.0 - eps
    return rows


# ---------------------------------------------------------------------------
# composite session objective


def tape_leaves(model: Model) -> list[Tensor]:
    """The model's parameters as tape leaves, in ``parameters()`` order;
    only the trainable ones take a gradient, as in the training step."""
    frozen = 2 * model.extractor.frozen
    return [Tensor(p, requires_grad=i >= frozen) for i, p in enumerate(model.parameters())]


def _forward_joint(model: Model, leaves: list[Tensor], x: Array):
    """Features and logits of the live model on the tape, the reference's
    forward over ``leaves`` (``tape_leaves``): the rows ``x`` (``StepRows.x``)
    enter at the first trainable layer, as in the training step."""
    ext = model.extractor
    last = len(ext.weights) - 1
    features = Tensor(x)
    for i in range(ext.frozen, last + 1):
        features = (dc.affine_relu if i < last else dc.affine)(features, leaves[2 * i], leaves[2 * i + 1])
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


def _np_forward_joint(model: Model, rows: Array, latent: bool):
    """The old model's features and logits on ``rows`` as plain arrays;
    ``latent`` rows are capture-layer activations."""
    return model.forward_from_latent(rows) if latent else model.forward(rows)


def snapshot_constants(
    model: Model, rows: Array, classes: Array, T: float, distill_form: str, latent: bool = False
) -> ReplayConstants:
    """The constants of replayed ``rows`` of ``classes``: what
    ``distill_form`` reads of the old ``model``'s outputs on them, the
    distillation targets ``kd_logp``/``kd_p`` for the logit forms, the
    features and their row norms ``old_norms`` for the feature forms. The
    trainer passes the live model before its head expands or its layers
    freeze, ``cddet verify`` and the tests a ``Model.snapshot``. The form
    "none" distils nothing: its constants are the classes, and no model runs."""
    if distill_form == "none":
        return ReplayConstants(classes)
    old_features, old_logits = _np_forward_joint(model, rows, latent)
    ex = ReplayConstants(classes, old_logits.shape[1])
    if distill_form in ("logit", "logit+feature"):
        ex.kd_logp, ex.kd_p = kd_targets(old_logits, ex.old_cols, T)
    if distill_form in ("feature", "logit+feature"):
        ex.old_features, ex.old_norms = old_features, dc.row_norms(old_features, "old features")
    return ex


def total_loss(
    step: StepRows,
    model: Model,
    weights: LossWeights,
    rule: str | None = None,
    leaves: list[Tensor] | None = None,
) -> Tensor:
    """Classification over the step's rows, distillation and margin ranking
    over its replayed rows, weighted by gamma_d and gamma_m; the parameters
    enter as ``leaves`` (by default ``tape_leaves(model)``). Distilling
    needs ``snapshot_constants`` on the replayed rows, and distils what
    they carry: the logits, the features or both. A sigmoid head makes
    the system BC (no margin term), a ``rule`` MT, and anything else MC."""
    if leaves is None:
        leaves = tape_leaves(model)
    features, logits = _forward_joint(model, leaves, step.x)

    if model.head.variant == SIGMOID:
        total = binary_ce(logits, step.targets)
    elif rule is None:
        total = multiclass_ce(logits, step.targets)
    else:
        total = mt_class_loss(logits, step.targets, model.head.registry.fake_mask(), weights.lam, rule)

    ex, ex_slice = step.ex, slice(step.n_new, None)
    wants_distill = ex is not None and weights.gamma_d > 0
    wants_margin = ex is not None and weights.gamma_m > 0 and model.head.variant != SIGMOID
    if wants_distill or wants_margin:
        ex_feats = dc.take_rows(features, ex_slice)

    if wants_distill:
        _check_distillable(ex)
        distill = None
        if ex.kd_p is not None:
            ex_logits = dc.take_rows(logits, ex_slice)
            kd = _kd_parts(ex.kd_logp, ex.kd_p, ex_logits.data, ex.old_cols, weights.T)
            distill = _loss_op(ex_logits, *kd, "kd_kl")
        if ex.old_features is not None:
            term = kd_feature(ex.old_features, ex_feats)
            distill = term if distill is None else dc.add(distill, term)
        total = dc.add(total, dc.scale(distill, weights.gamma_d))

    if wants_margin:
        supp = margin_ranking(ex_feats, leaves[-2], ex.classes, weights.tau, weights.J)
        total = dc.add(total, dc.scale(supp, weights.gamma_m))

    return total


# ---------------------------------------------------------------------------
# the training step: total_loss and its backward sweep on plain arrays


def _np_layers_backward(extractor, acts: list[Array], g: Array, grads: list[Array]) -> None:
    """The tape's backward through the trainable layers, given their
    ``np_activations`` from ``frozen`` on: each layer's gradients are
    written into ``grads`` (as ``loss_and_gradients`` takes them)."""
    weights, frozen = extractor.weights, extractor.frozen
    last = len(weights) - 1
    for i in range(last, frozen - 1, -1):
        j = i - frozen  # the layer's input in acts, and its place in grads
        if i < last:
            g = g * (acts[j + 1] > 0)  # relu(z) > 0 exactly where z > 0
        np.matmul(acts[j].T, g, out=grads[2 * j])
        np.add.reduce(g, axis=0, out=grads[2 * j + 1])
        if i > frozen:
            g = g @ weights[i].T


@dataclass
class StepRows:
    """One training step's rows in the order the loss reads them: the new
    rows, then the replayed rows.

    ``x`` holds every row as it enters the network at its first trainable
    layer, ``model.extractor.frozen``: the raw inputs, or, once latent
    replay has frozen the layers up to the capture layer, the activations
    there. The first ``n_new`` rows are new. ``targets`` holds each row's
    target: label rows [n,k] for an argmax head, the 0/1 polarity as floats
    [n] for the sigmoid head. ``ex`` holds the replayed rows'
    ``ReplayConstants``, one row per replayed row. The training step and its tape reference read the
    same ``StepRows``.
    """

    x: Array
    n_new: int
    targets: Array
    ex: ReplayConstants | None


def step_rows(
    model: Model, new_x: Array, new_classes: Array, ex_x: Array | None = None,
    ex: ReplayConstants | None = None, eps: float = 0.0,
) -> StepRows:
    """New rows ``new_x`` of classes ``new_classes``, then replayed rows
    ``ex_x`` with their constants ``ex``, in the one row layout of a step
    and of a session (``trainer._plan_session``): the new rows' activations
    at the first trainable layer, then the replayed rows, which enter there
    as given. The targets are the classes' label rows smoothed by ``eps``
    (one-hot at 0), or for the sigmoid head (BC) their polarity."""
    ext = model.extractor
    x, classes = ext.np_activations(new_x, 0, ext.frozen)[-1], new_classes
    if ex is not None:
        x, classes = np.concatenate([x, ex_x]), np.concatenate([new_classes, ex.classes])
    if model.head.variant == SIGMOID:
        targets = model.head.registry.fake_mask()[classes].astype(np.float64)
    else:
        targets = label_smooth(classes, model.head.theta.shape[0], eps)
    return StepRows(x, len(new_x), targets, ex)


def loss_and_gradients(
    step: StepRows,
    model: Model,
    weights: LossWeights,
    grads: list[Array],
    rule: str | None = None,
) -> float:
    """``total_loss``'s value on the same ``step``, computed without the
    tape, after writing the gradient of every trainable parameter into
    ``grads``: one array per trainable parameter, in ``model.parameters()``
    order (``Adam.grads``).

    The forward pass, the loss terms and the backward sweep use the tape's
    operands, memory layouts and order of summation, so the value and each
    gradient equal ``total_loss(...)`` and its ``.backward()`` bit for bit.
    As there, a sigmoid head is BC and a ``rule`` MT, whose fake and real
    classes are the odd and the even logit columns. Distilling reads
    ``snapshot_constants`` on the replayed rows and distils what they
    carry; each such step checks that they carry something
    (``_check_distillable``). Beyond that and finiteness nothing is checked
    here: the method profile checks the settings, the readers the rows.
    """
    ext, head = model.extractor, model.head
    acts = ext.np_activations(step.x, ext.frozen)
    feats = acts[-1]
    logits, cosines = head.logits_and_cosines(feats)

    n_new, targets = step.n_new, step.targets
    if head.variant == SIGMOID:
        value, d_logits = _bce_parts(logits, targets)
        total = _checked_loss(value, "binary_ce")
    elif rule is not None and weights.lam > 0:
        k = logits.shape[1]
        value, d_logits = _mt_parts(logits, targets, (np.arange(1, k, 2), np.arange(0, k, 2)), weights.lam, rule)
        total = _checked_loss(value, "mt_class_loss")
    else:
        value, d_logits = _ce_parts(dc.np_log_softmax(logits, axis=1), targets)
        total = _checked_loss(value, "multiclass_ce")

    ex = step.ex
    n_ex = feats.shape[0] - n_new
    ex_feats = feats[n_new:]
    ex_norms = None  # row norms of ex_feats, shared by feature KD and the margin cosines
    d_feats_ex = None  # gradient into the exemplar rows of the features
    d_theta_margin = None
    gamma_d, gamma_m = weights.gamma_d, weights.gamma_m
    if n_ex and gamma_d > 0:
        _check_distillable(ex)
        distill = 0.0
        if ex.kd_p is not None:
            value, g = _kd_parts(ex.kd_logp, ex.kd_p, logits[n_new:], ex.old_cols, weights.T)
            distill += _checked_loss(value, "kd_kl")
            d_logits[n_new:] += gamma_d * g
        if ex.old_features is not None:
            ex_norms = dc.row_norms(ex_feats, "exemplar features")
            value, g = _kd_feature_parts(ex.old_features, ex.old_norms, ex_feats, ex_norms)
            distill += _checked_loss(value, "kd_feature")
            d_feats_ex = gamma_d * g
        total = total + distill * gamma_d

    if n_ex and gamma_m > 0 and head.variant != SIGMOID:
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
        np.add.reduce(d_logits * cosines[0], axis=None, out=g_other)
        d_feats, g_theta[...] = dc.np_cosine_backward(d_logits * head.scale, *cosines)
    else:
        d_feats = d_logits @ head.theta
        np.matmul(d_logits.T, feats, out=g_theta)
        np.add.reduce(d_logits, axis=0, out=g_other)
    if d_theta_margin is not None:
        g_theta += d_theta_margin
    if d_feats_ex is not None:
        d_feats[n_new:] += d_feats_ex
    _np_layers_backward(ext, acts, d_feats, grads)
    return _checked_loss(total, "total")
