"""Incremental session protocol: snapshot, expand, train on new data plus
replayed exemplars, refresh the memory, and evaluate every seen task.

Learning-rate pattern: the first trained session uses the base rate and all
later sessions a tenth of it. The optimizer state is rebuilt per session
because head expansion changes the parameter set.

``MethodProfile`` checks a method's settings and ``TrainConfig`` the
optimisation's, before any data is built; a session checks only what needs
the live model: the system, the head and the task.

Training records no tape, and each piece of its work is done at the
coarsest level at which it is constant:

- once per session, ``SessionPlan``: the new rows and stored exemplars,
  checked once, with the per-row constants (target rows, the snapshot's
  outputs and distillation targets on the exemplars, the norms of their old
  features) and the MT aggregation's fake and real class indices; and
  ``SessionRows``: the session's rows held once, as one array of inputs, one
  of targets and the replayed rows' constants, where, once latent replay has
  frozen the layers up to the capture layer, each new row is its activation
  there, so new rows enter the network where replayed latents do; each epoch
  only draws a new row order (``SessionRows.shuffle``);
- once per step: ``_assemble_batches`` gathers the step's window from those
  arrays (mixing its new rows under mixup), ``losses.loss_and_gradients``
  computes the loss and writes each gradient into ``Adam.g``; ``Adam.step``
  applies them.

The gradients equal the tape's (``total_loss(...).backward()``) bit for bit;
the tape stays as the reference the tests and ``cddet verify`` use. One
exception keeps that so: a step with a single new row recomputes that row
from its input under latent replay, because a one-row product rounds
differently from the session-wide one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, NumericsError, ProtocolError
from .losses import (
    AGG_RULES,
    Batch,
    LossWeights,
    StepRows,
    _np_forward_joint,
    kd_targets,
    label_smooth,
    loss_and_gradients,
    mixup,
    polarity_classes,
)
from .memory import LATENT, PAYLOAD_KINDS, RAW, ExemplarMemory, capture, herd_select
from .model import (
    BC,
    COSFC,
    FAKE,
    LINFC,
    MC,
    MT,
    REAL,
    SIGMOID,
    SYSTEMS,
    Model,
    fake_score,
    predict_binary,
    predict_class,
)
from .seeding import substream
from .stream import SessionData

DISTILL_FORMS = ("none", "logit", "feature", "logit+feature")


@dataclass(frozen=True)
class MethodProfile:
    """A method's loss weights, replay payload, head and essentials flags."""

    name: str
    weights: LossWeights = LossWeights()
    distill_form: str = "none"
    replay_payload: str = RAW
    head_variant: str = LINFC
    aggregation: str | None = None
    label_smooth_eps: float = 0.0
    mixup_alpha: float = 0.0

    def __post_init__(self):
        if self.distill_form not in DISTILL_FORMS:
            raise ConfigError(f"unknown distillation form {self.distill_form!r}")
        if (self.distill_form == "none") != (self.weights.gamma_d == 0):
            raise ConfigError("distillation form 'none' must coincide with gamma_d == 0")
        if self.replay_payload not in PAYLOAD_KINDS:
            raise ConfigError(f"unknown replay_payload {self.replay_payload!r}")
        if not 0.0 <= self.label_smooth_eps < 1.0:
            raise ConfigError(f"label_smooth_eps must lie in [0, 1), found {self.label_smooth_eps}")
        if not (self.mixup_alpha >= 0.0 and math.isfinite(self.mixup_alpha)):
            raise ConfigError(f"mixup_alpha must be finite and non-negative, found {self.mixup_alpha}")
        if self.head_variant == SIGMOID and self.weights.gamma_m != 0:
            raise ConfigError("sigmoid heads drop the margin term; gamma_m must be 0")
        if self.head_variant == SIGMOID and (self.label_smooth_eps > 0 or self.mixup_alpha > 0):
            raise ConfigError("a sigmoid head takes no label_smooth_eps or mixup_alpha")
        if self.weights.gamma_m > 0 and self.weights.J > 3:
            # a margin term first trains in a run's second session: 4 classes, 3 rivals
            raise ConfigError(f"the margin term (gamma_m > 0) ranks at most 3 rivals; J = {self.weights.J}")
        if self.mixup_alpha > 0 and self.replay_payload == LATENT:
            raise ConfigError("mixup operates on raw inputs; latent replay cannot use it")
        if self.aggregation is not None and self.aggregation not in AGG_RULES:
            raise ConfigError(f"unknown aggregation rule {self.aggregation!r}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 6
    lr: float = 1e-3
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise ConfigError("batch size must be at least 2")
        if self.epochs < 1:
            raise ConfigError("epochs must be at least 1")
        if not (self.lr > 0 and math.isfinite(self.lr)):
            raise ConfigError(f"lr must be positive and finite, found {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, found {self.seed}")


@dataclass
class PredictionLog:
    record_ids: list[str]
    true_polarity: np.ndarray
    pred_polarity: np.ndarray
    p_fake: np.ndarray
    true_class: np.ndarray | None
    pred_class: np.ndarray | None


@dataclass
class RunRecord:
    task_ids: list[int]
    matrix: np.ndarray
    logs: dict[int, PredictionLog]
    config_echo: dict
    memory_totals: list[int] = field(default_factory=list)
    model: Model | None = None
    memory: ExemplarMemory | None = None


class Adam:
    """Adaptive-moment optimizer with the standard defaults, over the
    model's trainable parameters (all but the first ``2 * frozen``).

    Their values live in one flat buffer, ``flat``, each parameter rebound
    to its view of it; ``grads`` holds their views of the gradient buffer
    ``g``, which ``losses.loss_and_gradients`` writes. A step updates
    ``flat`` and both moment buffers in place.
    """

    def __init__(self, model: Model, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        params = model.parameters()
        frozen = 2 * model.extractor.frozen
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        trainable = params[frozen:]
        self.flat = np.concatenate([p.ravel() for p in trainable])
        self.g = np.zeros_like(self.flat)
        cuts = np.cumsum([p.size for p in trainable])[:-1]
        self.params = [part.reshape(p.shape) for part, p in zip(np.split(self.flat, cuts), trainable)]
        self.grads = [part.reshape(p.shape) for part, p in zip(np.split(self.g, cuts), trainable)]
        model.set_parameters(params[:frozen] + self.params)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = (np.empty_like(self.flat), np.empty_like(self.flat))

    def zero_grad(self) -> None:
        """Clear the gradient buffer."""
        self.g.fill(0.0)

    def step(self) -> None:
        """One update from the gradients in ``g``."""
        # lr * m_hat / (sqrt(v_hat) + eps), each operation in the order the
        # expression states, written into two scratch buffers
        self.t += 1
        g, m, v = self.g, self.m, self.v
        a, b = self._scratch
        m *= self.beta1
        np.multiply(1.0 - self.beta1, g, out=a)
        m += a
        v *= self.beta2
        np.multiply(1.0 - self.beta2, g, out=a)
        a *= g
        v += a
        np.divide(m, 1.0 - self.beta1**self.t, out=a)
        a *= self.lr
        np.divide(v, 1.0 - self.beta2**self.t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.flat -= a


# ---------------------------------------------------------------------------
# built-in method profiles

_BASE_PROFILES: dict[str, dict] = {
    "finetune": dict(gamma_d=0.0, gamma_m=0.0, distill_form="none", replay_payload=RAW),
    "replay": dict(gamma_d=0.0, gamma_m=0.0, distill_form="none", replay_payload=LATENT),
    "replay+kd": dict(gamma_d=0.3, gamma_m=0.0, distill_form="logit", replay_payload=LATENT),
    "distill": dict(gamma_d=1.0, gamma_m=0.0, distill_form="logit", replay_payload=RAW),
    "rebalance": dict(gamma_d=0.5, gamma_m=0.1, distill_form="feature", replay_payload=RAW),
    "rebalance-cosfc": dict(
        gamma_d=0.5, gamma_m=0.1, distill_form="feature", replay_payload=RAW, head=COSFC
    ),
}


def builtin_profiles() -> list[str]:
    return sorted(_BASE_PROFILES)


def resolve_profile(
    name: str,
    system: str,
    aggregation: str | None = None,
    lam: float = 0.3,
    label_smooth_eps: float = 0.0,
    mixup_alpha: float = 0.0,
    **weight_overrides,
) -> MethodProfile:
    """Bind a named profile to a learning system; BC swaps in the sigmoid
    head and drops the margin term, MT picks an aggregation rule."""
    if name not in _BASE_PROFILES:
        raise ConfigError(f"unknown profile {name!r}; known: {', '.join(builtin_profiles())}")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown learning system {system!r}; known: {', '.join(SYSTEMS)}")
    base = dict(_BASE_PROFILES[name])
    head = base.pop("head", LINFC)
    base.update(weight_overrides)
    gamma_m = base["gamma_m"]
    if system == BC:
        head = SIGMOID
        gamma_m = 0.0
    weights = LossWeights(
        gamma_d=base["gamma_d"],
        gamma_m=gamma_m,
        lam=lam,
        T=base.get("T", 1.0),
        tau=base.get("tau", 0.2),
        J=base.get("J", 2),
    )
    rule = ("sumlogit" if aggregation is None else aggregation) if system == MT else None
    return MethodProfile(
        name=name,
        weights=weights,
        distill_form=base["distill_form"],
        replay_payload=base["replay_payload"],
        head_variant=head,
        aggregation=rule,
        label_smooth_eps=label_smooth_eps,
        mixup_alpha=mixup_alpha,
    )


# ---------------------------------------------------------------------------
# session training


def _class_targets(registry, task_id: int, polarity: np.ndarray) -> np.ndarray:
    real_cls = registry.class_of(task_id, REAL)
    fake_cls = registry.class_of(task_id, FAKE)
    return np.where(polarity == FAKE, fake_cls, real_cls).astype(np.intp)


@dataclass
class SessionPlan:
    """What a session trains on, built once before its first step: the new
    rows and the stored exemplars (``pool``), each with its per-row
    constants, the loss weights in force and the snapshot they refer to.

    ``mt_classes`` holds the head's (fake, real) class indices for the MT
    aggregation.
    """

    new: Batch
    pool: Batch | None
    weights: LossWeights
    snapshot: Model | None
    mt_classes: tuple[np.ndarray, np.ndarray] | None = None


def _exemplar_pool(
    memory: ExemplarMemory | None,
    class_polarity: np.ndarray,
    snapshot: Model | None,
    weights: LossWeights,
    distill_form: str,
) -> Batch | None:
    """Every stored exemplar as one batch of rows; with a snapshot, its
    outputs on those rows and the distillation constants derived from them
    ride along."""
    if memory is None:
        return None
    payloads, classes = memory.all_exemplars()
    if not classes.size:
        return None
    payloads = dc.checked(payloads, "exemplar payloads")
    pool = Batch(
        x=payloads if memory.payload_kind == RAW else None,
        latents=payloads if memory.payload_kind == LATENT else None,
        classes=classes,
        polarity=class_polarity[classes].astype(np.int64),
    )
    if snapshot is not None:
        pool.old_features, pool.old_logits = _np_forward_joint(snapshot, pool.x, pool.latents)
        if distill_form in ("logit", "logit+feature"):
            cols = np.arange(pool.old_logits.shape[1])
            pool.kd_logp, pool.kd_p = kd_targets(pool.old_logits, cols, weights.T)
        if distill_form in ("feature", "logit+feature"):
            pool.old_norms = dc.row_norms(pool.old_features, "old features")
    return pool


def _plan_session(
    model: Model,
    memory: ExemplarMemory | None,
    session: SessionData,
    profile: MethodProfile,
    system: str,
) -> SessionPlan:
    """Check the session against the live model, snapshot it, expand its
    head, freeze the layers latent replay needs fixed, and build the plan."""
    if system not in SYSTEMS:
        raise ConfigError(f"unknown learning system {system!r}")
    if (system == BC) != (profile.head_variant == SIGMOID):
        raise ConfigError("binary-class learning pairs with the sigmoid head only")
    if model.head.variant != profile.head_variant:
        raise ConfigError(
            f"model head {model.head.variant!r} does not match profile {profile.head_variant!r}"
        )
    if session.task_id in model.head.registry.task_ids():
        raise ProtocolError(f"task {session.task_id} was already trained")

    old_terms_wanted = profile.weights.gamma_d > 0 or profile.weights.gamma_m > 0
    snapshot = model.snapshot() if old_terms_wanted and model.sessions_trained >= 1 else None

    if system == BC:
        model.head.register_task(session.task_id)
    else:
        model.head.expand(session.task_id)
    registry = model.head.registry
    class_polarity = np.array([pol for _, pol in registry.entries], dtype=np.int64)

    new_polarity = session.train.y.astype(np.int64)
    new = Batch(
        x=dc.checked(session.train.x, "training inputs"),
        classes=_class_targets(registry, session.task_id, new_polarity),
        polarity=new_polarity,
    )

    weights = profile.weights
    if snapshot is None:
        # no old model yet: the distillation and margin terms are skipped
        weights = replace(weights, gamma_d=0.0, gamma_m=0.0)
    pool = _exemplar_pool(
        memory, class_polarity, snapshot if weights.gamma_d > 0 else None, weights, profile.distill_form
    )
    if system != BC:
        for batch in (new, pool):
            if batch is not None:
                batch.target_rows = label_smooth(batch.classes, class_polarity.size, profile.label_smooth_eps)

    mt_classes = polarity_classes(class_polarity == FAKE, profile.aggregation) if system == MT else None

    if profile.replay_payload == LATENT and memory is not None and model.sessions_trained >= 1:
        # latent replay keeps stored activations valid (and saves the
        # backward pass) by freezing the layers below the capture layer
        # once the first session has shaped them
        model.extractor.frozen = model.extractor.capture_layer + 1
    return SessionPlan(new, pool, weights, snapshot, mt_classes)


# the per-row constants the loss reads on replayed rows
_REPLAYED = ("classes", "old_features", "old_logits", "kd_logp", "kd_p", "old_norms")


class SessionRows:
    """A session's rows, held once: the inputs (``source``) and their
    targets (``source_targets``), new rows first, and the replayed rows'
    per-row constants (``pool``).

    An epoch's permutation is cut into step windows of ``batch_size`` rows;
    within a window the new rows come first, then the replayed rows, each
    in permutation order. ``shuffle`` sets that order; each step gathers
    its window from the arrays.

    Once latent replay has frozen the layers up to the capture layer, each
    new row's activation there is fixed for the session: it is computed
    here, once, and the new rows enter the network there, as the replayed
    latents do.
    """

    def __init__(self, plan: SessionPlan, model: Model, system: str, batch_size: int):
        new, pool = plan.new, plan.pool
        ext = model.extractor
        self.new_x = new.x
        self.n_new = len(new)
        self.capture_start = ext.capture_layer + 1
        self.latent = ext.frozen >= self.capture_start
        inputs = [ext.np_activations(new.x, 0, self.capture_start)[-1] if self.latent else new.x]
        targets = [new.polarity if system == BC else new.target_rows]
        self.pool = None
        if pool is not None:
            if (pool.latents is not None) != self.latent:
                raise ProtocolError("latent replay needs the layers below the capture layer frozen")
            inputs.append(pool.x if pool.latents is None else pool.latents)
            targets.append(pool.polarity if system == BC else pool.target_rows)
            self.pool = {name: getattr(pool, name) for name in _REPLAYED if getattr(pool, name) is not None}
        self.source = np.concatenate(inputs)
        self.source_targets = np.concatenate(targets, dtype=np.float64)
        self.window = np.arange(len(self)) // batch_size * 2
        self.order = None

    def __len__(self) -> int:
        return self.source.shape[0]

    def shuffle(self, perm: np.ndarray) -> None:
        """Set the row order of an epoch whose permutation is ``perm``
        (indices below ``n_new`` are new rows, the rest replayed ones)."""
        self.order = perm[np.argsort(self.window + (perm >= self.n_new), kind="stable")]


def _assemble_batches(
    rows: SessionRows,
    start: int,
    stop: int,
    profile: MethodProfile,
    mixup_rng: np.random.Generator,
) -> StepRows:
    """The step over rows ``start:stop`` of the epoch's order, gathered from
    the session's arrays, its new rows mixed when the profile asks for
    mixup."""
    idx = rows.order[start:stop]
    n_new = int(np.count_nonzero(idx < rows.n_new))
    x, targets = rows.source[idx], rows.source_targets[idx]
    if profile.mixup_alpha > 0 and n_new > 1:
        new_x, new_targets = x[:n_new], targets[:n_new]
        partner = mixup_rng.permutation(n_new)
        (mixed_x, mixed_targets), _ = mixup(
            (new_x, new_targets), (new_x[partner], new_targets[partner]), profile.mixup_alpha, mixup_rng
        )
        new_x[...] = mixed_x
        new_targets[...] = mixed_targets
    if not rows.latent:  # raw rows, new and replayed, through every layer
        chains = [(0, x)]
    else:
        chains = []
        if n_new == 1:
            # a one-row product takes another BLAS path, whose last bits
            # differ from the session-wide product's: recompute the row
            i = idx[0]
            chains.append((0, rows.new_x[i : i + 1]))
        elif n_new:
            chains.append((rows.capture_start, x[:n_new]))
        if idx.size > n_new:
            chains.append((rows.capture_start, x[n_new:]))
    ex = None
    if rows.pool is not None and idx.size > n_new:
        replayed = idx[n_new:] - rows.n_new
        ex = Batch(**{name: v[replayed] for name, v in rows.pool.items()})
    return StepRows(chains, n_new, targets, ex)


def run_session(
    model: Model,
    memory: ExemplarMemory | None,
    session: SessionData,
    profile: MethodProfile,
    config: TrainConfig,
    system: str,
) -> None:
    """One incremental step: snapshot, expand, fit on new plus replayed data,
    then select exemplars for the new classes and rebalance all quotas."""
    plan = _plan_session(model, memory, session, profile, system)
    lr = config.lr if model.sessions_trained == 0 else config.lr / 10.0
    optimizer = Adam(model, lr=lr)
    batching_rng = substream(config.seed, f"batch:{session.task_id}")
    mixup_rng = substream(config.seed, f"mixup:{session.task_id}")

    epoch = 0
    try:
        rows = SessionRows(plan, model, system, config.batch_size)
        weights, mt_classes = plan.weights, plan.mt_classes
        plan = None  # the session's rows hold what the steps read; free the rest
        n_rows = len(rows)
        for epoch in range(config.epochs):
            rows.shuffle(batching_rng.permutation(n_rows))
            for start in range(0, n_rows, config.batch_size):
                stop = min(start + config.batch_size, n_rows)
                step = _assemble_batches(rows, start, stop, profile, mixup_rng)
                loss_and_gradients(
                    system, step, model, weights, optimizer.grads, rule=profile.aggregation,
                    distill_form=profile.distill_form, mt_classes=mt_classes,
                )
                optimizer.step()
    except NumericsError as exc:
        raise NumericsError(f"session {session.task_id}, epoch {epoch}: {exc}") from exc

    if memory is not None:
        _store_exemplars(model, memory, session, profile, model.head.registry)
        memory.rebalance(len(model.head.registry))
        memory.assert_within_budget()

    model.sessions_trained += 1


def _store_exemplars(model, memory, session, profile, registry) -> None:
    num_classes = len(registry)
    cap = -(-memory.budget // num_classes)  # ceil; rebalance trims the rest
    for polarity in (REAL, FAKE):
        rows = session.train.x[session.train.y == polarity]
        if rows.shape[0] == 0:
            continue
        feats = model.extractor.forward(rows)
        m = min(rows.shape[0], cap)
        if m < 1:
            continue
        order = herd_select(feats, m)
        payloads = capture(model.extractor, rows[order], profile.replay_payload)
        memory.add_class(registry.class_of(session.task_id, polarity), payloads, session.task_id)


# ---------------------------------------------------------------------------
# scenario runner


def _evaluate(model: Model, system: str, split) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    _, logits = model.forward(split.x)
    pred_pol = predict_binary(model.head, logits, system)
    accuracy = float(np.mean(pred_pol == split.y))
    scores = fake_score(model.head, logits, system)
    pred_cls = predict_class(logits) if system != BC else None
    return accuracy, pred_pol, scores, pred_cls


def run_scenario_over_sessions(
    sessions: list[SessionData],
    warmup: SessionData | None,
    budget: int,
    profile: MethodProfile,
    config: TrainConfig,
    system: str,
    config_echo: dict | None = None,
) -> RunRecord:
    """Train through the stream in order, filling column j of the accuracy
    matrix after session j; the warm-up session trains without logging."""
    task_ids = [s.task_id for s in sessions]
    if len(set(task_ids)) != len(task_ids):
        raise ProtocolError("duplicate task in scenario")
    ordered = ([warmup] if warmup is not None else []) + sessions
    input_width = ordered[0].train.x.shape[1]
    for session in ordered:
        for split in (session.train, session.test):
            if split.x.shape[1] != input_width:
                raise ConfigError(
                    f"task {session.task_id} has {split.x.shape[1]} features, "
                    f"task {ordered[0].task_id} has {input_width}"
                )

    init_rng = substream(config.seed, "init")
    model = Model.build(input_width, profile.head_variant, init_rng)
    memory = ExemplarMemory(budget, profile.replay_payload) if budget > 0 else None

    n = len(sessions)
    matrix = np.full((n, n), np.nan)
    logs: dict[int, PredictionLog] = {}
    record = RunRecord(task_ids=task_ids, matrix=matrix, logs=logs, config_echo=config_echo or {})

    if warmup is not None:
        run_session(model, memory, warmup, profile, config, system)
        record.memory_totals.append(memory.total() if memory is not None else 0)

    for j, session in enumerate(sessions):
        run_session(model, memory, session, profile, config, system)
        record.memory_totals.append(memory.total() if memory is not None else 0)
        for i in range(j + 1):
            accuracy, pred_pol, scores, pred_cls = _evaluate(model, system, sessions[i].test)
            matrix[i, j] = accuracy
            if j == n - 1:
                split = sessions[i].test
                true_cls = (
                    _class_targets(model.head.registry, sessions[i].task_id, split.y)
                    if system != BC
                    else None
                )
                logs[sessions[i].task_id] = PredictionLog(
                    record_ids=list(split.ids),
                    true_polarity=split.y.copy(),
                    pred_polarity=pred_pol,
                    p_fake=scores,
                    true_class=true_cls,
                    pred_class=pred_cls,
                )
    record.model = model
    record.memory = memory
    return record

