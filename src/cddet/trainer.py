"""Incremental session protocol: snapshot, expand, train on new data plus
replayed exemplars, refresh the memory, and evaluate every seen task.

Learning-rate pattern: the first trained session uses the base rate and all
later sessions a tenth of it. The optimizer state is rebuilt per session
because head expansion changes the parameter set.

``MethodProfile`` checks a method's settings and ``TrainConfig`` the
optimisation's, before any data is built; a session checks only what needs
the live model: the system, the head and the task.

Training records no tape. Each session first builds a ``SessionPlan``: its
new rows and stored exemplars, checked once, with the per-row constants
that do not change within the session (target rows, the snapshot's outputs
and distillation targets on the exemplars, the norms of their old
features). Each epoch shuffles the plan once; a step slices its batch from
that copy (``_assemble_batches``), computes the loss and every gradient on
plain arrays (``losses.loss_and_gradients``) and hands the gradients to
``Adam.step``. Those gradients equal the tape's
(``total_loss(...).backward()``) bit for bit; the tape stays as the
reference the tests and ``cddet verify`` use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import diffcore as dc
from .errors import ConfigError, NumericsError, ProtocolError
from .losses import (
    AGG_RULES,
    Batch,
    LossWeights,
    _np_forward_joint,
    kd_targets,
    label_smooth,
    loss_and_gradients,
    mixup,
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
    wall_clock: list[float] = field(default_factory=list)
    memory_totals: list[int] = field(default_factory=list)
    model: Model | None = None
    memory: ExemplarMemory | None = None


class Adam:
    """Adaptive-moment optimizer with the standard defaults.

    The trainable parameters' values live in one flat buffer: each
    parameter's ``data`` becomes a view into it, and a step updates the
    buffer and both moment buffers in place. Frozen parameters stay out.
    """

    def __init__(self, params, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = [p for p in params if p.requires_grad]
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        bounds = np.cumsum([0] + [p.data.size for p in self.params])
        self.spans = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self.flat = np.zeros(bounds[-1])
        for p, span in zip(self.params, self.spans):
            self.flat[span] = p.data.ravel()
            p.data = self.flat[span].reshape(p.data.shape)
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self.g = np.zeros_like(self.flat)

    def zero_grad(self) -> None:
        """Clear the gradients a tape sweep stored on the parameters."""
        for p in self.params:
            p.zero_grad()

    def step(self, grads: dict) -> None:
        """One update from ``grads``, a ``{parameter: gradient}`` map; a
        parameter it leaves out keeps its value and moments."""
        self.t += 1
        live = []
        for p, span in zip(self.params, self.spans):
            g = grads.get(p)
            if g is not None:
                self.g[span] = g.ravel()
                live.append(span)
        if len(live) == len(self.spans):
            self._update(slice(None))
        else:  # a parameter without a gradient keeps its value and moments
            for span in live:
                self._update(span)

    def _update(self, span: slice) -> None:
        g, m, v = self.g[span], self.m[span], self.v[span]
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        m_hat = m / (1.0 - self.beta1**self.t)
        v_hat = v / (1.0 - self.beta2**self.t)
        self.flat[span] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


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
    constants, the loss weights in force and the snapshot they refer to."""

    new: Batch
    pool: Batch | None
    weights: LossWeights
    distill_form: str
    snapshot: Model | None


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
    exemplars = memory.all_exemplars() if memory is not None else []
    if not exemplars:
        return None
    payloads = dc.checked(np.vstack([e.payload for e in exemplars]), "exemplar payloads")
    classes = np.array([e.class_idx for e in exemplars], dtype=np.intp)
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
    distill_form = profile.distill_form if profile.distill_form != "none" else "logit"
    pool = _exemplar_pool(
        memory, class_polarity, snapshot if weights.gamma_d > 0 else None, weights, distill_form
    )
    if system != BC:
        for batch in (new, pool):
            if batch is not None:
                batch.target_rows = label_smooth(batch.classes, class_polarity.size, profile.label_smooth_eps)

    if profile.replay_payload == LATENT and memory is not None and model.sessions_trained >= 1:
        # latent replay keeps stored activations valid (and saves the
        # backward pass) by freezing the layers below the capture layer
        # once the first session has shaped them
        for i in range(model.extractor.capture_layer + 1):
            model.extractor.weights[i].requires_grad = False
            model.extractor.biases[i].requires_grad = False
    return SessionPlan(new, pool, weights, distill_form, snapshot)


def _assemble_batches(
    new: Batch,
    pool: Batch | None,
    new_rows: slice,
    pool_rows: slice,
    profile: MethodProfile,
    mixup_rng: np.random.Generator,
) -> tuple[Batch, Batch | None]:
    """One step's new-task rows and pool rows, sliced from the epoch's
    shuffled plan, with the new rows mixed when the profile asks for mixup."""
    batch_new = new.take(new_rows)
    n = len(batch_new)
    if profile.mixup_alpha > 0 and n > 1:
        rows = batch_new.target_rows
        partner = mixup_rng.permutation(n)
        (mixed_x, mixed_rows), _ = mixup(
            (batch_new.x, rows),
            (batch_new.x[partner], rows[partner]),
            profile.mixup_alpha,
            mixup_rng,
        )
        batch_new = Batch(
            x=mixed_x,
            classes=batch_new.classes,
            polarity=batch_new.polarity,
            target_rows=mixed_rows,
        )
    return batch_new, pool.take(pool_rows) if pool_rows.stop > pool_rows.start else None


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
    optimizer = Adam(model.parameters(), lr=lr)
    batching_rng = substream(config.seed, f"batch:{session.task_id}")
    mixup_rng = substream(config.seed, f"mixup:{session.task_id}")

    n_new = len(plan.new)
    n_rows = n_new + (len(plan.pool) if plan.pool is not None else 0)
    for epoch in range(config.epochs):
        # Shuffle the plan once per epoch. A window of the permutation then
        # holds a run of the shuffled new rows and a run of the shuffled
        # pool rows, in permutation order, so each step slices the two.
        perm = batching_rng.permutation(n_rows)
        is_new = perm < n_new
        new = plan.new.take(perm[is_new])
        pool = plan.pool.take(perm[~is_new] - n_new) if plan.pool is not None else None
        new_before = np.concatenate([[0], np.cumsum(is_new)])
        for start in range(0, n_rows, config.batch_size):
            stop = min(start + config.batch_size, n_rows)
            a, b = new_before[start], new_before[stop]
            batch_new, batch_ex = _assemble_batches(
                new, pool, slice(a, b), slice(start - a, stop - b), profile, mixup_rng
            )
            try:
                _, grads = loss_and_gradients(
                    system, batch_new, batch_ex, model, plan.weights,
                    rule=profile.aggregation, distill_form=plan.distill_form,
                )
            except NumericsError as exc:
                raise NumericsError(f"session {session.task_id}, epoch {epoch}: {exc}") from exc
            optimizer.step(grads)
        new = pool = batch_new = batch_ex = None  # free this epoch's copy before the next

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
        feats = model.extractor.forward(rows).data
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
    logits_np = logits.data
    pred_pol = predict_binary(model.head, logits_np, system)
    accuracy = float(np.mean(pred_pol == split.y))
    scores = fake_score(model.head, logits_np, system)
    pred_cls = predict_class(logits_np) if system != BC else None
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
        started = time.perf_counter()
        run_session(model, memory, warmup, profile, config, system)
        record.wall_clock.append(time.perf_counter() - started)
        record.memory_totals.append(memory.total() if memory is not None else 0)

    for j, session in enumerate(sessions):
        started = time.perf_counter()
        run_session(model, memory, session, profile, config, system)
        record.wall_clock.append(time.perf_counter() - started)
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

