"""Incremental session protocol: record the old model's outputs on the
replayed exemplars (to distil them), expand, train on new data plus those
exemplars, refresh the memory, and evaluate every seen task.

Learning-rate pattern: a session that finds the class registry empty uses
the base rate and all later sessions a tenth of it. The optimizer state is
rebuilt per session because head expansion changes the parameter set.

A run's state between sessions is the model and the memory, what a checkpoint
holds: a session draws only from its task's ``batch:``, ``mixup:`` and
``head:`` streams, so a run resumed from its checkpoint trains on unchanged.

The built-in methods are one table of ``MethodProfile`` values, and
``resolve_profile`` is the one place that binds one to a learning system
and applies a run's overrides to it; the head and the aggregation rule
then say the system (``MethodProfile.system``), so no function below the
run takes one. ``MethodProfile`` checks a method's settings and
``TrainConfig`` the optimisation's, before any data is built; the run
checks the profile's system, its tasks and widths before it builds the
model. A session checks the head and the latent freeze, not the system;
the class registry rejects a task it already holds. The memory owns the
replay kind: a session replays, freezes and captures by ``payload_kind``.

The built-in profiles against the paper's methods: ``finetune`` is plain
fine-tuning (with a budget it replays raw rows), ``replay`` latent replay
(Pellegrini et al., 2020), ``replay+kd`` adds ``distill``'s logit KD to it,
``distill`` is LwF's KL, and ``rebalance`` LUCIR's feature KD and margin
ranking, with a linear head (LUCIR's cosine head in ``rebalance-cosfc``).
Unlike LwF, iCaRL and LUCIR, they distil the replayed rows only, so
``distill`` at memory 0 trains the same model as ``finetune``. Herding
picks the exemplars, as in iCaRL, but no profile classifies by iCaRL's
nearest mean of exemplars.

Training records no tape, and each piece of its work is done at the
coarsest level at which it is constant:

- once per session, ``_plan_session`` checks the session against the live
  model and borrows the stored rows (``ExemplarMemory.lend``): the memory
  stacks them and drops its arrays. When the session distils replayed
  rows, it records what its distillation form reads of the live model's
  outputs on them (``losses.snapshot_constants``), before the head
  expands or any layer freezes: the model copies nothing. It then expands
  the head, freezes the layers latent replay needs fixed and builds the
  session's rows as one ``losses.StepRows`` with ``losses.step_rows``, the
  one builder of that row layout: the new rows and every stored exemplar,
  each held once as it enters the network at its first trainable layer,
  with its target, and the replayed rows' classes and constants. Those
  rows are the only copy of the stored ones until training ends; then,
  whether the session returns or raises, the memory takes them back in
  stored order (``ExemplarMemory.take_back``), and the session's rows go
  before new exemplars are stored;
- once per epoch, ``_regather`` lays those arrays out in the epoch's row
  order (``_epoch_order``), one array at a time, so that each step's
  window is one run of rows and its replayed rows one run of constants;
- once per step: ``_assemble_batches`` takes the step's window as views
  of those arrays, one ``StepRows`` (mixing a copy of the window under
  mixup), ``losses.loss_and_gradients`` computes the loss and writes each
  gradient into ``Adam.g``; ``Adam.step`` applies them in Adam's folded
  form.

The gradients equal the tape's (``total_loss`` on the same ``StepRows``,
``.backward()``) bit for bit; the tape stays as the reference the tests and
``cddet verify`` use. The step reduces through the ufuncs, not numpy's
Python-level wrappers. After each session the run evaluates every seen task for
the accuracy matrix; only the final column's predictions are logged, so
only they take fake scores and predicted classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, NumericsError, ProtocolError
from .losses import (
    AGG_RULES,
    SUMLOGIT,
    LossWeights,
    ReplayConstants,
    StepRows,
    loss_and_gradients,
    snapshot_constants,
    step_rows,
)
from .memory import LATENT, PAYLOAD_KINDS, RAW, ExemplarMemory, capture, herd_select
from .metrics import PredictionLog
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
        if self.aggregation is not None and self.head_variant == SIGMOID:
            raise ConfigError("aggregation rules apply to the multi-task system only")

    @property
    def system(self) -> str:
        """BC for the sigmoid head, MT for an aggregation rule, MC otherwise."""
        if self.head_variant == SIGMOID:
            return BC
        return MC if self.aggregation is None else MT


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
class RunRecord:
    matrix: np.ndarray
    logs: dict[int, PredictionLog]
    memory_totals: list[int] = field(default_factory=list)
    model: Model | None = None
    memory: ExemplarMemory | None = None


class Adam:
    """Adaptive-moment optimizer with the standard defaults, over the
    model's trainable parameters (all but the first ``2 * frozen``).

    Their values live in one flat buffer, ``flat``, each parameter rebound
    to its view of it; ``grads`` holds their views of the gradient buffer
    ``g``, which ``losses.loss_and_gradients`` writes. The two moments are
    the rows ``m`` and ``v`` of one ``(2, N)`` buffer, so a step decays and
    feeds both with the two betas as one column, in four array calls. A
    step updates ``flat`` and the moments in place.

    The update is Kingma & Ba's (2015, section 2) folded form: the bias
    corrections go into one scalar step size, lr * sqrt(1 - beta2^t) /
    (1 - beta1^t), and the epsilon becomes eps_hat = eps * sqrt(1 - beta2^t),
    so theta -= step_size * m / (sqrt(v) + eps_hat). That is the same
    function as lr * m_hat / (sqrt(v_hat) + eps), in fewer array passes and
    with one division; it rounds differently in the last bits.
    """

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    _BETAS = np.array([[BETA1], [BETA2]])  # m's row, then v's
    _GAINS = 1.0 - _BETAS

    def __init__(self, model: Model, lr: float):
        params = model.parameters()
        frozen = 2 * model.extractor.frozen
        self.lr = lr
        self.t = 0
        trainable = params[frozen:]
        self.flat = np.concatenate([p.ravel() for p in trainable])
        self.g = np.zeros_like(self.flat)
        cuts = np.cumsum([p.size for p in trainable])[:-1]
        self.params = [part.reshape(p.shape) for part, p in zip(np.split(self.flat, cuts), trainable)]
        self.grads = [part.reshape(p.shape) for part, p in zip(np.split(self.g, cuts), trainable)]
        model.set_parameters(params[:frozen] + self.params)
        self.moments = np.zeros((2, self.flat.size))
        self.m, self.v = self.moments
        scratch = np.empty_like(self.moments)
        self._scratch = (scratch, *scratch)  # the buffer and its two rows

    def zero_grad(self) -> None:
        """Clear the gradient buffer."""
        self.g.fill(0.0)

    def step(self) -> None:
        """One update from the gradients in ``g``."""
        self.t += 1
        g = self.g
        scratch, a, b = self._scratch
        self.moments *= self._BETAS
        np.multiply(self._GAINS, g, out=scratch)
        b *= g
        self.moments += scratch
        root2 = math.sqrt(1.0 - self.BETA2**self.t)
        step_size = self.lr * root2 / (1.0 - self.BETA1**self.t)
        np.sqrt(self.v, out=b)
        b += self.EPS * root2
        np.divide(self.m, b, out=a)
        a *= step_size
        self.flat -= a


# ---------------------------------------------------------------------------
# built-in method profiles

_BASE_PROFILES: dict[str, MethodProfile] = {
    p.name: p
    for p in (
        MethodProfile("finetune"),
        MethodProfile("replay", replay_payload=LATENT),
        MethodProfile("replay+kd", LossWeights(gamma_d=0.3), distill_form="logit", replay_payload=LATENT),
        MethodProfile("distill", LossWeights(gamma_d=1.0), distill_form="logit"),
        MethodProfile("rebalance", LossWeights(gamma_d=0.5, gamma_m=0.1), distill_form="feature"),
        MethodProfile(
            "rebalance-cosfc", LossWeights(gamma_d=0.5, gamma_m=0.1), distill_form="feature", head_variant=COSFC
        ),
    )
}
_WEIGHT_SETTINGS = frozenset(f.name for f in fields(LossWeights))
_PROFILE_SETTINGS = frozenset(f.name for f in fields(MethodProfile)) - {"name", "weights", "head_variant", "aggregation"}


def builtin_profiles() -> list[str]:
    return sorted(_BASE_PROFILES)


def resolve_profile(name: str, system: str, aggregation: str | None = None, **overrides) -> MethodProfile:
    """Bind a named profile to a learning system, with ``overrides`` of its
    loss weights (``LossWeights`` fields) and of its other settings
    (``MethodProfile`` fields but the head and the rule, so that its ``system``
    is ``system``); BC swaps in the sigmoid head and drops the margin term,
    MT picks an aggregation rule (SumLogit unless given)."""
    if name not in _BASE_PROFILES:
        raise ConfigError(f"unknown profile {name!r}; known: {', '.join(builtin_profiles())}")
    if system not in SYSTEMS:
        raise ConfigError(f"unknown learning system {system!r}; known: {', '.join(SYSTEMS)}")
    for key in overrides:
        if key not in _WEIGHT_SETTINGS | _PROFILE_SETTINGS:
            raise ConfigError(f"unknown profile setting {key!r}")
    if aggregation is not None and system != MT:
        raise ConfigError("aggregation rules apply to the multi-task system only")
    weights = {k: v for k, v in overrides.items() if k in _WEIGHT_SETTINGS}
    settings = {k: v for k, v in overrides.items() if k in _PROFILE_SETTINGS}
    if system == BC:
        weights["gamma_m"] = 0.0
        settings["head_variant"] = SIGMOID
    if system == MT:
        settings["aggregation"] = SUMLOGIT if aggregation is None else aggregation
    base = _BASE_PROFILES[name]
    return replace(base, weights=replace(base.weights, **weights), **settings)


# ---------------------------------------------------------------------------
# session training


def _class_targets(registry, task_id: int, polarity: np.ndarray) -> np.ndarray:
    return registry.class_of(task_id, REAL) + polarity.astype(np.intp)


def _plan_session(
    model: Model,
    memory: ExemplarMemory | None,
    session: SessionData,
    profile: MethodProfile,
    head_rng: np.random.Generator,
) -> StepRows:
    """Check the session against the live model, borrow the memory's rows,
    take their constants, expand its head (drawing from ``head_rng``),
    freeze the layers latent replay needs fixed, and build the session's
    rows: the new rows, then every stored exemplar with its constants.

    The memory holds no rows once this returns: the session's rows after
    the first ``n_new`` are their only copy, which ``run_session`` hands
    back when training ends. If this raises, the memory has them back.

    Once latent replay has frozen the layers up to the capture layer, each
    new row's activation there is fixed for the session: it is computed
    once, and the new rows enter there, as the replayed latents do."""
    if model.head.variant != profile.head_variant:
        raise ConfigError(
            f"model head {model.head.variant!r} does not match profile {profile.head_variant!r}"
        )

    latent = memory is not None and memory.payload_kind == LATENT
    payloads = ex = None
    if memory is not None and memory.total():
        payloads, ex_classes = memory.lend()
    try:
        if payloads is not None:
            # distillation covers the replayed rows only, towards the outputs of
            # the model before this session: the live model, read before its
            # head expands or its layers freeze
            if profile.weights.gamma_d > 0:
                ex = snapshot_constants(model, payloads, ex_classes, profile.weights.T, profile.distill_form, latent)
            else:
                ex = ReplayConstants(ex_classes)

        if model.head.variant == SIGMOID:
            model.head.register_task(session.task_id)
        else:
            model.head.expand(session.task_id, head_rng)
        registry = model.head.registry

        ext = model.extractor
        if latent and len(registry.tasks) > 1:
            # latent replay keeps stored activations valid (and saves the
            # backward pass) by freezing the layers below the capture layer
            # once the first session has shaped them
            ext.frozen = ext.capture_layer + 1
        if payloads is not None and latent != (ext.frozen > ext.capture_layer):
            raise ProtocolError("latent replay needs the layers below the capture layer frozen")

        classes = _class_targets(registry, session.task_id, session.train.y)
        return step_rows(model, session.train.x, classes, payloads, ex, profile.label_smooth_eps)
    except BaseException:
        if payloads is not None:
            memory.take_back(payloads)
        raise


def _epoch_order(perm: np.ndarray, n_new: int, batch_size: int) -> np.ndarray:
    """An epoch's row order from its permutation ``perm`` of the session's
    rows (indices below ``n_new`` are new rows, the rest replayed ones): cut
    into step windows of ``batch_size`` rows, each window holds its new rows
    first, then its replayed rows, each in permutation order."""
    window = np.arange(perm.size) // batch_size * 2
    return perm[np.argsort(window + (perm >= n_new), kind="stable")]


def _regather(rows: StepRows, held: np.ndarray, order: np.ndarray, batch_size: int) -> list[tuple[int, int, int, int]]:
    """Rearrange ``rows`` in place, whose position i holds the session's
    row ``held[i]``, into the epoch's ``order`` (``_epoch_order``), and
    return its windows of ``batch_size`` rows as ``(start, stop, n_new,
    at)``: rows ``start`` to ``stop``, the first ``n_new`` of them new, the
    replayed ones' constants ``rows.ex``'s rows from ``at`` on.

    The replayed rows' constants follow the replayed rows' order, so each
    window's are one run. Each array is gathered alone and replaces its old
    one before the next, so the rows are held once, plus one array. The rows
    go last: until this returns, ``held`` names their arrangement, by which
    a session that raises hands the memory's rows back."""
    rel = np.argsort(held)[order]  # argsort of an arrangement is its inverse
    replayed = order >= rows.n_new
    if rows.ex is not None:
        rows.ex = rows.ex.take((np.cumsum(held >= rows.n_new) - 1)[rel[replayed]])
    rows.targets = rows.targets.take(rel, axis=0)
    starts = np.arange(0, order.size, batch_size)
    stops = np.minimum(starts + batch_size, order.size)
    n_ex = np.add.reduceat(replayed, starts)
    ats = np.cumsum(n_ex) - n_ex
    windows = list(zip(starts.tolist(), stops.tolist(), (stops - starts - n_ex).tolist(), ats.tolist()))
    rows.x = rows.x.take(rel, axis=0)
    return windows


def _assemble_batches(
    rows: StepRows,
    window: tuple[int, int, int, int],
    profile: MethodProfile,
    mixup_rng: np.random.Generator,
) -> StepRows:
    """The step over one ``window`` of the rows as ``_regather`` laid them
    out: views of its rows and of its replayed rows' constants, or, when
    the profile asks for mixup, a copy of its rows with the new ones mixed."""
    start, stop, n_new, at = window
    x, targets = rows.x[start:stop], rows.targets[start:stop]
    if profile.mixup_alpha > 0 and n_new > 1:
        x, targets = x.copy(), targets.copy()
        partner = mixup_rng.permutation(n_new)
        lam = float(mixup_rng.beta(profile.mixup_alpha, profile.mixup_alpha))
        for block in (x, targets):
            block[:n_new] = lam * block[:n_new] + (1.0 - lam) * block[partner]
    n_ex = stop - start - n_new
    return StepRows(x, n_new, targets, rows.ex.take(slice(at, at + n_ex)) if n_ex else None)


def run_session(
    model: Model,
    memory: ExemplarMemory | None,
    session: SessionData,
    profile: MethodProfile,
    config: TrainConfig,
) -> None:
    """One incremental step: take the replayed rows' constants, expand, fit
    on new plus replayed data, then select exemplars for the new classes
    and rebalance all quotas."""
    lr = config.lr if not model.head.registry.tasks else config.lr / 10.0
    batching_rng = substream(config.seed, f"batch:{session.task_id}")
    mixup_rng = substream(config.seed, f"mixup:{session.task_id}")
    head_rng = substream(config.seed, f"head:{session.task_id}")

    epoch, rows, step = 0, None, None
    try:
        rows = _plan_session(model, memory, session, profile, head_rng)
        n_rows, batch_size = rows.x.shape[0], config.batch_size
        held = np.arange(n_rows)
        optimizer = Adam(model, lr=lr)
        for epoch in range(config.epochs):
            order = _epoch_order(batching_rng.permutation(n_rows), rows.n_new, batch_size)
            step = None  # its views would keep the arrays that the regather replaces
            windows = _regather(rows, held, order, batch_size)
            held = order
            for window in windows:
                step = _assemble_batches(rows, window, profile, mixup_rng)
                loss_and_gradients(step, model, profile.weights, optimizer.grads, rule=profile.aggregation)
                optimizer.step()
    except NumericsError as exc:
        raise NumericsError(f"session {session.task_id}, epoch {epoch}: {exc}") from exc
    finally:
        if rows is not None and rows.ex is not None:
            # the memory's rows, in stored order: session row i is x's row argsort(held)[i]
            memory.take_back(rows.x.take(np.argsort(held)[rows.n_new :], axis=0))
    rows = step = None  # the session's rows go before the memory stores new ones

    if memory is not None:
        _store_exemplars(model, memory, session)
        memory.rebalance(len(model.head.registry))


def _store_exemplars(model, memory, session) -> None:
    registry = model.head.registry
    cap = -(-memory.budget // len(registry))  # ceil; rebalance trims the rest
    for polarity in (REAL, FAKE):
        rows = session.train.x[session.train.y == polarity]
        m = min(rows.shape[0], cap)
        if m < 1:
            continue
        order = herd_select(model.extractor.forward(rows), m)
        payloads = capture(model.extractor, rows[order], memory.payload_kind)
        memory.add_class(registry.class_of(session.task_id, polarity), payloads)


# ---------------------------------------------------------------------------
# scenario runner


def _evaluate(
    model: Model, system: str, split, logged: bool
) -> tuple[float, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Accuracy and predicted polarity on ``split``; the fake scores and
    predicted classes too when the predictions are ``logged`` (None else)."""
    _, logits = model.forward(split.x)
    pred_pol = predict_binary(model.head, logits)
    accuracy = float(np.mean(pred_pol == split.y))
    if not logged:
        return accuracy, pred_pol, None, None
    scores = fake_score(model.head, logits)
    pred_cls = predict_class(logits) if system != BC else None
    return accuracy, pred_pol, scores, pred_cls


def run_scenario_over_sessions(
    sessions: list[SessionData],
    warmup: SessionData | None,
    budget: int,
    profile: MethodProfile,
    config: TrainConfig,
    system: str,
) -> RunRecord:
    """Train through the stream in order, filling column j of the accuracy
    matrix after session j; the warm-up session, column -1, is never evaluated.
    The profile must be bound to ``system``, and every session, the warm-up
    too, needs its own task and the same width."""
    if system != profile.system:
        raise ConfigError(f"profile {profile.name!r} is bound to system {profile.system!r}, not {system!r}")
    ordered = ([warmup] if warmup is not None else []) + sessions
    task_ids = [s.task_id for s in ordered]
    if len(set(task_ids)) != len(task_ids):
        raise ProtocolError("duplicate task in scenario")
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
    memory_totals = []
    for j, session in enumerate(ordered, start=n - len(ordered)):
        run_session(model, memory, session, profile, config)
        memory_totals.append(memory.total() if memory is not None else 0)
        for i in range(j + 1):
            accuracy, pred_pol, scores, pred_cls = _evaluate(model, system, sessions[i].test, j == n - 1)
            matrix[i, j] = accuracy
            if j == n - 1:
                split = sessions[i].test
                true_cls = _class_targets(model.head.registry, sessions[i].task_id, split.y) if system != BC else None
                logs[sessions[i].task_id] = PredictionLog(
                    record_ids=[f"{sessions[i].task_id}-test-{k}" for k in range(len(split))],
                    true_polarity=split.y.copy(),
                    pred_polarity=pred_pol,
                    p_fake=scores,
                    true_class=true_cls,
                    pred_class=pred_cls,
                )
    return RunRecord(matrix, logs, memory_totals, model, memory)

