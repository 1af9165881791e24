"""The tape-free training step against the tape.

``losses.loss_and_gradients`` must give every trainable parameter exactly
the gradient that ``total_loss(...).backward()`` stores on it, bit for bit,
and the same loss value to 1e-15 relative. Steps come from the session plan
and the epoch layout the trainer builds, over every system, built-in
profile, head, aggregation rule (through the plan's class indices) and the
essentials (logit+feature distillation, label smoothing, mixup).
"""

import numpy as np
import pytest
from conftest import tiny_scenario

from cddet import losses as ls
from cddet.losses import AGG_RULES, MAX, SUMFEAT, SUMLOG, SUMLOGIT
from cddet.memory import LATENT, ExemplarMemory
from cddet.model import BC, MC, MT, Model
from cddet.seeding import substream
from cddet.stream import synth_generate
from cddet.trainer import (
    Adam,
    SessionRows,
    TrainConfig,
    _assemble_batches,
    _plan_session,
    builtin_profiles,
    resolve_profile,
    run_session,
)

FAST = TrainConfig(epochs=1, lr=1e-3, batch_size=16, seed=5)
N_TASKS = 5  # four trained sessions leave eight old classes, enough for numpy's
# pairwise row sums, which a one-row batch sums in another order


def _cases():
    for system in (BC, MC, MT):
        for name in builtin_profiles():
            for rule in AGG_RULES if system == MT else (None,):
                yield system, name, {"aggregation": rule}
    yield BC, "distill", {"distill_form": "logit+feature"}
    yield MC, "rebalance", {"distill_form": "logit+feature"}
    yield MT, "rebalance-cosfc", {"aggregation": MAX, "distill_form": "logit+feature"}
    yield MC, "replay+kd", {"distill_form": "logit+feature", "label_smooth_eps": 0.1}
    yield MT, "rebalance", {"aggregation": SUMLOG, "label_smooth_eps": 0.1}
    yield MC, "distill", {"mixup_alpha": 0.4}
    yield MT, "rebalance", {"aggregation": SUMFEAT, "label_smooth_eps": 0.1, "mixup_alpha": 0.4}
    yield MT, "rebalance-cosfc", {"aggregation": SUMLOGIT, "mixup_alpha": 0.4}
    yield MT, "rebalance", {"aggregation": SUMLOGIT, "lam": 0.0}  # the plain multi-class loss
    yield MC, "rebalance", {"J": 0}  # margin ranking with no rivals adds nothing


CASES = list(_cases())


def _setup(system, name, options):
    profile = resolve_profile(name, system, **options)
    scenario = tiny_scenario(N_TASKS, seed=2)
    sessions = [synth_generate(t, scenario.seed) for t in scenario.tasks]
    model = Model.build(6, profile.head_variant, substream(2, "init"))
    memory = ExemplarMemory(40, profile.replay_payload)
    return profile, sessions, model, memory


def _tape_gradients(system, profile, batch_new, batch_ex, model, plan):
    """The reference's loss value, and its trainable leaves' gradients."""
    leaves = ls.tape_leaves(model)
    loss = ls.total_loss(
        system, batch_new, batch_ex, model, plan.snapshot, plan.weights,
        rule=profile.aggregation, distill_form=profile.distill_form, leaves=leaves,
    )
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves if leaf.requires_grad]


def _take(batch, rows):
    """The given rows of a plan's batch (its arrays are one row per sample)."""
    return ls.Batch(**{name: None if v is None else v[rows] for name, v in vars(batch).items()})


def _step_over(system, profile, model, plan, new_idx, pool_idx, rng):
    """The trainer's step over the given new and pool rows: an epoch order
    whose first window holds exactly those rows, and the tape's batches of
    the same rows (mixed as the step mixed them)."""
    n_new, n_pool = len(plan.new), len(plan.pool) if plan.pool is not None else 0
    picked = np.concatenate([new_idx, n_new + pool_idx]).astype(np.intp)
    rest = np.setdiff1d(np.arange(n_new + n_pool), picked)
    rows = SessionRows(plan, model, system, batch_size=picked.size)
    rows.shuffle(np.concatenate([picked, rest]))
    step = _assemble_batches(rows, 0, picked.size, profile, rng)
    batch_new = _take(plan.new, new_idx)
    if profile.mixup_alpha > 0:
        batch_new.x, batch_new.target_rows = step.chains[0][1][: new_idx.size], step.targets[: new_idx.size]
    batch_ex = _take(plan.pool, pool_idx) if pool_idx.size else None
    return step, batch_new, batch_ex


def _assert_step_matches_tape(system, profile, model, plan, new_rows, pool_rows, rng):
    new_idx = np.arange(new_rows.start, new_rows.stop)
    pool_idx = np.arange(pool_rows.start, pool_rows.stop)
    step, batch_new, batch_ex = _step_over(system, profile, model, plan, new_idx, pool_idx, rng)
    want_value, want = _tape_gradients(system, profile, batch_new, batch_ex, model, plan)
    optimizer = Adam(model, lr=FAST.lr)
    optimizer.g.fill(np.nan)  # a gradient the step leaves unwritten cannot match
    value = ls.loss_and_gradients(
        system, step, model, plan.weights, optimizer.grads, rule=profile.aggregation,
        distill_form=profile.distill_form, mt_classes=plan.mt_classes,
    )
    names = _parameter_names(model)[2 * model.extractor.frozen :]
    assert len(optimizer.grads) == len(want) == len(names)
    for name, got, g in zip(names, optimizer.grads, want):
        assert g is not None, f"the tape gives {name} no gradient"
        assert got.shape == g.shape, name
        assert got.tobytes() == g.tobytes(), f"{name} differs from the tape"
    assert abs(value - want_value) <= 1e-15 * abs(want_value)


def _parameter_names(model):
    """The names of ``model.parameters()``, in its order."""
    names = [f"{kind}[{i}]" for i in range(len(model.extractor.weights)) for kind in ("weights", "biases")]
    return names + ["theta", "bias" if model.head.scale is None else "scale"]


@pytest.mark.parametrize(
    "system,name,options", CASES, ids=[f"{s}-{n}-{'-'.join(f'{k}={v}' for k, v in o.items())}" for s, n, o in CASES]
)
def test_step_gradients_equal_the_tape(system, name, options):
    profile, sessions, model, memory = _setup(system, name, options)
    rng = np.random.default_rng(0)

    # the first session: no snapshot, no exemplars, every layer trains
    plan = _plan_session(model, memory, sessions[0], profile, system)
    if system == MT:  # the aggregation reads the plan's class indices
        fake_mask = model.head.registry.fake_mask()
        assert [c.tolist() for c in plan.mt_classes] == [np.flatnonzero(m).tolist() for m in (fake_mask, ~fake_mask)]
    for new_rows in (slice(0, 7), slice(3, 4)):
        _assert_step_matches_tape(system, profile, model, plan, new_rows, slice(0, 0), rng)

    # a later session: snapshot, exemplars, frozen layers under latent replay
    profile, sessions, model, memory = _setup(system, name, options)
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST, system)
    plan = _plan_session(model, memory, sessions[-1], profile, system)
    assert model.extractor.frozen == (model.extractor.capture_layer + 1 if profile.replay_payload == LATENT else 0)
    plan.pool = _take(plan.pool, rng.permutation(len(plan.pool)))
    shapes = [
        (slice(0, 6), slice(0, 0)),  # new rows only
        (slice(0, 0), slice(0, 9)),  # exemplar rows only
        (slice(2, 3), slice(0, 0)),  # one new row
        (slice(0, 0), slice(4, 5)),  # one exemplar row
        (slice(5, 6), slice(7, 8)),  # one of each
        (slice(0, 5), slice(9, 20)),  # a mixed batch
        (slice(2, 3), slice(0, 9)),  # one new row among exemplars
        (slice(0, 5), slice(4, 5)),  # one exemplar among new rows
    ]
    for new_rows, pool_rows in shapes:
        _assert_step_matches_tape(system, profile, model, plan, new_rows, pool_rows, rng)


@pytest.mark.parametrize("n_new", [1, 2, 5])
def test_new_rows_enter_at_the_capture_layer_under_latent_replay(n_new):
    """Once latent replay freezes the layers below the capture layer, the
    new rows enter there from activations computed once per session, except
    a lone new row, which is recomputed from its input: a one-row product
    rounds differently from the session-wide one."""
    profile, sessions, model, memory = _setup(MC, "replay+kd", {})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST, MC)
    plan = _plan_session(model, memory, sessions[-1], profile, MC)
    step, _, _ = _step_over(MC, profile, model, plan, np.arange(3, 3 + n_new), np.arange(4), np.random.default_rng(0))
    capture_start = model.extractor.capture_layer + 1
    assert [start for start, _ in step.chains] == [0 if n_new == 1 else capture_start, capture_start]
    _assert_step_matches_tape(MC, profile, model, plan, slice(3, 3 + n_new), slice(0, 4), np.random.default_rng(0))


def test_mixup_leaves_the_session_rows_unwritten():
    """Each step mixes its own gathered copy of its new rows."""
    profile, sessions, model, memory = _setup(MC, "distill", {"mixup_alpha": 0.4})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST, MC)
    rows = SessionRows(_plan_session(model, memory, sessions[-1], profile, MC), model, MC, batch_size=8)
    source, targets = rows.source.copy(), rows.source_targets.copy()
    rows.shuffle(np.random.default_rng(1).permutation(len(rows)))
    mixed = 0
    for start in range(0, len(rows), 8):
        step = _assemble_batches(rows, start, min(start + 8, len(rows)), profile, np.random.default_rng(start))
        gathered = source[rows.order[start : start + 8]]
        mixed += not np.array_equal(step.chains[0][1][: step.n_new], gathered[: step.n_new])
    assert mixed
    assert rows.source.tobytes() == source.tobytes()
    assert rows.source_targets.tobytes() == targets.tobytes()


def test_epoch_layout_puts_each_windows_new_rows_first():
    profile, sessions, model, memory = _setup(MT, "rebalance", {"label_smooth_eps": 0.1})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST, MT)
    plan = _plan_session(model, memory, sessions[-1], profile, MT)
    rows = SessionRows(plan, model, MT, batch_size=5)
    n_new = len(plan.new)
    x = np.concatenate([plan.new.x, plan.pool.x])
    targets = np.concatenate([plan.new.target_rows, plan.pool.target_rows])
    perm = np.random.default_rng(3).permutation(len(rows))
    rows.shuffle(perm)
    for start in range(0, len(rows), 5):
        window = perm[start : start + 5]
        order = np.concatenate([window[window < n_new], window[window >= n_new]])
        step = _assemble_batches(rows, start, min(start + 5, len(rows)), profile, np.random.default_rng(0))
        assert step.n_new == np.count_nonzero(window < n_new)
        assert np.array_equal(step.chains[0][1], x[order])
        assert np.array_equal(step.targets, targets[order])
        pool_order = window[window >= n_new] - n_new
        assert np.array_equal(step.ex.old_features, plan.pool.old_features[pool_order])
