"""The tape-free training step against the tape.

``losses.loss_and_gradients`` must give the loss value of ``total_loss(...)``
and every trainable parameter exactly the gradient that its ``.backward()``
stores on it, all bit for bit. Steps come from the session's rows and the
epoch layout the trainer builds, over every system, built-in profile, head,
aggregation rule (through the session's class indices) and the essentials
(logit+feature distillation, label smoothing, mixup).
"""

import copy
from dataclasses import replace

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
    TrainConfig,
    _assemble_batches,
    _epoch_order,
    _plan_session,
    _regather,
    builtin_profiles,
    resolve_profile,
    run_session,
)

FAST = TrainConfig(epochs=1, lr=1e-3, batch_size=16, seed=5)
N_TASKS = 5  # four trained sessions leave eight old classes to replay


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
    yield MC, "rebalance", {"J": 1}  # margin ranking against the closest rival alone


CASES = list(_cases())


def _setup(system, name, options, n_tasks=N_TASKS):
    profile = resolve_profile(name, system, **options)
    scenario = tiny_scenario(n_tasks, seed=2)
    sessions = [synth_generate(t, scenario.seed) for t in scenario.tasks]
    model = Model.build(6, profile.head_variant, substream(2, "init"))
    memory = ExemplarMemory(40, profile.replay_payload)
    return profile, sessions, model, memory


def _tape_gradients(profile, step, model, rows):
    """The reference's loss value on the step's rows, and its trainable
    leaves' gradients."""
    leaves = ls.tape_leaves(model)
    loss = ls.total_loss(step, model, profile.weights, rule=profile.aggregation, leaves=leaves)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves if leaf.requires_grad]


def _replayed_in_order(rows, perm):
    """The session's rows with its replayed rows in the order ``perm``."""
    order = np.concatenate([np.arange(rows.n_new), rows.n_new + perm])
    return replace(rows, x=rows.x[order], targets=rows.targets[order], ex=rows.ex.take(perm))


def _laid_out(rows, order, batch_size):
    """A copy of the session's rows laid out in the epoch ``order``, and its
    windows (``_regather``); ``rows`` stays as it is."""
    held = copy.deepcopy(rows)
    return held, _regather(held, np.arange(order.size), order, batch_size)


def _gathered_step(rows, idx, profile, mixup_rng):
    """The step over the session's rows ``idx``, one window of the epoch's
    order, gathered by fancy indexing from the session's layout: the
    per-step reference for the epoch layout."""
    n_new = int(np.count_nonzero(idx < rows.n_new))
    x, targets = rows.x[idx], rows.targets[idx]
    if profile.mixup_alpha > 0 and n_new > 1:
        partner = mixup_rng.permutation(n_new)
        lam = float(mixup_rng.beta(profile.mixup_alpha, profile.mixup_alpha))
        for block in (x, targets):
            block[:n_new] = lam * block[:n_new] + (1.0 - lam) * block[partner]
    ex = rows.ex.take(idx[n_new:] - rows.n_new) if rows.ex is not None and idx.size > n_new else None
    return ls.StepRows(x, n_new, targets, ex)


def _same_bytes(got, want, name):
    assert (got is None) == (want is None), name
    if want is not None:
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name


def _assert_same_rows(got, want):
    """Two ``StepRows`` hold the same bytes: rows, targets and every
    array of the replayed rows' constants."""
    assert got.n_new == want.n_new
    _same_bytes(got.x, want.x, "x")
    _same_bytes(got.targets, want.targets, "targets")
    assert (got.ex is None) == (want.ex is None)
    if want.ex is not None:
        assert got.ex.old_cols == want.ex.old_cols
        for name, value in vars(want.ex).items():
            if name != "old_cols":
                _same_bytes(getattr(got.ex, name), value, name)


def _step_over(profile, rows, new_idx, pool_idx, rng):
    """The trainer's step over the given new and replayed rows: an epoch
    order whose first window holds exactly those rows."""
    picked = np.concatenate([new_idx, rows.n_new + pool_idx]).astype(np.intp)
    rest = np.setdiff1d(np.arange(rows.x.shape[0]), picked)
    order = _epoch_order(np.concatenate([picked, rest]), rows.n_new, picked.size)
    held, windows = _laid_out(rows, order, picked.size)
    return _assemble_batches(held, windows[0], profile, rng)


def _assert_step_matches_tape(profile, model, rows, new_rows, pool_rows, rng):
    new_idx = np.arange(new_rows.start, new_rows.stop)
    pool_idx = np.arange(pool_rows.start, pool_rows.stop)
    step = _step_over(profile, rows, new_idx, pool_idx, rng)
    want_value, want = _tape_gradients(profile, step, model, rows)
    optimizer = Adam(model, lr=FAST.lr)
    optimizer.g.fill(np.nan)  # a gradient the step leaves unwritten cannot match
    value = ls.loss_and_gradients(step, model, profile.weights, optimizer.grads, rule=profile.aggregation)
    names = _parameter_names(model)[2 * model.extractor.frozen :]
    assert len(optimizer.grads) == len(want) == len(names)
    for name, got, g in zip(names, optimizer.grads, want):
        assert g is not None, f"the tape gives {name} no gradient"
        assert got.shape == g.shape, name
        assert got.tobytes() == g.tobytes(), f"{name} differs from the tape"
    assert value.hex() == want_value.hex(), "the loss value differs from the tape"


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

    # the first session: no exemplars, every layer trains
    rows = _plan_session(model, memory, sessions[0], profile, np.random.default_rng(0))
    for new_rows in (slice(0, 7), slice(3, 4)):
        _assert_step_matches_tape(profile, model, rows, new_rows, slice(0, 0), rng)

    # a later session: exemplars, their constants, frozen layers under latent replay
    _assert_last_session_matches_tape(system, name, options, N_TASKS, rng)


def _assert_last_session_matches_tape(system, name, options, n_tasks, rng):
    """Train every session but the last, then check the last one's steps."""
    profile, sessions, model, memory = _setup(system, name, options, n_tasks)
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    assert model.extractor.frozen == (model.extractor.capture_layer + 1 if profile.replay_payload == LATENT else 0)
    rows = _replayed_in_order(rows, rng.permutation(rows.x.shape[0] - rows.n_new))
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
        _assert_step_matches_tape(profile, model, rows, new_rows, pool_rows, rng)
    return profile, model


@pytest.mark.parametrize("rule", [SUMLOGIT, SUMLOG, MAX])
def test_step_gradients_equal_the_tape_at_nine_classes_a_polarity(rule):
    """numpy sums fewer than 8 elements in plain order whatever their
    memory layout, so only a polarity group of 8 or more classes shows a
    step that gathers the group in another layout than the tape."""
    rng = np.random.default_rng(0)
    profile, model = _assert_last_session_matches_tape(MT, "rebalance", {"aggregation": rule}, 9, rng)
    assert model.head.theta.shape[0] == 18


@pytest.mark.parametrize("n_new", [1, 2, 5])
def test_new_rows_enter_at_the_capture_layer_under_latent_replay(n_new):
    """Once latent replay freezes the layers below the capture layer, the
    new rows enter there, a lone new row too, as the session's capture
    activations, computed once; the replayed latents follow them."""
    profile, sessions, model, memory = _setup(MC, "replay+kd", {})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    stored = memory.all_exemplars()[0]  # the session borrows them
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    step = _step_over(profile, rows, np.arange(3, 3 + n_new), np.arange(4), np.random.default_rng(0))
    _, captured = model.extractor.forward_with_capture(sessions[-1].train.x)
    assert step.n_new == n_new
    assert step.x[:n_new].tobytes() == captured[3 : 3 + n_new].tobytes()
    assert step.x[n_new:].tobytes() == stored[:4].tobytes()
    _assert_step_matches_tape(profile, model, rows, slice(3, 3 + n_new), slice(0, 4), np.random.default_rng(0))


def test_mixup_leaves_the_held_arrays_unwritten():
    """Each step mixes its own copy of its window: neither it nor the loss
    writes the held arrays, which the next epoch regathers from."""
    profile, sessions, model, memory = _setup(MC, "distill", {"mixup_alpha": 0.4})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    n_rows = rows.x.shape[0]
    order = _epoch_order(np.random.default_rng(1).permutation(n_rows), rows.n_new, 8)
    windows = _regather(rows, np.arange(n_rows), order, 8)
    before = copy.deepcopy(rows)
    optimizer = Adam(model, lr=FAST.lr)
    mixed = 0
    for window in windows:
        start = window[0]
        step = _assemble_batches(rows, window, profile, np.random.default_rng(start))
        mixed += not np.array_equal(step.x[: step.n_new], before.x[start : start + step.n_new])
        ls.loss_and_gradients(step, model, profile.weights, optimizer.grads, rule=profile.aggregation)
        optimizer.step()
    assert mixed
    _assert_same_rows(rows, before)


def test_mixup_mixes_the_gathered_new_rows_with_a_permutation_of_themselves():
    """Under mixup a step draws a permutation of its new rows, then the
    coefficient, from its generator, and mixes its gathered new rows and
    their label rows with it; the replayed rows stay as gathered."""
    options = {"mixup_alpha": 0.4, "label_smooth_eps": 0.1}
    profile, sessions, model, memory = _setup(MC, "distill", options)
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    n_rows = rows.x.shape[0]
    order = _epoch_order(np.random.default_rng(1).permutation(n_rows), rows.n_new, 8)
    held, windows = _laid_out(rows, order, 8)
    alpha, mixed = profile.mixup_alpha, 0
    for window in windows:
        start, stop = window[:2]
        idx = order[start:stop]
        step = _assemble_batches(held, window, profile, np.random.default_rng(start))
        n_new = step.n_new
        for got, gathered in ((step.x, rows.x[idx]), (step.targets, rows.targets[idx])):
            want = gathered.copy()
            if n_new > 1:
                r = np.random.default_rng(start)
                partner = r.permutation(n_new)
                lam = float(r.beta(alpha, alpha))
                want[:n_new] = lam * gathered[:n_new] + (1 - lam) * gathered[:n_new][partner]
            assert got.tobytes() == want.tobytes()
        np.testing.assert_allclose(step.targets.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        mixed += n_new > 1
    assert mixed


# the arrays of the replayed rows' constants that each distillation form reads
DISTILLED = {
    "none": set(),
    "logit": {"kd_logp", "kd_p"},
    "feature": {"old_features", "old_norms"},
    "logit+feature": {"kd_logp", "kd_p", "old_features", "old_norms"},
}


def test_epoch_layout_puts_each_windows_new_rows_first():
    """Each step's window holds its new rows first, then its replayed rows,
    and carries exactly the constants its distillation form reads, gathered
    at its replayed rows."""
    for distill_form, distilled in DISTILLED.items():
        options = {"label_smooth_eps": 0.1, "distill_form": distill_form}
        if distill_form == "none":
            options["gamma_d"] = 0.0
        profile, sessions, model, memory = _setup(MT, "rebalance", options)
        for session in sessions[:-1]:
            run_session(model, memory, session, profile, FAST)
        x = np.concatenate([sessions[-1].train.x, memory.all_exemplars()[0]])  # the session borrows them
        rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
        n_new = rows.n_new
        assert n_new == len(sessions[-1].train.x)
        perm = np.random.default_rng(3).permutation(len(x))
        held, windows = _laid_out(rows, _epoch_order(perm, n_new, 5), 5)
        for start in range(0, len(x), 5):
            window = perm[start : start + 5]
            order = np.concatenate([window[window < n_new], window[window >= n_new]])
            step = _assemble_batches(held, windows[start // 5], profile, np.random.default_rng(0))
            assert step.n_new == np.count_nonzero(window < n_new)
            assert np.array_equal(step.x, x[order])
            assert np.array_equal(step.targets, rows.targets[order])
            pool_order = window[window >= n_new] - n_new
            if not pool_order.size:
                assert step.ex is None
                continue
            carried = {k for k, v in vars(step.ex).items() if isinstance(v, np.ndarray)}
            assert carried == distilled | {"classes"}, distill_form
            for name in carried:
                assert np.array_equal(getattr(step.ex, name), getattr(rows.ex, name)[pool_order]), name
            assert step.ex.old_cols == rows.ex.old_cols


@pytest.mark.parametrize("batch_size", [5, 7])
@pytest.mark.parametrize("system,name,options,budget", [
    (MT, "rebalance", {}, 40),  # raw replay, feature constants
    (MC, "replay+kd", {}, 40),  # latent replay, logit constants
    (MC, "distill", {"mixup_alpha": 0.4, "label_smooth_eps": 0.1}, 40),
    (BC, "distill", {}, 40),
    (MC, "finetune", {}, 0),  # no memory: every row is new
])
def test_epoch_layout_steps_equal_a_per_step_gather(system, name, options, budget, batch_size):
    """Over three epochs, each step taken as views of the rows ``_regather``
    laid out equals, byte for byte, the step gathered by fancy indexing
    from the session's layout; after each epoch, a mixup one too, the held
    arrays equal a fresh regather of the session's rows."""
    profile, sessions, model, memory = _setup(system, name, options)
    memory = memory if budget else None
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    assert (rows.ex is None) == (budget == 0)
    session_rows = copy.deepcopy(rows)
    n_rows, held = rows.x.shape[0], np.arange(rows.x.shape[0])
    assert n_rows % batch_size  # a short last window
    batching, mixing, reference_mixing = (np.random.default_rng(seed) for seed in (1, 2, 2))
    mixed = 0
    for _ in range(3):
        order = _epoch_order(batching.permutation(n_rows), rows.n_new, batch_size)
        windows = _regather(rows, held, order, batch_size)
        held = order
        assert [window[:2] for window in windows] == [
            (start, min(start + batch_size, n_rows)) for start in range(0, n_rows, batch_size)
        ]
        for window in windows:
            step = _assemble_batches(rows, window, profile, mixing)
            want = _gathered_step(session_rows, order[window[0] : window[1]], profile, reference_mixing)
            _assert_same_rows(step, want)
            mixed += profile.mixup_alpha > 0 and step.n_new > 1
        _assert_same_rows(rows, _laid_out(session_rows, order, batch_size)[0])
    assert bool(mixed) == (profile.mixup_alpha > 0)


@pytest.mark.parametrize("system,name,distill_form", [
    (MC, "replay+kd", "logit"),  # latent replay: the layers freeze in the session
    (MT, "rebalance", "feature"),
    (MC, "rebalance-cosfc", "logit+feature"),
    (BC, "distill", "logit+feature"),
])
def test_the_replayed_rows_constants_are_the_old_models_outputs(system, name, distill_form):
    """A distilling session records, on its replayed rows, what its form
    reads of the model as it was before the session: bit for bit the
    constants of a snapshot taken then, over the old logit columns."""
    profile, sessions, model, memory = _setup(system, name, {"distill_form": distill_form})
    for session in sessions[:-1]:
        run_session(model, memory, session, profile, FAST)
    payloads, classes = memory.all_exemplars()
    old = model.snapshot()
    latent = profile.replay_payload == LATENT
    want = ls.snapshot_constants(old, payloads, classes, profile.weights.T, distill_form, latent)
    rows = _plan_session(model, memory, sessions[-1], profile, np.random.default_rng(0))
    assert rows.ex.old_cols == old.head.theta.shape[0]
    if system != BC:  # the head grew after the constants were taken
        assert model.head.theta.shape[0] == rows.ex.old_cols + 2
    assert model.extractor.frozen == (old.extractor.capture_layer + 1 if latent else 0)
    for name, value in vars(want).items():
        got = getattr(rows.ex, name)
        if isinstance(value, np.ndarray):
            assert got.tobytes() == value.tobytes(), name
        else:
            assert got == value, name
