import numpy as np
import pytest
from conftest import run_scenario, tiny_scenario, tiny_spec

from cddet import trainer
from cddet.errors import ConfigError, NumericsError, ProtocolError
from cddet.losses import LossWeights, ReplayConstants, loss_and_gradients
from cddet.memory import ExemplarMemory, LATENT, RAW, quotas
from cddet.model import BC, COSFC, FAKE, LINFC, MC, MT, REAL, SIGMOID, Model, load_checkpoint, save_checkpoint
from cddet.seeding import substream
from cddet.stream import Scenario, SessionData, Split, synth_generate
from cddet.trainer import (
    Adam,
    MethodProfile,
    TrainConfig,
    _assemble_batches,
    _epoch_order,
    _evaluate,
    _plan_session,
    _regather,
    _store_exemplars,
    builtin_profiles,
    resolve_profile,
    run_session,
)


FAST = TrainConfig(epochs=2, lr=1e-3, batch_size=16, seed=3)


class TestAdam:
    def test_three_steps_match_a_textbook_adam(self):
        rng = np.random.default_rng(0)
        model = Model.build(6, COSFC, rng, hidden=(5,), feature_width=4)
        model.head.expand(1, rng)
        lr, beta1, beta2, eps = 0.01, 0.9, 0.999, 1e-8
        want = [p.copy() for p in model.parameters()]
        m = [np.zeros_like(p) for p in want]
        v = [np.zeros_like(p) for p in want]
        optimizer = Adam(model, lr=lr)
        for t in range(1, 4):
            grads = [rng.normal(size=p.shape) for p in want]
            for buffer, g in zip(optimizer.grads, grads):
                buffer[...] = g
            optimizer.step()
            for i, g in enumerate(grads):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g**2
                m_hat, v_hat = m[i] / (1 - beta1**t), v[i] / (1 - beta2**t)
                want[i] = want[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        for p, expected in zip(model.parameters(), want):
            np.testing.assert_allclose(p, expected, rtol=1e-12, atol=0)

    def test_a_frozen_prefix_stays_out_and_unchanged(self):
        rng = np.random.default_rng(1)
        model = Model.build(6, LINFC, rng, hidden=(5, 5), feature_width=4)
        model.head.expand(1, rng)
        model.extractor.frozen = 2
        params = model.parameters()
        frozen = [p.copy() for p in params[:4]]
        optimizer = Adam(model, lr=0.01)
        assert model.parameters()[:4] == params[:4]  # the same arrays, not rebound
        assert optimizer.flat.size == sum(p.size for p in params[4:])
        assert not any(np.shares_memory(p, optimizer.flat) for p in params[:4])
        assert all(np.shares_memory(p, optimizer.flat) for p in model.parameters()[4:])
        for _ in range(3):
            for buffer in optimizer.grads:
                buffer[...] = rng.normal(size=buffer.shape)
            optimizer.step()
        for p, before in zip(model.parameters()[:4], frozen):
            assert p.tobytes() == before.tobytes()
        assert not np.array_equal(model.parameters()[4], params[4])

    @pytest.mark.parametrize("system, name", [(MC, "replay+kd"), (MT, "replay"), (BC, "replay+kd")])
    def test_every_gradient_slot_is_written(self, system, name):
        """A step writes every trainable gradient: on a first session, and on
        a later one in which latent replay has frozen the bottom layers."""
        profile = resolve_profile(name, system)
        sessions = [synth_generate(t, 4) for t in tiny_scenario(2, seed=4).tasks]

        def fresh():
            return Model.build(6, profile.head_variant, substream(4, "init")), ExemplarMemory(20, LATENT)

        def nan_filled_step(model, memory, session):
            rows = _plan_session(model, memory, session, profile, np.random.default_rng(0))
            order = _epoch_order(np.random.default_rng(0).permutation(rows.x.shape[0]), rows.n_new, 16)
            windows = _regather(rows, np.arange(order.size), order, 16)
            step = _assemble_batches(rows, windows[0], profile, np.random.default_rng(0))
            optimizer = Adam(model, lr=FAST.lr)
            optimizer.g.fill(np.nan)
            loss_and_gradients(step, model, profile.weights, optimizer.grads, rule=profile.aggregation)
            assert not np.isnan(optimizer.g).any()
            return model.extractor.frozen

        assert nan_filled_step(*fresh(), sessions[0]) == 0
        model, memory = fresh()
        run_session(model, memory, sessions[0], profile, FAST)
        assert nan_filled_step(model, memory, sessions[1]) == model.extractor.capture_layer + 1


class TestProfiles:
    def test_builtin_names(self):
        names = builtin_profiles()
        for required in ("finetune", "replay", "replay+kd", "distill", "rebalance"):
            assert required in names

    def test_distill_profile_mc(self):
        p = resolve_profile("distill", MC)
        assert p.weights.gamma_m == 0.0
        assert p.weights.gamma_d == 1.0
        assert p.weights.T == 1.0
        assert p.replay_payload == RAW

    def test_rebalance_defaults(self):
        p = resolve_profile("rebalance", MC)
        assert p.weights.tau == 0.2
        assert p.weights.J == 2
        assert p.weights.gamma_d == 0.5
        assert p.weights.gamma_m == 0.1
        assert p.distill_form == "feature"

    def test_replay_has_no_distillation(self):
        p = resolve_profile("replay", MC)
        assert p.distill_form == "none"
        assert p.weights.gamma_d == 0.0
        assert p.weights.gamma_m == 0.0
        assert p.replay_payload == LATENT

    def test_replay_kd_factor(self):
        p = resolve_profile("replay+kd", MC)
        assert p.weights.gamma_d == 0.3
        assert p.distill_form == "logit"

    def test_bc_resolution_forces_sigmoid_and_drops_margin(self):
        p = resolve_profile("rebalance", BC)
        assert p.head_variant == SIGMOID
        assert p.weights.gamma_m == 0.0

    def test_mt_resolution_sets_rule(self):
        assert resolve_profile("distill", MT).aggregation == "sumlogit"
        assert resolve_profile("distill", MT, aggregation="max").aggregation == "max"
        assert resolve_profile("distill", MC).aggregation is None

    def test_unknown_profile(self):
        with pytest.raises(ConfigError):
            resolve_profile("dream", MC)

    # (gamma_d, gamma_m, distill_form, replay_payload, head_variant, aggregation)
    # of each built-in profile on each system
    RESOLVED = {
        ("distill", BC): (1.0, 0.0, "logit", RAW, SIGMOID, None),
        ("distill", MC): (1.0, 0.0, "logit", RAW, LINFC, None),
        ("distill", MT): (1.0, 0.0, "logit", RAW, LINFC, "sumlogit"),
        ("finetune", BC): (0.0, 0.0, "none", RAW, SIGMOID, None),
        ("finetune", MC): (0.0, 0.0, "none", RAW, LINFC, None),
        ("finetune", MT): (0.0, 0.0, "none", RAW, LINFC, "sumlogit"),
        ("rebalance", BC): (0.5, 0.0, "feature", RAW, SIGMOID, None),
        ("rebalance", MC): (0.5, 0.1, "feature", RAW, LINFC, None),
        ("rebalance", MT): (0.5, 0.1, "feature", RAW, LINFC, "sumlogit"),
        ("rebalance-cosfc", BC): (0.5, 0.0, "feature", RAW, SIGMOID, None),
        ("rebalance-cosfc", MC): (0.5, 0.1, "feature", RAW, COSFC, None),
        ("rebalance-cosfc", MT): (0.5, 0.1, "feature", RAW, COSFC, "sumlogit"),
        ("replay", BC): (0.0, 0.0, "none", LATENT, SIGMOID, None),
        ("replay", MC): (0.0, 0.0, "none", LATENT, LINFC, None),
        ("replay", MT): (0.0, 0.0, "none", LATENT, LINFC, "sumlogit"),
        ("replay+kd", BC): (0.3, 0.0, "logit", LATENT, SIGMOID, None),
        ("replay+kd", MC): (0.3, 0.0, "logit", LATENT, LINFC, None),
        ("replay+kd", MT): (0.3, 0.0, "logit", LATENT, LINFC, "sumlogit"),
    }

    def test_every_builtin_profile_resolves_on_every_system(self):
        """Every field of each resolved profile; lambda, T, tau, J and the
        essentials are at their defaults for all of them."""
        assert sorted(self.RESOLVED) == [(n, s) for n in builtin_profiles() for s in (BC, MC, MT)]
        for (name, system), (gamma_d, gamma_m, form, payload, head, rule) in self.RESOLVED.items():
            weights = LossWeights(gamma_d=gamma_d, gamma_m=gamma_m, lam=0.3, T=1.0, tau=0.2, J=2)
            want = MethodProfile(name, weights, form, payload, head, rule, label_smooth_eps=0.0, mixup_alpha=0.0)
            assert resolve_profile(name, system) == want, (name, system)
            assert resolve_profile(name, system).system == system, (name, system)

    @pytest.mark.parametrize("setting", ["label_smooth", "head", "weights"])
    def test_unknown_setting_is_named(self, setting):
        with pytest.raises(ConfigError, match=f"unknown profile setting '{setting}'"):
            resolve_profile("distill", MC, **{setting: 0.1})

    @pytest.mark.parametrize("system", [BC, MC, MT])
    def test_the_head_is_no_override(self, system):
        """The head and the rule say the system, so no override sets the head:
        a profile resolved on a system is that system's."""
        head = LINFC if system == BC else SIGMOID
        with pytest.raises(ConfigError, match="^unknown profile setting 'head_variant'$"):
            resolve_profile("distill", system, head_variant=head)

    @pytest.mark.parametrize("system", [BC, MC])
    def test_aggregation_needs_the_multi_task_system(self, system):
        with pytest.raises(ConfigError, match="^aggregation rules apply to the multi-task system only$"):
            resolve_profile("distill", system, aggregation="max")

    def test_an_aggregation_on_a_sigmoid_head_is_rejected(self):
        """A profile's system is defined by its head and its rule: a rule
        makes MT, which the sigmoid head cannot serve."""
        with pytest.raises(ConfigError, match="^aggregation rules apply to the multi-task system only$"):
            MethodProfile("bad", head_variant=SIGMOID, aggregation="max")

    def test_the_rival_bound_holds_only_with_a_margin_term(self):
        assert resolve_profile("distill", MC, J=4).weights.J == 4
        with pytest.raises(ConfigError, match="ranks at most 3 rivals; J = 4"):
            resolve_profile("rebalance", MC, J=4)

    def test_a_zero_temperature_is_rejected(self):
        with pytest.raises(ConfigError, match="^temperature must be positive$"):
            LossWeights(T=0.0)

    @pytest.mark.parametrize("setting", [{"label_smooth_eps": 0.1}, {"mixup_alpha": 0.4}], ids=["eps", "mixup"])
    def test_a_sigmoid_head_takes_neither_smoothing_nor_mixup(self, setting):
        with pytest.raises(ConfigError, match="^a sigmoid head takes no label_smooth_eps or mixup_alpha$"):
            MethodProfile("bad", head_variant=SIGMOID, **setting)

    def test_mixup_with_latent_replay_rejected(self):
        with pytest.raises(ConfigError):
            MethodProfile(name="bad", replay_payload=LATENT, mixup_alpha=0.2)

    def test_epochs_zero_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)


def fresh_setup(system=MC, profile_name="distill", budget=40, seed=3, scenario=None):
    scenario = scenario or tiny_scenario(2, seed=seed)
    profile = resolve_profile(profile_name, system)
    model = Model.build(6, profile.head_variant, substream(seed, "init"))
    memory = ExemplarMemory(budget, profile.replay_payload) if budget else None
    sessions = [synth_generate(t, scenario.seed) for t in scenario.tasks]
    return model, memory, sessions, profile


class TestRunSession:
    def test_first_session_without_snapshot_trains(self):
        model, memory, sessions, profile = fresh_setup()
        assert profile.weights.gamma_d > 0
        run_session(model, memory, sessions[0], profile, FAST)
        assert model.head.registry.tasks == [1]
        assert memory.total() > 0

    def test_a_polarity_of_one_train_row_is_stored(self):
        """A class's share of the budget is at least one row, so a polarity
        with a single train row keeps that row as its one exemplar."""
        model, memory, sessions, _ = fresh_setup()
        train = sessions[0].train
        keep = train.y == FAKE
        keep[np.flatnonzero(train.y == REAL)[0]] = True
        session = SessionData(sessions[0].task_id, Split(train.x[keep], train.y[keep]), sessions[0].test)
        model.head.expand(session.task_id, np.random.default_rng(0))
        _store_exemplars(model, memory, session)
        stored = memory.classes[model.head.registry.class_of(session.task_id, REAL)]
        assert stored.tobytes() == train.x[train.y == REAL][:1].tobytes()

    def test_duplicate_task_rejected(self):
        model, memory, sessions, profile = fresh_setup()
        run_session(model, memory, sessions[0], profile, FAST)
        with pytest.raises(ProtocolError):
            run_session(model, memory, sessions[0], profile, FAST)

    def test_head_profile_mismatch(self):
        model, memory, sessions, _ = fresh_setup(system=MC)
        bc_profile = resolve_profile("distill", BC)
        with pytest.raises(ConfigError):
            run_session(model, memory, sessions[0], bc_profile, FAST)

    def test_seeded_runs_bitwise_identical(self):
        results = []
        for _ in range(2):
            model, memory, sessions, profile = fresh_setup()
            run_session(model, memory, sessions[0], profile, FAST)
            run_session(model, memory, sessions[1], profile, FAST)
            results.append(np.concatenate([p.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(results[0], results[1])

    def test_budget_invariant_after_each_session(self):
        model, memory, sessions, profile = fresh_setup(budget=10)
        for s in sessions:
            run_session(model, memory, s, profile, FAST)
            assert memory.total() <= memory.budget

    def test_bc_session_trains_single_unit(self):
        model, memory, sessions, profile = fresh_setup(system=BC)
        run_session(model, memory, sessions[0], profile, FAST)
        assert model.head.theta.shape[0] == 1
        assert model.head.registry.tasks == [1]

    def test_a_snapshot_is_taken_only_to_distil_replayed_rows(self, monkeypatch):
        """Distillation covers the replayed rows only: with no memory, or
        with gamma_d = 0 (the margin term alone), no session runs the old
        model over its replayed rows."""

        def forbidden(*args):
            raise AssertionError("a session took constants it does not read")

        monkeypatch.setattr(trainer, "snapshot_constants", forbidden)
        scenario = tiny_scenario(3, seed=3)
        for name, budget, options in (("distill", 0, {}), ("rebalance", 40, {"gamma_d": 0.0, "distill_form": "none"})):
            model, memory, sessions, _ = fresh_setup(profile_name=name, budget=budget, scenario=scenario)
            profile = resolve_profile(name, MC, **options)
            for session in sessions:
                run_session(model, memory, session, profile, FAST)
            assert len(model.head.registry.tasks) == len(sessions)

    def test_a_distilling_replay_run_snapshots_once_a_later_session(self, monkeypatch):
        """Each later session takes its replayed rows' constants once, from
        the live model before the session changes it."""
        taken = []
        constants = trainer.snapshot_constants

        def counted(model, *args):
            taken.append((len(model.head.registry.tasks), model.head.theta.shape[0]))
            return constants(model, *args)

        monkeypatch.setattr(trainer, "snapshot_constants", counted)
        model, memory, sessions, profile = fresh_setup(profile_name="rebalance", scenario=tiny_scenario(3, seed=3))
        for session in sessions:
            run_session(model, memory, session, profile, FAST)
        assert taken == [(1, 2), (2, 4)]

    @pytest.mark.parametrize("name", ["replay+kd", "rebalance"])
    def test_a_distilling_replay_session_copies_no_model(self, monkeypatch, name):
        """A run reads the old model's outputs from the live model: no
        session, distilling or not, takes a ``Model.snapshot``."""
        model, memory, sessions, profile = fresh_setup(profile_name=name, scenario=tiny_scenario(3, seed=3))

        def forbidden(self):
            raise AssertionError("a session copied the model")

        monkeypatch.setattr(Model, "snapshot", forbidden)
        for session in sessions:
            run_session(model, memory, session, profile, FAST)
        assert profile.weights.gamma_d > 0 and memory.total() > 0

    def test_latent_replay_profile(self):
        model, memory, sessions, profile = fresh_setup(profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST)
        run_session(model, memory, sessions[1], profile, FAST)
        assert memory.payload_kind == LATENT
        payloads, _ = memory.all_exemplars()
        assert payloads.shape[1] == model.extractor.latent_width


def _stored(memory):
    """Each stored class's row shape and bytes."""
    return {c: (rows.shape, rows.tobytes()) for c, rows in memory.classes.items()}


LENDING_CASES = [
    pytest.param(MC, "rebalance", {}, 30, id="raw-replay"),
    pytest.param(MC, "replay+kd", {}, 30, id="latent-replay"),
    pytest.param(MC, "distill", {"mixup_alpha": 0.4}, 30, id="mixup"),
    pytest.param(MC, "replay", {}, 3, id="a-class-of-no-rows"),
    pytest.param(MT, "replay", {}, 1000, id="latent-budget-above-the-data"),
    pytest.param(BC, "distill", {}, 1000, id="raw-budget-above-the-data"),
]


class TestLending:
    """A session borrows the memory's rows: while it trains, the session's
    rows hold the only copy of them, and when it ends, whether it returns
    or raises, the memory holds them again bit for bit."""

    @staticmethod
    def _trained(system, name, options, budget):
        """A setup whose memory holds the first two sessions' classes, and
        the session that replays them."""
        profile = resolve_profile(name, system, **options)
        sessions = [synth_generate(t, 5) for t in tiny_scenario(3, seed=5).tasks]
        model = Model.build(6, profile.head_variant, substream(5, "init"))
        memory = ExemplarMemory(budget, profile.replay_payload)
        for session in sessions[:2]:
            run_session(model, memory, session, profile, FAST)
        return model, memory, sessions[2], profile

    @pytest.mark.parametrize("system, name, options, budget", LENDING_CASES)
    def test_the_memory_holds_no_rows_while_the_session_trains(self, monkeypatch, system, name, options, budget):
        model, memory, session, profile = self._trained(system, name, options, budget)
        planned, steps = [], []

        def plan(*args):
            planned.append(_plan_session(*args))
            return planned[-1]

        def step(*args, **kwargs):
            steps.append(memory.total())
            assert not any(np.shares_memory(rows, planned[0].x) for rows in memory.classes.values())
            return loss_and_gradients(*args, **kwargs)

        monkeypatch.setattr(trainer, "_plan_session", plan)
        monkeypatch.setattr(trainer, "loss_and_gradients", step)
        run_session(model, memory, session, profile, FAST)
        assert planned[0].ex is not None and steps and not any(steps)

    @pytest.mark.parametrize("system, name, options, budget", LENDING_CASES)
    def test_each_old_class_keeps_a_prefix_of_its_rows(self, system, name, options, budget):
        """Below the data the new classes' quotas trim the old ones; above
        it every old row stays."""
        model, memory, session, profile = self._trained(system, name, options, budget)
        before = _stored(memory)
        run_session(model, memory, session, profile, FAST)
        quota = quotas(budget, len(model.head.registry))
        for c, (shape, data) in before.items():
            rows = memory.classes[c]
            assert rows.shape == (min(shape[0], quota[c]), shape[1]) and rows.dtype == np.float64
            assert rows.tobytes() == data[: rows.nbytes], f"class {c}"

    @pytest.mark.parametrize("fails_in", ["plan", "step", "regather", "head"])
    @pytest.mark.parametrize("system, name, options, budget", LENDING_CASES)
    def test_a_session_that_raises_leaves_the_memory_as_it_was(
        self, monkeypatch, system, name, options, budget, fails_in
    ):
        """The step raises at its fifth call, with the session's rows in an
        epoch's order; the regather as it gathers the second epoch's
        constants, after the first epoch's steps; the plan raises as it
        stacks the session's rows, and the head when the session's task is
        already registered."""
        model, memory, session, profile = self._trained(system, name, options, budget)
        before = _stored(memory)
        calls = []

        def failing(*args, **kwargs):
            calls.append(1)
            if fails_in == "plan" or len(calls) > 4:
                raise NumericsError("injected")
            return loss_and_gradients(*args, **kwargs)

        take = ReplayConstants.take

        def failing_take(ex, idx):
            if not isinstance(idx, slice):  # the regather's gather, not a step's window
                calls.append(1)
                if len(calls) > 1:
                    raise MemoryError("injected")
            return take(ex, idx)

        if fails_in == "head":
            session = SessionData(1, session.train, session.test)
        elif fails_in == "regather":
            monkeypatch.setattr(ReplayConstants, "take", failing_take)
        else:
            monkeypatch.setattr(trainer, "step_rows" if fails_in == "plan" else "loss_and_gradients", failing)
        raised = {"head": ProtocolError, "regather": MemoryError}.get(fails_in, NumericsError)
        with pytest.raises(raised):
            run_session(model, memory, session, profile, FAST)
        assert _stored(memory) == before


class TestRunScenario:
    def test_single_task_matrix(self):
        scenario = tiny_scenario(1, seed=5)
        record = run_scenario(scenario, 40, resolve_profile("finetune", MC), FAST, MC)
        assert record.matrix.shape == (1, 1)
        assert 0.0 <= record.matrix[0, 0] <= 1.0

    def test_matrix_upper_triangular(self):
        scenario = tiny_scenario(3, seed=6)
        record = run_scenario(scenario, 40, resolve_profile("replay", MC), FAST, MC)
        n = 3
        for i in range(n):
            for j in range(n):
                if i <= j:
                    assert np.isfinite(record.matrix[i, j])
                else:
                    assert np.isnan(record.matrix[i, j])

    def test_diagonal_meets_majority_floor(self):
        """Each task, trained for real, is learnt in its own session, on
        every one of twelve scenarios: ``FAST`` leaves the diagonal near
        chance, so these runs train 20 epochs at lr 1e-2."""
        config = TrainConfig(epochs=20, lr=1e-2, batch_size=16, seed=3)
        for seed in range(12):
            record = run_scenario(tiny_scenario(2, seed=seed), 40, resolve_profile("replay", MC), config, MC)
            assert np.diag(record.matrix).min() >= 0.75, f"scenario seed {seed}"

    def test_final_session_logs_cover_each_test_record_once(self):
        scenario = tiny_scenario(2, seed=8)
        record = run_scenario(scenario, 40, resolve_profile("replay", MC), FAST, MC)
        assert list(record.logs) == [spec.task_id for spec in scenario.tasks]
        for spec, log in zip(scenario.tasks, record.logs.values()):
            assert len(log.record_ids) == 2 * spec.n_test
            assert len(set(log.record_ids)) == len(log.record_ids)

    def test_duplicate_tasks_rejected(self):
        spec = tiny_spec(1, 0)
        scenario = Scenario(seed=0, tasks=[spec, spec], warmup=None)
        with pytest.raises(ProtocolError):
            run_scenario(scenario, 10, resolve_profile("finetune", MC), FAST, MC)

    def test_warmup_task_repeated_in_the_stream_rejected_before_training(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a session trained before the tasks were checked")

        monkeypatch.setattr("cddet.trainer.run_session", forbidden)
        spec = tiny_spec(1, 0)
        scenario = Scenario(seed=0, tasks=[tiny_spec(2, 1), spec], warmup=spec)
        with pytest.raises(ProtocolError, match="duplicate task"):
            run_scenario(scenario, 10, resolve_profile("finetune", MC), FAST, MC)

    def test_a_profile_bound_to_another_system_is_rejected_before_training(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a session trained before the system was checked")

        monkeypatch.setattr("cddet.trainer.run_session", forbidden)
        with pytest.raises(ConfigError, match="^profile 'distill' is bound to system 'mt', not 'mc'$"):
            run_scenario(tiny_scenario(1, seed=5), 10, resolve_profile("distill", MT), FAST, MC)

    def test_a_last_window_of_one_row_trains(self):
        """Each epoch's last step may hold a single row."""
        scenario = tiny_scenario(1, seed=5)
        rows = len(synth_generate(scenario.tasks[0], scenario.seed).train)
        config = TrainConfig(epochs=2, lr=1e-3, batch_size=rows - 1, seed=3)
        record = run_scenario(scenario, 0, resolve_profile("finetune", MC), config, MC)
        assert record.model.head.registry.tasks == [1]

    def test_mt_lambda_zero_matches_mc_bitwise(self):
        scenario = tiny_scenario(3, seed=9)
        config = TrainConfig(epochs=2, lr=1e-3, batch_size=16, seed=11)
        mc = run_scenario(scenario, 30, resolve_profile("distill", MC), config, MC)
        mt = run_scenario(
            scenario, 30, resolve_profile("distill", MT, lam=0.0), config, MT
        )
        np.testing.assert_array_equal(
            mc.matrix[np.triu_indices(3)], mt.matrix[np.triu_indices(3)]
        )

    def test_warmup_trains_but_stays_out_of_matrix(self):
        tasks = [tiny_spec(2, 1)]
        warm = tiny_spec(1, 0)
        scenario = Scenario(seed=4, tasks=tasks, warmup=warm)
        record = run_scenario(scenario, 20, resolve_profile("replay", MC), FAST, MC)
        assert record.matrix.shape == (1, 1)
        assert list(record.logs) == [2]
        # warm-up classes still occupy the head
        assert len(record.logs[2].record_ids) == 2 * tasks[0].n_test


def _trained_bytes(record, stored=False):
    """A run's accuracy matrix and parameters, and its stored exemplar rows
    and their classes when ``stored``, as one byte string."""
    arrays = [record.matrix, *record.model.parameters()]
    if stored:
        arrays += record.memory.all_exemplars()
    return b"".join(a.tobytes() for a in arrays)


class TestRunRelations:
    """Runs that differ only where the method cannot see it train the same model."""

    @pytest.mark.parametrize("system", [BC, MC, MT])
    def test_one_session_trains_one_model_at_any_budget(self, system):
        """A one-session stream replays nothing, so the profiles that share a
        head, label smoothing and mixup train one model at every budget."""
        scenario = tiny_scenario(1, seed=12)
        config = TrainConfig(epochs=1, lr=1e-3, batch_size=16, seed=3)
        first = {}
        for name in builtin_profiles():
            profile = resolve_profile(name, system)
            key = (profile.head_variant, profile.label_smooth_eps, profile.mixup_alpha)
            for budget in (0, 10, 1500):
                got = _trained_bytes(run_scenario(scenario, budget, profile, config, system))
                want_name, want_budget, want = first.setdefault(key, (name, budget, got))
                assert got == want, f"{name} at budget {budget} differs from {want_name} at budget {want_budget}"

    @pytest.mark.parametrize("system", [BC, MC, MT])
    def test_budgets_past_every_train_row_agree(self, system):
        """A budget that holds every train row of the stream stores all of
        them; a larger one changes nothing."""
        scenario = tiny_scenario(3, seed=13)
        rows = sum(len(synth_generate(spec, scenario.seed).train) for spec in scenario.tasks)
        for name in builtin_profiles():
            profile = resolve_profile(name, system)
            full, larger = (run_scenario(scenario, budget, profile, FAST, system) for budget in (rows, 3 * rows))
            assert full.memory.total() == rows
            assert _trained_bytes(full, stored=True) == _trained_bytes(larger, stored=True), (
                f"{name}: budgets {rows} and {3 * rows} differ"
            )


SPLIT_CELLS = [
    ("rebalance", MC), ("rebalance", MT), ("replay+kd", MC), ("rebalance-cosfc", MC), ("distill", BC), ("replay", BC)
]
SPLIT_CONFIG = TrainConfig(epochs=1, lr=1e-3, batch_size=16, seed=3)


def _split_cases():
    for name, system in SPLIT_CELLS:
        for k in (1, 2, 3):
            for via in ("copied", "plain"):
                yield pytest.param(name, system, k, via == "copied", id=f"{name}-{system}-{k}-{via}")


class TestSplitRun:
    """A run split after any session, its model and memory written to a
    checkpoint and loaded back, trains the rest of the stream into the
    uninterrupted run's final checkpoint, byte for byte, and its accuracy
    matrix, with every seen task evaluated after each session: the
    checkpoint is the whole state between sessions, evaluation reads that
    state and never writes it, and no model object holds a generator."""

    SESSIONS = [synth_generate(t, 4) for t in tiny_scenario(4, seed=4).tasks]

    @staticmethod
    def _start(name, system):
        profile = resolve_profile(name, system)
        model = Model.build(6, profile.head_variant, substream(SPLIT_CONFIG.seed, "init"))
        return profile, model, ExemplarMemory(30, profile.replay_payload)

    @classmethod
    def _train(cls, model, memory, start, stop, profile, system, path):
        """Train through sessions ``start`` to ``stop``, evaluating every seen
        task after each, then write the checkpoint to ``path``; return its
        bytes and the accuracy matrix's columns."""
        columns = []
        for j in range(start, stop):
            run_session(model, memory, cls.SESSIONS[j], profile, SPLIT_CONFIG)
            columns.append([_evaluate(model, system, s.test, False)[0] for s in cls.SESSIONS[: j + 1]])
        values = [v for obj in (model, model.extractor, model.head, model.head.registry) for v in vars(obj).values()]
        values += [item for v in values if isinstance(v, list) for item in v]
        assert not any(isinstance(v, np.random.Generator) for v in values), "a model object holds a generator"
        save_checkpoint(path, model, memory.to_payload())
        return path.read_bytes(), columns

    @pytest.mark.parametrize("name, system, k, copied", _split_cases())
    def test_a_split_run_equals_the_whole_one(self, tmp_path, name, system, k, copied):
        """A ``copied`` case resumes from a copy of the checkpoint that the
        loaded state wrote again, which must equal the first byte for byte.
        Every loaded array is writeable."""
        n = len(self.SESSIONS)
        profile, model, memory = self._start(name, system)
        whole, whole_matrix = self._train(model, memory, 0, n, profile, system, tmp_path / "whole.json")

        profile, model, memory = self._start(name, system)
        checkpoint = tmp_path / "checkpoint.json"
        written, first = self._train(model, memory, 0, k, profile, system, checkpoint)
        loaded, payload = load_checkpoint(checkpoint)
        if copied:
            save_checkpoint(checkpoint, loaded, payload)
            assert checkpoint.read_bytes() == written
            loaded, payload = load_checkpoint(checkpoint)
        memory = ExemplarMemory.from_payload(payload, loaded)
        # the loaded arrays are the resumed run's own, free to be written in place
        assert all(arr.flags.writeable for arr in [*loaded.parameters(), *memory.classes.values()])
        split, rest = self._train(loaded, memory, k, n, profile, system, tmp_path / "split.json")
        assert split == whole
        assert first + rest == whole_matrix


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNumericsErrors:
    """An overflowing weight raises NumericsError on every path that runs
    the model, naming what overflowed: a training step, evaluation and
    herding."""

    def _poisoned(self, profile_name="replay"):
        model, memory, sessions, profile = fresh_setup(system=MC, profile_name=profile_name)
        run_session(model, memory, sessions[0], profile, FAST)
        model.extractor.weights[0][...] = 1e308
        return model, memory, sessions, profile

    @pytest.mark.parametrize("profile_name", ["replay", "distill"])
    def test_training_step(self, profile_name):
        """The error names the session, also when the snapshot's forward
        pass over the exemplars (``distill``) is what overflows."""
        model, memory, sessions, profile = self._poisoned(profile_name)
        with pytest.raises(NumericsError, match=r"session 2, epoch 0: layer 0 pre-activation"):
            run_session(model, memory, sessions[1], profile, FAST)

    def test_evaluate(self):
        model, _, sessions, _ = self._poisoned()
        with pytest.raises(NumericsError, match="layer 0 pre-activation"):
            _evaluate(model, MC, sessions[0].test, True)

    def test_evaluate_names_the_logits(self):
        """An infinite bias makes every logit non-finite whatever the trained
        features are; a finite poison overflows only on large enough ones."""
        model, memory, sessions, profile = fresh_setup(system=MC, profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST)
        model.head.bias[...] = np.inf
        with pytest.raises(NumericsError, match="^logits produced non-finite entries$"):
            _evaluate(model, MC, sessions[0].test, True)

    def test_herding(self):
        model, memory, sessions, _ = self._poisoned()
        model.head.expand(sessions[1].task_id, np.random.default_rng(0))
        with pytest.raises(NumericsError, match="layer 0 pre-activation"):
            _store_exemplars(model, memory, sessions[1])

    def test_loss_term_is_named(self):
        model, memory, sessions, _ = fresh_setup(system=MC, profile_name="distill")
        profile = resolve_profile("distill", MC, T=1e-320)  # a temperature that overflows the KD logits
        run_session(model, memory, sessions[0], profile, FAST)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="loss kd_kl"):
            run_session(model, memory, sessions[1], profile, FAST)
