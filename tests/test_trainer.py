import numpy as np
import pytest
from conftest import run_scenario, tiny_scenario, tiny_spec

from cddet.errors import ConfigError, NumericsError, ProtocolError
from cddet.losses import loss_and_gradients
from cddet.memory import ExemplarMemory, LATENT, RAW
from cddet.model import BC, COSFC, LINFC, MC, MT, SIGMOID, Model
from cddet.seeding import substream
from cddet.stream import Scenario, synth_generate
from cddet.trainer import (
    Adam,
    MethodProfile,
    SessionRows,
    TrainConfig,
    _assemble_batches,
    _evaluate,
    _plan_session,
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
        model.head.expand(1)
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
        model.head.expand(1)
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
            plan = _plan_session(model, memory, session, profile, system)
            rows = SessionRows(plan, model, system, batch_size=16)
            rows.shuffle(np.random.default_rng(0).permutation(len(rows)))
            step = _assemble_batches(rows, 0, 16, profile, np.random.default_rng(0))
            optimizer = Adam(model, lr=FAST.lr)
            optimizer.g.fill(np.nan)
            loss_and_gradients(
                system, step, model, plan.weights, optimizer.grads, rule=profile.aggregation,
                distill_form=profile.distill_form, mt_classes=plan.mt_classes,
            )
            assert not np.isnan(optimizer.g).any()
            return model.extractor.frozen

        assert nan_filled_step(*fresh(), sessions[0]) == 0
        model, memory = fresh()
        run_session(model, memory, sessions[0], profile, FAST, system)
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
        run_session(model, memory, sessions[0], profile, FAST, MC)
        assert model.sessions_trained == 1
        assert memory.total() > 0

    def test_duplicate_task_rejected(self):
        model, memory, sessions, profile = fresh_setup()
        run_session(model, memory, sessions[0], profile, FAST, MC)
        with pytest.raises(ProtocolError):
            run_session(model, memory, sessions[0], profile, FAST, MC)

    def test_head_profile_mismatch(self):
        model, memory, sessions, _ = fresh_setup(system=MC)
        bc_profile = resolve_profile("distill", BC)
        with pytest.raises(ConfigError):
            run_session(model, memory, sessions[0], bc_profile, FAST, BC)

    def test_seeded_runs_bitwise_identical(self):
        results = []
        for _ in range(2):
            model, memory, sessions, profile = fresh_setup()
            run_session(model, memory, sessions[0], profile, FAST, MC)
            run_session(model, memory, sessions[1], profile, FAST, MC)
            results.append(np.concatenate([p.ravel() for p in model.parameters()]))
        np.testing.assert_array_equal(results[0], results[1])

    def test_budget_invariant_after_each_session(self):
        model, memory, sessions, profile = fresh_setup(budget=10)
        for s in sessions:
            run_session(model, memory, s, profile, FAST, MC)
            assert memory.total() <= memory.budget

    def test_bc_session_trains_single_unit(self):
        model, memory, sessions, profile = fresh_setup(system=BC)
        run_session(model, memory, sessions[0], profile, FAST, BC)
        assert model.head.theta.shape[0] == 1
        assert model.head.registry.task_ids() == [1]

    def test_latent_replay_profile(self):
        model, memory, sessions, profile = fresh_setup(profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST, MC)
        run_session(model, memory, sessions[1], profile, FAST, MC)
        assert memory.payload_kind == LATENT
        payloads, _ = memory.all_exemplars()
        assert payloads.shape[1] == model.extractor.latent_width


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
        scenario = tiny_scenario(2, seed=7)
        record = run_scenario(scenario, 40, resolve_profile("replay", MC), FAST, MC)
        assert record.matrix[0, 0] >= 0.5
        assert record.matrix[1, 1] >= 0.5

    def test_final_session_logs_cover_each_test_record_once(self):
        scenario = tiny_scenario(2, seed=8)
        record = run_scenario(scenario, 40, resolve_profile("replay", MC), FAST, MC)
        for spec, task_id in zip(scenario.tasks, record.task_ids):
            log = record.logs[task_id]
            assert len(log.record_ids) == 2 * spec.n_test
            assert len(set(log.record_ids)) == len(log.record_ids)

    def test_duplicate_tasks_rejected(self):
        spec = tiny_spec(1, 0)
        scenario = Scenario(kind="easy", seed=0, tasks=[spec, spec], warmup=None)
        with pytest.raises(ProtocolError):
            run_scenario(scenario, 10, resolve_profile("finetune", MC), FAST, MC)

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
        scenario = Scenario(kind="easy", seed=4, tasks=tasks, warmup=warm)
        record = run_scenario(scenario, 20, resolve_profile("replay", MC), FAST, MC)
        assert record.matrix.shape == (1, 1)
        assert record.task_ids == [2]
        # warm-up classes still occupy the head
        assert len(record.logs[2].record_ids) == 2 * tasks[0].n_test


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNumericsErrors:
    """An overflowing weight raises NumericsError on every path that runs
    the model, naming what overflowed: a training step, evaluation and
    herding."""

    def _poisoned(self):
        model, memory, sessions, profile = fresh_setup(system=MC, profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST, MC)
        model.extractor.weights[0][...] = 1e308
        return model, memory, sessions, profile

    def test_training_step(self):
        model, memory, sessions, profile = self._poisoned()
        with pytest.raises(NumericsError, match=r"session 2, epoch 0: layer 0 pre-activation"):
            run_session(model, memory, sessions[1], profile, FAST, MC)

    def test_evaluate(self):
        model, _, sessions, _ = self._poisoned()
        with pytest.raises(NumericsError, match="layer 0 pre-activation"):
            _evaluate(model, MC, sessions[0].test)

    def test_evaluate_names_the_logits(self):
        model, memory, sessions, profile = fresh_setup(system=MC, profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST, MC)
        model.head.theta[...] = 1e308
        with pytest.raises(NumericsError, match="^logits produced non-finite entries$"):
            _evaluate(model, MC, sessions[0].test)

    def test_herding(self):
        model, memory, sessions, profile = self._poisoned()
        model.head.expand(sessions[1].task_id)
        with pytest.raises(NumericsError, match="layer 0 pre-activation"):
            _store_exemplars(model, memory, sessions[1], profile, model.head.registry)

    def test_loss_term_is_named(self):
        model, memory, sessions, _ = fresh_setup(system=MC, profile_name="distill")
        profile = resolve_profile("distill", MC, T=1e-320)  # a temperature that overflows the KD logits
        run_session(model, memory, sessions[0], profile, FAST, MC)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NumericsError, match="loss kd_kl"):
            run_session(model, memory, sessions[1], profile, FAST, MC)
