import numpy as np
import pytest
from conftest import tiny_scenario, tiny_spec

from cddet.errors import ConfigError, NumericsError, ProtocolError
from cddet.memory import ExemplarMemory, LATENT, RAW
from cddet.model import BC, LINFC, MC, MT, SIGMOID, Model
from cddet.seeding import substream
from cddet.stream import Scenario, synth_generate
from cddet.trainer import (
    MethodProfile,
    TrainConfig,
    _evaluate,
    _store_exemplars,
    builtin_profiles,
    resolve_profile,
    run_scenario,
    run_session,
)


FAST = TrainConfig(epochs=2, lr=1e-3, batch_size=16, seed=3)


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
    scenario = scenario or tiny_scenario(2, seed=seed, budget=budget)
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
            results.append(np.concatenate([p.data.ravel() for p in model.parameters()]))
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
        stored = memory.all_exemplars()[0]
        assert stored.payload.shape[0] == model.extractor.latent_width


class TestRunScenario:
    def test_single_task_matrix(self):
        scenario = tiny_scenario(1, seed=5)
        record = run_scenario(scenario, resolve_profile("finetune", MC), FAST, MC)
        assert record.matrix.shape == (1, 1)
        assert 0.0 <= record.matrix[0, 0] <= 1.0

    def test_matrix_upper_triangular(self):
        scenario = tiny_scenario(3, seed=6)
        record = run_scenario(scenario, resolve_profile("replay", MC), FAST, MC)
        n = 3
        for i in range(n):
            for j in range(n):
                if i <= j:
                    assert np.isfinite(record.matrix[i, j])
                else:
                    assert np.isnan(record.matrix[i, j])

    def test_diagonal_meets_majority_floor(self):
        scenario = tiny_scenario(2, seed=7)
        record = run_scenario(scenario, resolve_profile("replay", MC), FAST, MC)
        assert record.matrix[0, 0] >= 0.5
        assert record.matrix[1, 1] >= 0.5

    def test_final_session_logs_cover_each_test_record_once(self):
        scenario = tiny_scenario(2, seed=8)
        record = run_scenario(scenario, resolve_profile("replay", MC), FAST, MC)
        for spec, task_id in zip(scenario.tasks, record.task_ids):
            log = record.logs[task_id]
            assert len(log.record_ids) == 2 * spec.n_test
            assert len(set(log.record_ids)) == len(log.record_ids)

    def test_duplicate_tasks_rejected(self):
        spec = tiny_spec(1, 0)
        scenario = Scenario(kind="easy", seed=0, tasks=[spec, spec], warmup=None, budget=10)
        with pytest.raises(ProtocolError):
            run_scenario(scenario, resolve_profile("finetune", MC), FAST, MC)

    def test_mt_lambda_zero_matches_mc_bitwise(self):
        scenario = tiny_scenario(3, seed=9, budget=30)
        config = TrainConfig(epochs=2, lr=1e-3, batch_size=16, seed=11)
        mc = run_scenario(scenario, resolve_profile("distill", MC), config, MC)
        mt = run_scenario(
            scenario, resolve_profile("distill", MT, lam=0.0), config, MT
        )
        np.testing.assert_array_equal(
            mc.matrix[np.triu_indices(3)], mt.matrix[np.triu_indices(3)]
        )

    def test_warmup_trains_but_stays_out_of_matrix(self):
        tasks = [tiny_spec(2, 1)]
        warm = tiny_spec(1, 0)
        scenario = Scenario(kind="easy", seed=4, tasks=tasks, warmup=warm, budget=20)
        record = run_scenario(scenario, resolve_profile("replay", MC), FAST, MC)
        assert record.matrix.shape == (1, 1)
        assert record.task_ids == [2]
        # warm-up classes still occupy the head
        assert len(record.logs[2].record_ids) == 2 * tasks[0].n_test


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestNumericsErrors:
    """An overflowing weight raises NumericsError on every path that runs
    the model: a training step, evaluation and herding."""

    def _poisoned(self):
        model, memory, sessions, profile = fresh_setup(system=MC, profile_name="replay")
        run_session(model, memory, sessions[0], profile, FAST, MC)
        model.extractor.weights[0].data[...] = 1e308
        return model, memory, sessions, profile

    def test_training_step(self):
        model, memory, sessions, profile = self._poisoned()
        with pytest.raises(NumericsError):
            run_session(model, memory, sessions[1], profile, FAST, MC)

    def test_evaluate(self):
        model, _, sessions, _ = self._poisoned()
        with pytest.raises(NumericsError):
            _evaluate(model, MC, sessions[0].test)

    def test_herding(self):
        model, memory, sessions, profile = self._poisoned()
        model.head.expand(sessions[1].task_id)
        with pytest.raises(NumericsError):
            _store_exemplars(model, memory, sessions[1], profile, model.head.registry)
