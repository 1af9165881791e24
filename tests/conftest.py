import base64

import numpy as np

from cddet.stream import Scenario, TaskSpec, synth_generate
from cddet.trainer import run_scenario_over_sessions


def b64(values) -> str:
    """Values as a checkpoint stores an array: the base64 of their
    little-endian float64 bytes, in C order."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def tiny_spec(task_id, direction, difficulty=5.0, n_train=24, dim=6):
    """Small hand-built task: fakes along one axis, reals near the origin."""
    fake = [0.0] * dim
    fake[direction % dim] = difficulty
    fake2 = list(fake)
    fake2[(direction + 1) % dim] = 1.0
    shift = [0.0] * dim
    shift[-1] = 0.2
    return TaskSpec(
        task_id=task_id,
        real_shift=tuple(shift),
        fake_means=(tuple(fake), tuple(fake2)),
        difficulty=difficulty,
        n_train=n_train,
        n_test=20,
    )


def tiny_scenario(n_tasks=2, seed=0):
    tasks = [tiny_spec(t, direction=t - 1) for t in range(1, n_tasks + 1)]
    return Scenario(seed=seed, tasks=tasks, warmup=None)


def run_scenario(scenario, budget, profile, config, system):
    """Generate a scenario's sessions and train through them under ``budget``."""
    sessions = [synth_generate(spec, scenario.seed) for spec in scenario.tasks]
    warmup = synth_generate(scenario.warmup, scenario.seed) if scenario.warmup else None
    return run_scenario_over_sessions(sessions, warmup, budget, profile, config, system)
