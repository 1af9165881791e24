import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


MICRO_ONCE = """
import json, child, micro
t = child.Tracer(); t.install_hooks(); t.install("cddet")
def once(fn):
    fn()
    return 1.0
micro._per_call_s = once
print(json.dumps(sorted(micro.run_all())))
"""


def test_benchmark_tracer_finds_every_name_it_wraps():
    """The benchmark's tracer wraps engine functions and methods by name, and
    its microbenchmarks call engine ops by name; a rename or deletion of one
    of them breaks ``perfbench --trace 1``. Each microbenchmark runs once."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run([sys.executable, "-c", MICRO_ONCE], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        "diffcore.affine_us", "diffcore.cosine_matrix_us", "diffcore.softmax_us", "memory.herd_select_300x32_ms",
    ]


def test_a_step_runs_from_batch_assembly_to_the_adam_update(monkeypatch):
    """The benchmark times a step from ``trainer._assemble_batches`` (looked
    up as a module global) to the end of ``Adam.step``: the two must
    alternate, once per step, epochs x ceil(rows / batch_size) times."""
    from conftest import tiny_scenario

    from cddet import trainer
    from cddet.memory import ExemplarMemory
    from cddet.model import MC, Model
    from cddet.seeding import substream
    from cddet.stream import synth_generate

    profile = trainer.resolve_profile("replay+kd", MC)
    config = trainer.TrainConfig(epochs=3, batch_size=7, seed=0)
    sessions = [synth_generate(t, 1) for t in tiny_scenario(2, seed=1).tasks]
    model = Model.build(6, profile.head_variant, substream(1, "init"))
    memory = ExemplarMemory(10, profile.replay_payload)
    trainer.run_session(model, memory, sessions[0], profile, config)

    calls = []
    assemble, step = trainer._assemble_batches, trainer.Adam.step

    def recorded(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(trainer, "_assemble_batches", recorded("assemble", assemble))
    monkeypatch.setattr(trainer.Adam, "step", recorded("step", step))
    rows = sessions[1].train.x.shape[0] + memory.total()
    trainer.run_session(model, memory, sessions[1], profile, config)
    steps = config.epochs * -(-rows // config.batch_size)
    assert rows % config.batch_size  # a short last window in every epoch
    assert calls == ["assemble", "step"] * steps
