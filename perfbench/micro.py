"""Microbenchmarks of single engine operations at the engine's own shapes.

The extractor maps 16 inputs through hidden layers of 64 and 64 to 32
features; the easy stream's head ends with 16 classes. Each tape op is
timed as its forward call plus its own backward closure on a gradient of
ones. Herding picks 100 of 300 rows of 32 features, one polarity's train
split at the engine's width. Every figure is the median of several rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

ROUNDS = 7
ROUND_SECONDS = 0.04


def _per_call_s(fn) -> float:
    """Median seconds per call over ``ROUNDS`` rounds of a calibrated size."""
    fn()
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        if time.perf_counter() - t0 >= ROUND_SECONDS / 4 or calls >= 1 << 16:
            break
        calls *= 2
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        rounds.append((time.perf_counter() - t0) / calls)
    return statistics.median(rounds)


def _forward_backward(op, *inputs):
    out = op(*inputs)
    out._backward(np.ones_like(out.data))
    for t in inputs:
        t.grad = None


def run_all() -> dict:
    from cddet import diffcore as dc
    from cddet.memory import herd_select

    rng = np.random.default_rng(0)

    def param(*shape):
        return dc.Tensor(rng.standard_normal(shape), requires_grad=True)

    hidden, weight, bias = param(32, 64), param(64, 64), param(64)
    logits = param(32, 16)
    features, embeddings = param(32, 32), param(16, 32)
    herd_rows = rng.standard_normal((300, 32))
    return {
        "diffcore.affine_us": 1e6 * _per_call_s(lambda: _forward_backward(dc.affine, hidden, weight, bias)),
        "diffcore.softmax_us": 1e6 * _per_call_s(lambda: _forward_backward(lambda z: dc.softmax(z, axis=1), logits)),
        "diffcore.cosine_matrix_us": 1e6 * _per_call_s(
            lambda: _forward_backward(dc.cosine_matrix, features, embeddings)
        ),
        "memory.herd_select_300x32_ms": 1e3 * _per_call_s(lambda: herd_select(herd_rows, 100)),
    }
