"""Named random substreams derived from a single top-level seed.

Every source of randomness in the engine (data synthesis, parameter init,
batch shuffling, mixup draws) pulls from its own named stream so that
changing one consumer never perturbs the others. A run draws its initial
model from ``init``, and each task's session from ``batch:<task>`` (row
orders), ``mixup:<task>`` (mixing draws) and ``head:<task>`` (the task's
new head rows), so what a session draws depends on no earlier session.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _stream_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def substream(seed: int, name: str) -> np.random.Generator:
    """Generator for the named stream under ``seed``; stable across runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(_stream_key(name),))
    return np.random.default_rng(ss)
