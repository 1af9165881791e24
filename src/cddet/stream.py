"""Task streams: seeded synthetic scenario builders and dataset file I/O.

Each task pairs a real distribution (a shared base Gaussian, nudged by a
small per-task shift so that reals overlap across tasks) with a fake
Gaussian mixture whose component means sit ``difficulty`` standard
deviations away from the reals, in directions kept apart across tasks.

Dataset file schema (UTF-8 CSV, no quoting):
    header  task_id,split,label,f0,...,f{d-1}
    rows    one record per line; split in {train,val,test};
            label 0 = real, 1 = fake; '.' decimal point
A run reads only the train and test rows, so ``save_dataset`` writes only
those; ``load_dataset`` checks val rows (CDDB's files hold them) as it
checks the others, then drops them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, names_its_file, read_text
from .model import FAKE, REAL

EASY = "easy"
HARD = "hard"
LONG = "long"
SCENARIO_KINDS = (EASY, HARD, LONG)

SPLITS = ("train", "val", "test")

_FEATURE_DIM = 16  # the width of every synthetic source
_DEFAULT_COUNTS = {"train": 300, "test": 150}  # per polarity
_EASY_DIFFICULTY = 6.0
_WILD_DIFFICULTY = 2.5
_SMALL_DIFFICULTY = 3.5


@dataclass(frozen=True)
class TaskSpec:
    task_id: int
    base_mean: tuple[float, ...]
    real_shift: tuple[float, ...]
    fake_means: tuple[tuple[float, ...], ...]
    cov_scale: float
    difficulty: float
    n_train: int
    n_test: int

    def __post_init__(self):
        if self.cov_scale <= 0:
            raise ConfigError("covariance scale must be positive")
        if min(self.n_train, self.n_test) <= 0:
            raise ConfigError("split counts must be positive")
        if self.difficulty <= 0:
            raise ConfigError("difficulty must be positive")


@dataclass
class Split:
    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass
class SessionData:
    task_id: int
    train: Split
    test: Split

    def splits(self) -> dict[str, Split]:
        return {"train": self.train, "test": self.test}


@dataclass
class Scenario:
    kind: str
    seed: int
    tasks: list[TaskSpec]
    warmup: TaskSpec | None

    def __len__(self) -> int:
        return len(self.tasks)


def _sample_split(spec: TaskSpec, rng: np.random.Generator, n: int) -> Split:
    d = len(spec.base_mean)
    real_mean = np.asarray(spec.base_mean) + np.asarray(spec.real_shift)
    reals = real_mean + spec.cov_scale * rng.standard_normal((n, d))
    comps = rng.integers(0, len(spec.fake_means), size=n)
    fake_means = np.asarray(spec.fake_means)
    fakes = fake_means[comps] + spec.cov_scale * rng.standard_normal((n, d))
    x = np.vstack([reals, fakes])
    y = np.concatenate([np.full(n, REAL), np.full(n, FAKE)]).astype(np.int64)
    return Split(x, y)


def synth_generate(spec: TaskSpec, seed: int) -> SessionData:
    """Deterministic session draw for one task under (spec, seed)."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1000 + spec.task_id,)))
    return SessionData(
        task_id=spec.task_id,
        train=_sample_split(spec, rng, spec.n_train),
        test=_sample_split(spec, rng, spec.n_test),
    )


def _spread_directions(rng: np.random.Generator, count: int, dim: int, max_cos: float = 0.55) -> np.ndarray:
    """Unit vectors kept pairwise apart; resamples until |cos| < max_cos."""
    dirs: list[np.ndarray] = []
    while len(dirs) < count:
        v = rng.standard_normal(dim)
        v /= np.linalg.norm(v)
        if all(abs(float(v @ u)) < max_cos for u in dirs):
            dirs.append(v)
    return np.asarray(dirs)


def _source_specs(seed: int) -> list[TaskSpec]:
    """Thirteen source definitions: a warm-up source plus twelve stream sources."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    n_sources = 13
    components = 2
    dirs = _spread_directions(rng, n_sources * components, _FEATURE_DIM)
    base = np.zeros(_FEATURE_DIM)
    counts = _DEFAULT_COUNTS

    specs: list[TaskSpec] = []
    for sid in range(n_sources):
        if sid in (7, 11):
            difficulty, n_train = _WILD_DIFFICULTY, counts["train"]
        elif sid == 12:
            difficulty, n_train = _SMALL_DIFFICULTY, counts["train"] // 10
        else:
            difficulty, n_train = _EASY_DIFFICULTY, counts["train"]
        shift = rng.standard_normal(_FEATURE_DIM)
        shift *= 0.35 / np.linalg.norm(shift)
        fake_means = tuple(
            tuple(base + difficulty * dirs[sid * components + c])
            for c in range(components)
        )
        specs.append(
            TaskSpec(
                task_id=sid,
                base_mean=tuple(base),
                real_shift=tuple(shift),
                fake_means=fake_means,
                cov_scale=1.0,
                difficulty=difficulty,
                n_train=n_train,
                n_test=counts["test"],
            )
        )
    return specs


_SCENARIO_SOURCES = {
    EASY: [1, 2, 3, 4, 5, 6, 7],
    HARD: [1, 2, 7, 11, 12],
    LONG: [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12],
}


def build_scenario(kind: str, seed: int, with_warmup: bool = True) -> Scenario:
    """Seeded scenario: easy (7 tasks), hard (5, with two low-separation
    sources and one small-data source), or long (all 12)."""
    if kind not in SCENARIO_KINDS:
        raise ConfigError(f"unknown scenario kind {kind!r}")
    specs = _source_specs(seed)
    tasks = [specs[sid] for sid in _SCENARIO_SOURCES[kind]]
    warmup = specs[0] if with_warmup else None
    return Scenario(kind=kind, seed=seed, tasks=tasks, warmup=warmup)


# ---------------------------------------------------------------------------
# dataset files


def save_dataset(session: SessionData, path) -> None:
    width = session.train.x.shape[1]
    header = ["task_id", "split", "label"] + [f"f{i}" for i in range(width)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for split_name, split in session.splits().items():
            for row, label in zip(split.x, split.y):
                writer.writerow([session.task_id, split_name, int(label)] + [repr(float(v)) for v in row])


@names_its_file
def load_dataset(path) -> SessionData:
    """Parse one task's records; malformed rows fail with their line number."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ParseError("empty dataset file", line=1)
    header = lines[0].split(",")
    if header[:3] != ["task_id", "split", "label"]:
        raise ParseError("header must start with task_id,split,label", line=1)
    width = len(header) - 3
    if width < 1 or header[3:] != [f"f{i}" for i in range(width)]:
        raise ParseError("feature columns must be f0..f{d-1}", line=1)

    rows: dict[str, list[tuple[np.ndarray, int]]] = {s: [] for s in SPLITS}
    task_id: int | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 3 + width:
            raise ParseError(f"expected {3 + width} fields, found {len(fields)}", line=lineno)
        try:
            row_task = int(fields[0])
        except ValueError:
            raise ParseError(f"bad task id {fields[0]!r}", line=lineno) from None
        if task_id is None:
            task_id = row_task
        elif row_task != task_id:
            raise ParseError(f"mixed task ids {task_id} and {row_task}", line=lineno)
        split = fields[1]
        if split not in SPLITS:
            raise ParseError(f"unknown split tag {split!r}", line=lineno)
        if fields[2] not in ("0", "1"):
            raise ParseError(f"label must be 0 or 1, found {fields[2]!r}", line=lineno)
        try:
            values = np.array([float(v) for v in fields[3:]], dtype=np.float64)
        except ValueError:
            raise ParseError("non-numeric feature value", line=lineno) from None
        rows[split].append((values, int(fields[2]), lineno))

    if task_id is None:
        raise ParseError("dataset holds no records", line=2)

    splits: dict[str, Split] = {}
    non_finite = []  # the first line of each split with a nan or inf feature
    for split_name in SPLITS:
        records = rows[split_name]
        if records:
            x = np.vstack([r[0] for r in records])
            y = np.array([r[1] for r in records], dtype=np.int64)
            finite = np.isfinite(x).all(axis=1)
            if not finite.all():
                non_finite.append(records[int(np.argmin(finite))][2])
        else:
            x = np.zeros((0, width))
            y = np.zeros(0, dtype=np.int64)
        splits[split_name] = Split(x, y)
    if non_finite:
        raise ParseError("non-finite feature value", line=min(non_finite))

    for required in ("train", "test"):
        y = splits[required].y
        if not ((y == REAL).any() and (y == FAKE).any()):
            raise ParseError(f"split {required!r} needs both real and fake records", line=len(lines))

    return SessionData(task_id=task_id, train=splits["train"], test=splits["test"])
