"""Budgeted exemplar storage with herding selection and quota rebalancing.

The memory stores rows only: each class keeps its exemplars as one 2-D array
of payload rows in herding order, and its task is the class registry's (class
c belongs to task ``registry.tasks[c // 2]``), so a checkpoint stores none.
Trimming slices off the tail, so every stored array stays a prefix of the
original selection. The memory owns its rows between sessions. A session
borrows them: ``lend`` stacks them for the session and drops the stored
arrays, so each row is held once while the session trains, and
``take_back`` stores them again, bit for bit, when training ends.
Payloads are either raw input vectors or latent activations captured at the
extractor's replay layer, uniformly per memory instance.

Herding step k picks the remaining row f_i with the least distance
||mu - (t + f_i) / k|| (mu the class mean, t the sum of the rows chosen so
far), the first one on a tie. The exact search computes that distance for
every remaining row. ``herd_select`` screens first: the same row minimises
s_i = ||f_i||^2 + 2 f_i.(t - k mu) = ||k mu - t - f_i||^2 - ||k mu - t||^2,
and s over all rows is one matrix-vector product, (2F)(t - k mu), plus the
stored ||f_i||^2, in O(n d) memory. The screen's pick i is taken when every
other remaining row j has s_j > s_i + B. Otherwise the exact search decides,
so picks, ties included, are always the exact search's.

The bound B. Let u = 2^-53, d the feature width, r the largest row norm,
M = ||mu||, T >= ||t|| the sum of the chosen rows' norms and
G = T + k M >= ||t - k mu||. The rounding error of each computed s_i is at
most E = (2d + 8) u r (r + G + k M): a length-d dot product, the product
k mu, the difference t - k mu and the sum with ||f_i||^2. The exact search's
distance, scaled by k, is off by at most (d + 5) u (G + T + 2r) (the sum,
division and difference per coordinate, then the norm), and two distances
whose s differ by more than 4 (d + 5) u (G + r)(G + T + 2r) keep their order
under that rounding, since the distances differ by the s difference divided
by k^2 times their sum, which is at most 2 (G + r) / k. B is twice
2E + 4 (d + 5) u (G + r)(G + T + 2r), the factor two covering the rounding of
B and its inputs, plus two terms that bound what underflow adds:
16 k (G + r) sqrt((d + 5) tiny) and 16 (d + 5) tiny, tiny the least normal
float. A non-finite score or bound always takes the exact search.
"""

from __future__ import annotations

import math

import numpy as np

from .diffcore import Array
from .errors import ConfigError, ContractError, EngineError

RAW = "raw"
LATENT = "latent"
PAYLOAD_KINDS = (RAW, LATENT)


def herd_select(features: Array, m: int) -> list[int]:
    """Greedy herding order: step k picks the index keeping the running mean
    of the chosen features closest to the class mean. Ties go to the lowest
    index.

    Each pick is screened with one matrix-vector product and taken when the
    screen proves it is the exact search's pick; otherwise the exact search
    runs (see the module docstring).
    """
    features = np.asarray(features, dtype=np.float64)
    n, d = features.shape
    if not 1 <= m <= n:
        raise ContractError(f"m={m} outside [1, {n}]")
    mu = features.mean(axis=0)
    twice = features * 2.0
    sq = np.einsum("ij,ij->i", features, features)
    k_mu = np.arange(1, m + 1)[:, None] * mu
    r = math.sqrt(sq.max())
    mu_norm = math.sqrt(mu @ mu)
    u, tiny = np.finfo(np.float64).eps / 2, np.finfo(np.float64).tiny
    c_screen, c_exact = 4.0 * (2 * d + 8) * u, 8.0 * (d + 5) * u
    c_under, floor = 16.0 * math.sqrt((d + 5) * tiny), 16.0 * (d + 5) * tiny
    scores = sq.copy()  # +inf once a row is chosen
    taken = np.zeros(n, dtype=bool)
    chosen: list[int] = []
    total = np.zeros_like(mu)
    t = 0.0  # >= the norm of total
    for k in range(1, m + 1):
        s = twice @ (total - k_mu[k - 1])
        s += scores
        best = int(np.argmin(s))
        g = t + k * mu_norm  # >= the norm of total - k * mu
        bound = (
            c_screen * r * (r + g + k * mu_norm)
            + c_exact * (g + r) * (g + t + 2.0 * r)
            + c_under * k * (g + r)
            + floor
        )
        lowest = s[best]
        if not (math.isfinite(lowest) and math.isfinite(bound)) or np.count_nonzero(s <= lowest + bound) > 1:
            best = _herd_exact_pick(features, mu, total, np.flatnonzero(~taken), k)
        chosen.append(best)
        total += features[best]
        t += math.sqrt(sq[best])
        scores[best] = np.inf
        taken[best] = True
    return chosen


def _herd_exact_pick(features: Array, mu: Array, total: Array, remaining: Array, k: int) -> int:
    """The herding pick by the distance of every remaining row's running
    mean to the class mean; the first minimum wins."""
    dists = np.linalg.norm(mu - (total + features[remaining]) / k, axis=1)
    return int(remaining[int(np.argmin(dists))])


def quotas(budget: int, num_classes: int) -> list[int]:
    """Per-class quotas: floor share plus one extra for the lowest indices."""
    if num_classes < 1:
        raise ContractError("num_classes must be at least 1")
    base, rem = divmod(budget, num_classes)
    return [base + (1 if i < rem else 0) for i in range(num_classes)]


def capture(extractor, x: Array, mode: str) -> Array:
    """Payload rows for storage: the inputs themselves, or their activations
    at the extractor's capture layer."""
    if mode not in PAYLOAD_KINDS:
        raise ConfigError(f"unknown payload kind {mode!r}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if mode == RAW:
        return x.copy()
    _, latent = extractor.forward_with_capture(x)
    return latent


class ExemplarMemory:
    """Per-class herding-ordered stores under one shared budget: ``classes``
    maps a class index to its payload rows."""

    def __init__(self, budget: int, payload_kind: str = RAW):
        if budget < 1:
            raise ConfigError("memory budget must be a positive integer")
        if payload_kind not in PAYLOAD_KINDS:
            raise ConfigError(f"unknown payload kind {payload_kind!r}")
        self.budget = budget
        self.payload_kind = payload_kind
        self.classes: dict[int, Array] = {}
        self._lent: dict[int, int] | None = None  # while lent: each class's row count

    def add_class(self, class_idx: int, payloads: Array) -> None:
        """Store a herding-ordered payload stack for a newly introduced class."""
        if class_idx in self.classes:
            raise ContractError(f"class {class_idx} already stored")
        self.classes[class_idx] = np.asarray(payloads, dtype=np.float64)

    def rebalance(self, num_classes: int) -> None:
        """Trim every class to a copy of its first quota rows, freeing the herding tail.

        Quotas go to stored classes in ascending class-index order, so the
        floor-division remainder lands on the oldest classes.
        """
        per_class = quotas(self.budget, num_classes)
        for rank, class_idx in enumerate(sorted(self.classes)):
            quota = per_class[rank] if rank < num_classes else 0
            self.classes[class_idx] = self.classes[class_idx][:quota].copy()
        self.assert_within_budget()

    def total(self) -> int:
        return sum(rows.shape[0] for rows in self.classes.values())

    def assert_within_budget(self) -> None:
        if self.total() > self.budget:
            raise EngineError(
                f"memory invariant violated: {self.total()} exemplars > budget {self.budget}"
            )

    def all_exemplars(self) -> tuple[Array, Array]:
        """Every stored row, stacked in ascending class order, and the class
        index of each."""
        stored = [(c, rows) for c, rows in sorted(self.classes.items()) if rows.shape[0]]
        if not stored:
            return np.empty((0, 0)), np.empty(0, dtype=np.intp)
        classes = np.repeat(np.array([c for c, _ in stored], dtype=np.intp), [rows.shape[0] for _, rows in stored])
        return np.concatenate([rows for _, rows in stored]), classes

    def lend(self) -> tuple[Array, Array]:
        """``all_exemplars``, after which the memory drops its arrays: the
        borrower holds the only copy of its rows until ``take_back``."""
        stacked = self.all_exemplars()
        self._lent = {c: rows.shape[0] for c, rows in sorted(self.classes.items())}
        self.classes = {}
        return stacked

    def take_back(self, rows: Array) -> None:
        """Store the lent rows again from ``rows``, their stack in
        ``all_exemplars``' order: each class keeps a view of its run."""
        counts = list(self._lent.values())
        self.classes = dict(zip(self._lent, np.split(rows, np.cumsum(counts)[:-1])))
        self._lent = None

    # -- persistence ---------------------------------------------------

    def to_payload(self) -> dict:
        """The memory as ``{"kind", "budget", "classes": {"<class index>":
        rows}}``: a class's rows are its stored array itself.
        ``model.save_checkpoint`` encodes the arrays, and
        ``model.load_checkpoint`` returns them decoded in this form."""
        return {
            "kind": self.payload_kind,
            "budget": self.budget,
            "classes": {str(class_idx): rows for class_idx, rows in self.classes.items()},
        }

    @classmethod
    def from_payload(cls, payload: dict, model=None) -> "ExemplarMemory":
        """Rebuild a memory from ``to_payload`` output, keeping its arrays.

        A payload that ``to_payload`` could not have written raises
        ``ConfigError`` naming the field: an unknown kind, a budget that is
        not a positive integer, a class key that is not a non-negative
        integer in canonical decimal (``"1"``, not ``"01"``), or more
        exemplars than the budget. Given the ``model``, every row must also
        have its input width (raw payloads) or its latent width (latent
        payloads), and every class key must index its class registry.
        """
        try:
            kind, budget, classes = payload["kind"], payload["budget"], payload["classes"]
        except KeyError as exc:
            raise ConfigError(f"checkpoint lacks field 'memory.{exc.args[0]}'") from None
        except TypeError:
            raise ConfigError("checkpoint field memory: not an object") from None
        if kind not in PAYLOAD_KINDS:
            raise ConfigError(f"checkpoint field memory.kind: unknown payload kind {kind!r}")
        if not isinstance(budget, int) or isinstance(budget, bool) or budget < 1:
            raise ConfigError(f"checkpoint field memory.budget: {budget!r} is not a positive integer")
        if not isinstance(classes, dict):
            raise ConfigError("checkpoint field memory.classes: not an object")
        width = None
        if model is not None:
            width = model.extractor.input_width if kind == RAW else model.extractor.latent_width
        memory = cls(budget, kind)
        for key, rows in classes.items():
            where = f"memory.classes[{key!r}]"
            if not (isinstance(key, str) and key.isdecimal() and key == str(int(key))):
                raise ConfigError(f"checkpoint field {where}: class key is not a canonical non-negative integer")
            if width is not None and rows.shape[1] != width:
                raise ConfigError(
                    f"checkpoint field {where}: rows have {rows.shape[1]} entries, the model's {kind} width is {width}"
                )
            if model is not None and int(key) >= len(model.head.registry):
                raise ConfigError(f"checkpoint field {where}: the model has {len(model.head.registry)} classes")
            memory.classes[int(key)] = rows
        if memory.total() > budget:
            raise ConfigError(f"checkpoint field memory: {memory.total()} exemplars exceed budget {budget}")
        return memory
