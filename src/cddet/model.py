"""Network model: an MLP feature extractor plus an expandable classifier head.

Forward passes take and return plain arrays and record no tape. Layers run
in ``np_activations``, with a finiteness check on every pre-activation, and
the head's logit rule is ``ClassifierHead.logits_and_cosines``, which checks
its cosines and logits. Training, evaluation, herding, latent capture and
the distillation targets all run this one path. Parameters are plain arrays; the reference
loss on the tape (``losses.total_loss``) wraps them in its own leaves.

Three head variants are supported: a plain linear head ("linfc"), a
cosine-normalised head with a learnable positive scale ("cosfc"), and a
single-unit sigmoid head ("sigmoid") whose output never grows with the
number of sessions. A head's registry is its task list: task i owns class 2i
(real) and class 2i + 1 (fake), so a class's polarity is its index mod 2.

Checkpoint format (JSON, one object per file):
    {"format": "cddet-checkpoint-v1",
     "model": {"widths": [...], "capture_layer": int, "variant": str,
               "registry": [[task_id, polarity], ...],
               "extractor": {"weights": [...], "biases": [...]},
               "head": {...per-variant parameter arrays...},
               "sessions_trained": int},
     "memory": {...} | null}
Parameter arrays appear in declaration order and round-trip at full float64
precision through JSON's repr-based serialisation. The registry holds
[t, 0], [t, 1] for each task t in turn, and loading requires that pair
layout, each task once, since no run writes another. Each session registers
one task, so ``sessions_trained`` is the registry's task count: it is written
as that, and loading rejects any other value. Loading checks every
array's shape against ``widths`` and the registry, and the memory half
against the model (``ExemplarMemory.from_payload``).

A model is its arrays, so a checkpoint holds the whole model: no model
holds a generator, and ``ClassifierHead.expand`` draws from the one it is given.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Array
from .errors import ConfigError, ContractError, DegenerateInputError, ProtocolError, read_text
from .memory import ExemplarMemory

REAL = 0
FAKE = 1

LINFC = "linfc"
COSFC = "cosfc"
SIGMOID = "sigmoid"
HEAD_VARIANTS = (LINFC, COSFC, SIGMOID)

BC = "bc"
MC = "mc"
MT = "mt"
SYSTEMS = (BC, MC, MT)


@dataclass
class ClassRegistry:
    """A head's tasks in the order they came. Task i owns two classes, real
    first: class 2i is its real class and class 2i + 1 its fake one. Each
    session, the warm-up too, registers one task, so between sessions
    ``len(tasks)`` is the number of sessions trained."""

    tasks: list[int] = field(default_factory=list)

    def add_task(self, task_id: int) -> None:
        """Register a task's two classes; a task already held raises ``ProtocolError`` and changes nothing."""
        if task_id in self.tasks:
            raise ProtocolError(f"task {task_id} already registered")
        self.tasks.append(task_id)

    def class_of(self, task_id: int, polarity: int) -> int:
        if task_id not in self.tasks or polarity not in (REAL, FAKE):
            raise ContractError(f"no class registered for task {task_id} polarity {polarity}")
        return 2 * self.tasks.index(task_id) + polarity

    def fake_mask(self) -> Array:
        return np.arange(len(self)) % 2 == FAKE

    def __len__(self) -> int:
        return 2 * len(self.tasks)


def _uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Array:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class FeatureExtractor:
    """Stack of ReLU hidden layers ending in a linear feature layer.

    ``capture_layer`` indexes the hidden activation stored for latent replay;
    replayed payloads re-enter just after that layer. ``frozen`` counts the
    bottom layers that do not train: latent replay sets it to
    ``capture_layer + 1`` (``trainer._plan_session``), and it is 0 otherwise.
    """

    def __init__(self, weights: list[Array], biases: list[Array], capture_layer: int):
        if not weights:
            raise ConfigError("extractor needs at least input and feature widths")
        n_hidden = len(weights) - 1
        if not 0 <= capture_layer < max(n_hidden, 1):
            raise ConfigError(f"capture layer {capture_layer} out of range for {n_hidden} hidden layers")
        self.widths = (weights[0].shape[0], *(w.shape[1] for w in weights))
        self.capture_layer = capture_layer
        self.frozen = 0
        self.weights, self.biases = weights, biases

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def latent_width(self) -> int:
        return self.widths[self.capture_layer + 1]

    def forward(self, x) -> Array:
        return self.forward_with_capture(x)[0]

    def forward_with_capture(self, x) -> tuple[Array, Array]:
        """Features, plus the capture-layer activation (a copy of the input
        when the extractor is a single linear layer).

        Layers run one at a time, so only the running activation and the
        capture activation stay alive."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_width:
            raise ContractError(f"input width {x.shape[1]} != {self.input_width}")
        if x.shape[0] == 0:
            raise ContractError("empty batch")
        h, captured = x, None
        for i in range(len(self.weights)):
            h = self.np_activations(h, i, i + 1)[-1]
            if i == self.capture_layer:
                captured = h
        return h, captured if self.capture_layer < len(self.weights) - 1 else x.copy()

    def forward_from_latent(self, latent) -> Array:
        """Resume the forward pass from a stored capture-layer activation,
        one layer at a time."""
        h = np.atleast_2d(np.asarray(latent, dtype=np.float64))
        if h.shape[1] != self.latent_width:
            raise ContractError(f"latent width {h.shape[1]} != {self.latent_width}")
        for i in range(self.capture_layer + 1, len(self.weights)):
            h = self.np_activations(h, i, i + 1)[-1]
        return h

    def np_activations(self, x: Array, start: int = 0, stop: int | None = None) -> list[Array]:
        """Layers ``start`` onward (up to, not including, ``stop``) on plain
        arrays, with the tape's arithmetic and a finiteness check on every
        pre-activation: ``x``, then each hidden layer's relu output, then
        the features.

        Each layer allocates one array, its pre-activation, and adds the
        bias and applies the relu in place on it; ``x`` is never written."""
        acts = [x]
        last = len(self.weights) - 1
        for i in range(start, last + 1 if stop is None else stop):
            z = acts[-1] @ self.weights[i]
            z += self.biases[i]
            dc.checked(z, f"layer {i} pre-activation")
            acts.append(np.maximum(z, 0.0, out=z) if i < last else z)
        return acts

    def parameters(self) -> list[Array]:
        """Each layer's weights then its bias, bottom first: the frozen layers' are the first ``2 * frozen``."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]


class ClassifierHead:
    """Per-class embeddings (``theta``) plus the variant-specific logit rule;
    ``other`` is the cosine head's scale, or the other heads' bias."""

    def __init__(self, variant: str, theta: Array, other: Array, registry: ClassRegistry):
        if variant not in HEAD_VARIANTS:
            raise ConfigError(f"unknown head variant {variant!r}")
        self.variant = variant
        self.registry = registry
        self.theta = theta
        self.bias, self.scale = (None, other) if variant == COSFC else (other, None)

    @property
    def num_classes(self) -> int:
        return len(self.registry)

    def expand(self, task_id: int, rng: np.random.Generator) -> None:
        """Append the real and fake class rows for a new task, drawn from ``rng``."""
        if self.variant == SIGMOID:
            raise ProtocolError("sigmoid heads keep a single unit; register the task instead")
        self.registry.add_task(task_id)
        width = self.theta.shape[1]
        new_rows = _uniform_init(rng, (2, width), width)
        self.theta = np.vstack([self.theta, new_rows])
        if self.variant == LINFC:
            self.bias = np.concatenate([self.bias, np.zeros(2)])

    def register_task(self, task_id: int) -> None:
        """Bookkeeping-only registration used by the sigmoid variant."""
        if self.variant != SIGMOID:
            raise ProtocolError("argmax heads must expand, not merely register")
        self.registry.add_task(task_id)

    def logits(self, features: Array) -> Array:
        return self.logits_and_cosines(features)[0]

    def logits_and_cosines(self, features: Array) -> tuple[Array, tuple | None]:
        """The variant's logits of feature rows, checked for finiteness, and
        for the cosine head ``np_cosine_matrix``'s outputs, which the
        training step back-propagates through (None for the other heads)."""
        if features.shape[0] == 0:
            raise ContractError("empty batch")
        if self.variant != SIGMOID and self.num_classes == 0:
            raise ProtocolError("head has no classes; expand it first")
        if self.variant == COSFC:
            cosines = dc.np_cosine_matrix(features, self.theta)
            return dc.checked(dc.checked(cosines[0], "head cosines") * self.scale, "logits"), cosines
        return dc.checked(features @ self.theta.T + self.bias, "logits"), None

    def parameters(self) -> list[Array]:
        """``theta``, then ``scale`` (cosine head) or ``bias`` (the others)."""
        return [self.theta, self.bias if self.scale is None else self.scale]


class Model:
    """Feature extractor composed with a classifier head."""

    def __init__(self, extractor: FeatureExtractor, head: ClassifierHead):
        self.extractor = extractor
        self.head = head

    @classmethod
    def build(
        cls,
        input_width: int,
        variant: str,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (64, 64),
        feature_width: int = 32,
    ) -> "Model":
        """A new model drawn from ``rng``: each layer's weights then bias,
        bottom first, then the sigmoid head's unit; an argmax head has no class."""
        widths = (input_width, *hidden, feature_width)
        layers = [(_uniform_init(rng, (i, o), i), _uniform_init(rng, (o,), i)) for i, o in zip(widths, widths[1:])]
        # capture at layer 0: a shallow capture keeps most layers trainable
        extractor = FeatureExtractor([w for w, _ in layers], [b for _, b in layers], 0)
        if variant == SIGMOID:  # one fixed output unit for the whole run
            theta, other = _uniform_init(rng, (1, feature_width), feature_width), np.zeros(1)
        else:
            theta, other = np.zeros((0, feature_width)), np.asarray(1.0) if variant == COSFC else np.zeros(0)
        return cls(extractor, ClassifierHead(variant, theta, other, ClassRegistry()))

    def forward(self, x) -> tuple[Array, Array]:
        """Features and logits."""
        features = self.extractor.forward(x)
        return features, self.head.logits(features)

    def forward_from_latent(self, latent) -> tuple[Array, Array]:
        """Features and logits from a capture-layer activation."""
        features = self.extractor.forward_from_latent(latent)
        return features, self.head.logits(features)

    def parameters(self) -> list[Array]:
        return self.extractor.parameters() + self.head.parameters()

    def set_parameters(self, params: list[Array]) -> None:
        """Rebind every parameter to the given arrays, in ``parameters()`` order."""
        ext, head, n = self.extractor, self.head, 2 * len(self.extractor.weights)
        ext.weights, ext.biases = list(params[0:n:2]), list(params[1:n:2])
        head.theta, other = params[n:]
        head.bias, head.scale = (other, None) if head.scale is None else (None, other)

    def snapshot(self) -> "Model":
        """Deep copy; training the live model never changes its outputs. Only
        ``cddet verify`` and the tests take one: a run reads the old model's
        outputs from the live model before a session changes it."""
        if not self.head.registry.tasks:
            raise ProtocolError("snapshot requires at least one registered task")
        return copy.deepcopy(self)


def predict_binary(head: ClassifierHead, logits: Array) -> Array:
    """Map logits to polarity labels; argmax ties resolve to the lowest class."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if head.variant == SIGMOID:
        return (dc.np_sigmoid(logits[:, 0]) >= 0.5).astype(np.int64)
    return np.argmax(logits, axis=1) % 2


def predict_class(logits: Array) -> Array:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return np.argmax(logits, axis=1)


def fake_score(head: ClassifierHead, logits: Array) -> Array:
    """Probability-like fake score: sigmoid output, or M_F / (M_F + M_R)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if head.variant == SIGMOID:
        return dc.np_sigmoid(logits[:, 0])
    mask = head.registry.fake_mask()
    if not mask.size:
        raise ContractError("registry must contain both fake and real classes")
    activations = dc.np_softmax(logits, axis=1)
    m_fake = activations[:, mask].max(axis=1)
    m_real = activations[:, ~mask].max(axis=1)
    total = m_fake + m_real
    if np.any(total == 0.0):
        raise DegenerateInputError("zero activation mass on both polarities")
    return m_fake / total


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "cddet-checkpoint-v1"


def _model_payload(model: Model) -> dict:
    head = model.head
    theta, other = head.parameters()
    head_payload = {"theta": theta.tolist(), "bias" if head.scale is None else "scale": other.tolist()}
    return {
        "widths": list(model.extractor.widths),
        "capture_layer": model.extractor.capture_layer,
        "variant": head.variant,
        "registry": [[task_id, polarity] for task_id in head.registry.tasks for polarity in (REAL, FAKE)],
        "extractor": {
            "weights": [w.tolist() for w in model.extractor.weights],
            "biases": [b.tolist() for b in model.extractor.biases],
        },
        "head": head_payload,
        "sessions_trained": len(head.registry.tasks),
    }


def _stored_array(value, shape: tuple[int, ...], field: str) -> Array:
    """A stored parameter array, which must be finite and have exactly the
    expected shape."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"checkpoint field {field}: not a numeric array") from None
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)  # an empty head is stored as []
    if arr.shape != shape:
        raise ConfigError(f"checkpoint field {field}: shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise ConfigError(f"checkpoint field {field}: non-finite entries")
    return arr


def _stored_list(value, count: int, field: str) -> list:
    if not isinstance(value, list) or len(value) != count:
        found = len(value) if isinstance(value, list) else type(value).__name__
        raise ConfigError(f"checkpoint field {field}: expected {count} entries, found {found}")
    return value


def _model_from_payload(payload: dict) -> Model:
    """Rebuild a model, checking every stored array against ``widths`` and
    the registry, so a truncated or reshaped checkpoint cannot load."""
    try:
        widths = tuple(int(w) for w in payload["widths"])
        n_layers = max(len(widths) - 1, 0)
        weights = _stored_list(payload["extractor"]["weights"], n_layers, "model.extractor.weights")
        biases = _stored_list(payload["extractor"]["biases"], n_layers, "model.extractor.biases")
        for i in range(n_layers):
            weights[i] = _stored_array(weights[i], (widths[i], widths[i + 1]), f"model.extractor.weights[{i}]")
            biases[i] = _stored_array(biases[i], (widths[i + 1],), f"model.extractor.biases[{i}]")
        extractor = FeatureExtractor(weights, biases, payload["capture_layer"])
        entries = [tuple(entry) for entry in payload["registry"]]
        tasks = [entry[0] for entry in entries[::2] if entry]
        if entries != [(t, p) for t in tasks for p in (REAL, FAKE)] or len(set(tasks)) < len(tasks):
            raise ConfigError("checkpoint field model.registry: entries must be [task_id, 0], [task_id, 1] per task")
        variant, stored = payload["variant"], payload["head"]
        rows = 1 if variant == SIGMOID else len(entries)
        theta = _stored_array(stored["theta"], (rows, widths[-1]), "model.head.theta")
        name, shape = ("scale", ()) if variant == COSFC else ("bias", (rows,))
        other = _stored_array(stored[name], shape, f"model.head.{name}")
        count = payload["sessions_trained"]
        if type(count) is not int or count != len(tasks):
            raise ConfigError(f"checkpoint field model.sessions_trained: {count!r}, expected {len(tasks)}")
        model = Model(extractor, ClassifierHead(variant, theta, other, ClassRegistry(tasks)))
    except KeyError as exc:
        raise ConfigError(f"checkpoint lacks field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint: {exc}") from None
    return model


def save_checkpoint(path, model: Model, memory_payload: dict | None = None) -> None:
    blob = {
        "format": CHECKPOINT_FORMAT,
        "model": _model_payload(model),
        "memory": memory_payload,
    }
    with open(path, "w", encoding="utf-8") as fh:
        _write_json(fh, blob)


def _write_json(fh, obj) -> None:
    """Write what ``json.dump(obj, fh, sort_keys=True)`` writes, with each
    numpy array written as its ``tolist()``.

    ``json.dump`` to a file always runs the pure-Python encoder, and one
    ``json.dumps`` of the whole checkpoint holds every float's text at once,
    several times the file's size. So objects, lists of lists and arrays of
    two or more dimensions (the exemplar rows) are walked here, an array row
    by row, and each other value (a parameter row, an exemplar) is encoded
    by one ``json.dumps`` call, which runs the C encoder.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write(", " if i else "")
            fh.write(json.dumps(key) + ": ")
            _write_json(fh, obj[key])
        fh.write("}")
    elif (isinstance(obj, np.ndarray) and obj.ndim > 1) or (
        isinstance(obj, list) and obj and isinstance(obj[0], (list, dict))
    ):
        fh.write("[")
        for i, item in enumerate(obj):
            fh.write(", " if i else "")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(obj.tolist() if isinstance(obj, np.ndarray) else obj, sort_keys=True))


def load_checkpoint(path) -> tuple[Model, dict | None]:
    """The model and the memory payload a checkpoint file holds. A file that
    cannot be read, or is not UTF-8, raises ``ParseError`` naming it; one
    that is not a checkpoint, ``ConfigError``."""
    try:
        blob = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"checkpoint {path}: not a JSON document ({exc})") from None
    found = blob.get("format") if isinstance(blob, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {found!r}")
    if not isinstance(blob.get("model"), dict):
        raise ConfigError("checkpoint lacks field 'model'")
    model = _model_from_payload(blob["model"])
    memory = blob.get("memory")
    if memory is not None:
        ExemplarMemory.from_payload(memory, model)
    return model, memory
