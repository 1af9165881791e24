"""Network model: an MLP feature extractor plus an expandable classifier head.

Forward passes take and return plain arrays and record no tape. Layers run
in ``np_activations``, with a finiteness check on every pre-activation, and
the head's logit rule is ``ClassifierHead.logits_and_cosines``, which checks
its cosines and logits. Training, evaluation, herding, latent capture (layer
``capture_layer``'s output, on every extractor) and the distillation targets
all run this one path. Parameters are plain arrays; the reference loss on
the tape (``losses.total_loss``) wraps them in its own leaves.

Three head variants are supported: a plain linear head ("linfc"), a
cosine-normalised head with a learnable positive scale ("cosfc"), and a
single-unit sigmoid head ("sigmoid") whose output never grows with the
number of sessions. A head's registry is its task list: task i owns class 2i
(real) and class 2i + 1 (fake), so a class's polarity is its index mod 2.

Checkpoint format (JSON, one object per file):
    {"format": "cddet-checkpoint-v3",
     "model": {"widths": [int, ...], "capture_layer": int, "variant": str,
               "tasks": [task_id, ...],
               "extractor": {"weights": [array, ...], "biases": [array, ...]},
               "head": {...per-variant parameter arrays...}},
     "memory": {"kind": str, "budget": int,
                "classes": {"<class index>": array, ...}} | null}
Each array is one string: the base64 of its little-endian float64 bytes, in
C order, exact by construction. No array stores its shape: ``widths`` and
``tasks`` give each parameter's, and a memory class holds whole rows of the
model's raw or latent width. ``tasks`` holds each task once, in the order
the tasks came: it gives every class its task and polarity, and the sessions
trained (one task each). A memory class is its rows alone; its task is the
registry's. Loading requires JSON integers (no bools) for the integer fields
and widths of at least 1, decodes each array once (its base64, byte count
and finiteness checked), and checks the memory half against the model
(``ExemplarMemory.from_payload``). This section alone knows the encoding.

A model is its arrays, so a checkpoint holds the whole model: no model
holds a generator, and ``ClassifierHead.expand`` draws from the one it is given.
"""

from __future__ import annotations

import base64
import copy
import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Array
from .errors import ConfigError, ContractError, DegenerateInputError, ProtocolError, read_text
from .memory import PAYLOAD_KINDS, RAW, ExemplarMemory

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

    ``capture_layer`` indexes the layer whose output is stored for latent
    replay; replayed payloads re-enter just after that layer. ``frozen``
    counts the bottom layers that do not train: latent replay sets it to
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
        """Features, plus layer ``capture_layer``'s output, the latent that
        ``forward_from_latent`` resumes from: on a single linear layer, the
        features themselves. The layers up to the capture layer run first,
        then the rest."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_width:
            raise ContractError(f"input width {x.shape[1]} != {self.input_width}")
        if x.shape[0] == 0:
            raise ContractError("empty batch")
        captured = self.np_activations(x, 0, self.capture_layer + 1)[-1]
        return self.np_activations(captured, self.capture_layer + 1)[-1], captured

    def forward_from_latent(self, latent) -> Array:
        """Resume the forward pass from a stored capture-layer activation."""
        h = np.atleast_2d(np.asarray(latent, dtype=np.float64))
        if h.shape[1] != self.latent_width:
            raise ContractError(f"latent width {h.shape[1]} != {self.latent_width}")
        return self.np_activations(h, self.capture_layer + 1)[-1]

    def np_activations(self, x: Array, start: int, stop: int | None = None) -> list[Array]:
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

CHECKPOINT_FORMAT = "cddet-checkpoint-v3"


def _encoded(arr: Array) -> str:
    """An array as the base64 of its little-endian float64 bytes, in C order."""
    return base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")


def _decoded(value, shape: tuple[int, ...], field: str) -> Array:
    """A stored array of exactly ``shape`` (``(-1, width)``: any whole number
    of rows), as a finite, writeable float64 array of its own."""
    try:
        raw = base64.b64decode(value, validate=True)
    except (TypeError, ValueError):
        raise ConfigError(f"checkpoint field {field}: not a base64 string") from None
    rows = shape[:1] == (-1,)
    if len(raw) % (8 * math.prod(shape[1:])) if rows else len(raw) != 8 * math.prod(shape):
        raise ConfigError(f"checkpoint field {field}: {len(raw)} bytes do not hold float64s of shape {shape}")
    arr = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise ConfigError(f"checkpoint field {field}: non-finite entries")
    return arr


def _model_payload(model: Model) -> dict:
    head = model.head
    theta, other = head.parameters()
    return {
        "widths": list(model.extractor.widths),
        "capture_layer": model.extractor.capture_layer,
        "variant": head.variant,
        "tasks": list(head.registry.tasks),
        "extractor": {
            "weights": [_encoded(w) for w in model.extractor.weights],
            "biases": [_encoded(b) for b in model.extractor.biases],
        },
        "head": {"theta": _encoded(theta), "bias" if head.scale is None else "scale": _encoded(other)},
    }


def _stored_int(value, field: str) -> int:
    if type(value) is not int:  # a JSON integer: not a float, a string or a bool
        raise ConfigError(f"checkpoint field {field}: {value!r} is not an integer")
    return value


def _stored_list(value, count: int, field: str) -> list:
    if not isinstance(value, list) or len(value) != count:
        found = len(value) if isinstance(value, list) else type(value).__name__
        raise ConfigError(f"checkpoint field {field}: expected {count} entries, found {found}")
    return value


def _model_from_payload(payload: dict) -> Model:
    """Rebuild a model, decoding every stored array at the shape that
    ``widths`` and ``tasks`` give it, so a truncated or reshaped checkpoint
    cannot load."""
    try:
        widths = tuple(_stored_int(w, f"model.widths[{i}]") for i, w in enumerate(payload["widths"]))
        if any(w < 1 for w in widths):
            raise ConfigError(f"checkpoint field model.widths: {list(widths)} holds a width below 1")
        n_layers = max(len(widths) - 1, 0)
        weights = _stored_list(payload["extractor"]["weights"], n_layers, "model.extractor.weights")
        biases = _stored_list(payload["extractor"]["biases"], n_layers, "model.extractor.biases")
        weights = [_decoded(w, widths[i : i + 2], f"model.extractor.weights[{i}]") for i, w in enumerate(weights)]
        biases = [_decoded(b, (widths[i + 1],), f"model.extractor.biases[{i}]") for i, b in enumerate(biases)]
        extractor = FeatureExtractor(weights, biases, _stored_int(payload["capture_layer"], "model.capture_layer"))
        tasks = [_stored_int(t, f"model.tasks[{i}]") for i, t in enumerate(payload["tasks"])]
        if len(set(tasks)) < len(tasks):
            raise ConfigError(f"checkpoint field model.tasks: {tasks} holds a task twice")
        variant, stored = payload["variant"], payload["head"]
        rows = 1 if variant == SIGMOID else 2 * len(tasks)
        theta = _decoded(stored["theta"], (rows, widths[-1]), "model.head.theta")
        name, shape = ("scale", ()) if variant == COSFC else ("bias", (rows,))
        other = _decoded(stored[name], shape, f"model.head.{name}")
        return Model(extractor, ClassifierHead(variant, theta, other, ClassRegistry(tasks)))
    except KeyError as exc:
        raise ConfigError(f"checkpoint lacks field {exc.args[0]!r}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint: {exc}") from None


def _memory_from_payload(stored, model: Model):
    """The stored memory as ``ExemplarMemory.to_payload`` returns it, each
    class's rows decoded at the model's width for the memory's kind;
    ``ExemplarMemory.from_payload`` checks the rest against the model."""
    if isinstance(stored, dict) and stored.get("kind") in PAYLOAD_KINDS and isinstance(stored.get("classes"), dict):
        shape = (-1, model.extractor.input_width if stored["kind"] == RAW else model.extractor.latent_width)
        classes = {key: _decoded(rows, shape, f"memory.classes[{key!r}]") for key, rows in stored["classes"].items()}
        stored = {**stored, "classes": classes}
    ExemplarMemory.from_payload(stored, model)
    return stored


def save_checkpoint(path, model: Model, memory_payload: dict | None = None) -> None:
    """Write the model and a memory payload (``to_payload``'s, or the one
    ``load_checkpoint`` returns) as one JSON document."""
    memory = memory_payload
    if memory is not None:
        ExemplarMemory.from_payload(memory, model)  # no row count is stored, so rows must have the model's width
        memory = {**memory, "classes": {key: _encoded(rows) for key, rows in memory["classes"].items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format": CHECKPOINT_FORMAT, "model": _model_payload(model), "memory": memory}, fh, sort_keys=True)


def load_checkpoint(path) -> tuple[Model, dict | None]:
    """The model and the memory payload a checkpoint file holds, the payload
    as ``ExemplarMemory.to_payload`` returns it. A file that cannot be read,
    or is not UTF-8, raises ``ParseError`` naming it; one that is not a
    checkpoint, ``ConfigError``."""
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
    return model, None if memory is None else _memory_from_payload(memory, model)
