"""Network model: an MLP feature extractor plus an expandable classifier head.

Forward passes take and return plain arrays and record no tape. Layers run
in ``np_activations``, with a finiteness check on every pre-activation, and
the head's logit rule is ``ClassifierHead.logits_and_cosines``, which checks
its cosines and logits. Training, evaluation, herding, latent capture and
snapshots all run this one path. Parameters are plain arrays; the reference
loss on the tape (``losses.total_loss``) wraps them in its own leaves.

Three head variants are supported: a plain linear head ("linfc"), a
cosine-normalised head with a learnable positive scale ("cosfc"), and a
single-unit sigmoid head ("sigmoid") whose output never grows with the
number of sessions. Argmax heads carry one real and one fake class per task,
appended real-first, and a registry mapping each class index to its
(task id, polarity).

Checkpoint format (JSON, one object per file):
    {"format": "cddet-checkpoint-v1",
     "model": {"widths": [...], "capture_layer": int, "variant": str,
               "registry": [[task_id, polarity], ...],
               "extractor": {"weights": [...], "biases": [...]},
               "head": {...per-variant parameter arrays...},
               "sessions_trained": int},
     "memory": {...} | null}
Parameter arrays appear in declaration order and round-trip at full float64
precision through JSON's repr-based serialisation. Loading checks every
array's shape against ``widths`` and the registry, and the memory half
against the model (``ExemplarMemory.from_payload``).
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Array
from .errors import ConfigError, ContractError, DegenerateInputError, ProtocolError
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
    """Total map from class index to (task id, polarity); real comes first."""

    entries: list[tuple[int, int]] = field(default_factory=list)

    def add_task(self, task_id: int) -> tuple[int, int]:
        if task_id in self.task_ids():
            raise ProtocolError(f"task {task_id} already registered")
        real_idx = len(self.entries)
        self.entries.append((task_id, REAL))
        self.entries.append((task_id, FAKE))
        return real_idx, real_idx + 1

    def task_ids(self) -> list[int]:
        seen: list[int] = []
        for task_id, _ in self.entries:
            if task_id not in seen:
                seen.append(task_id)
        return seen

    def class_of(self, task_id: int, polarity: int) -> int:
        for idx, entry in enumerate(self.entries):
            if entry == (task_id, polarity):
                return idx
        raise ContractError(f"no class registered for task {task_id} polarity {polarity}")

    def fake_mask(self) -> Array:
        return np.array([pol == FAKE for _, pol in self.entries], dtype=bool)

    def __len__(self) -> int:
        return len(self.entries)


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

    def __init__(self, widths: tuple[int, ...], capture_layer: int, rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("extractor needs at least input and feature widths")
        n_hidden = len(widths) - 2
        if not 0 <= capture_layer < max(n_hidden, 1):
            raise ConfigError(f"capture layer {capture_layer} out of range for {n_hidden} hidden layers")
        self.widths = tuple(int(w) for w in widths)
        self.capture_layer = capture_layer
        self.frozen = 0
        self.weights: list[Array] = []
        self.biases: list[Array] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(_uniform_init(rng, (fan_in, fan_out), fan_in))
            self.biases.append(_uniform_init(rng, (fan_out,), fan_in))

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def feature_width(self) -> int:
        return self.widths[-1]

    @property
    def latent_width(self) -> int:
        return self.widths[self.capture_layer + 1]

    def forward(self, x) -> Array:
        return self.forward_with_capture(x)[0]

    def forward_with_capture(self, x) -> tuple[Array, Array]:
        """Features, plus the capture-layer activation (the input itself when
        the extractor is a single linear layer)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if x.shape[1] != self.input_width:
            raise ContractError(f"input width {x.shape[1]} != {self.input_width}")
        if x.shape[0] == 0:
            raise ContractError("empty batch")
        acts = self.np_activations(x)
        capture = self.capture_layer + 1
        return acts[-1], acts[capture] if capture < len(acts) - 1 else x.copy()

    def forward_from_latent(self, latent) -> Array:
        """Resume the forward pass from a stored capture-layer activation."""
        h = np.atleast_2d(np.asarray(latent, dtype=np.float64))
        if h.shape[1] != self.latent_width:
            raise ContractError(f"latent width {h.shape[1]} != {self.latent_width}")
        return self.np_activations(h, self.capture_layer + 1)[-1]

    def np_activations(self, x: Array, start: int = 0, stop: int | None = None) -> list[Array]:
        """Layers ``start`` onward (up to, not including, ``stop``) on plain
        arrays, with the tape's arithmetic and a finiteness check on every
        pre-activation: ``x``, then each hidden layer's relu output, then
        the features."""
        acts = [x]
        last = len(self.weights) - 1
        for i in range(start, last + 1 if stop is None else stop):
            z = dc.checked(acts[-1] @ self.weights[i] + self.biases[i], f"layer {i} pre-activation")
            acts.append(dc.np_relu(z) if i < last else z)
        return acts

    def parameters(self) -> list[Array]:
        """Each layer's weights then its bias, bottom first: the frozen layers' are the first ``2 * frozen``."""
        return [p for layer in zip(self.weights, self.biases) for p in layer]


class ClassifierHead:
    """Per-class embeddings plus the variant-specific logit rule."""

    def __init__(self, variant: str, feature_width: int, rng: np.random.Generator):
        if variant not in HEAD_VARIANTS:
            raise ConfigError(f"unknown head variant {variant!r}")
        self.variant = variant
        self.feature_width = feature_width
        self.registry = ClassRegistry()
        self._rng = rng
        if variant == SIGMOID:
            # one fixed output unit for the whole run
            self.theta = _uniform_init(rng, (1, feature_width), feature_width)
            self.bias = np.zeros(1)
            self.scale = None
        else:
            self.theta = np.zeros((0, feature_width))
            self.bias = np.zeros(0) if variant == LINFC else None
            self.scale = np.asarray(1.0) if variant == COSFC else None

    @property
    def num_classes(self) -> int:
        return len(self.registry)

    def expand(self, task_id: int) -> None:
        """Append the real and fake class rows for a new task."""
        if self.variant == SIGMOID:
            raise ProtocolError("sigmoid heads keep a single unit; register the task instead")
        self.registry.add_task(task_id)
        new_rows = _uniform_init(self._rng, (2, self.feature_width), self.feature_width)
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
        self.sessions_trained = 0

    @classmethod
    def build(
        cls,
        input_width: int,
        variant: str,
        rng: np.random.Generator,
        hidden: tuple[int, ...] = (64, 64),
        feature_width: int = 32,
        capture_layer: int | None = None,
    ) -> "Model":
        widths = (input_width, *hidden, feature_width)
        if capture_layer is None:
            capture_layer = 0  # shallow capture keeps most layers trainable
        extractor = FeatureExtractor(widths, capture_layer, rng)
        head = ClassifierHead(variant, feature_width, rng)
        return cls(extractor, head)

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
        """Deep copy; training the live model never changes its outputs."""
        if self.sessions_trained < 1:
            raise ProtocolError("snapshot requires at least one trained session")
        return copy.deepcopy(self)


def predict_binary(head: ClassifierHead, logits: Array, system: str) -> Array:
    """Map logits to polarity labels; argmax ties resolve to the lowest class."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if system == BC:
        return (dc.np_sigmoid(logits[:, 0]) >= 0.5).astype(np.int64)
    polarity = np.array([pol for _, pol in head.registry.entries], dtype=np.int64)
    return polarity[np.argmax(logits, axis=1)]


def predict_class(logits: Array) -> Array:
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    return np.argmax(logits, axis=1)


def fake_score(head: ClassifierHead, logits: Array, system: str) -> Array:
    """Probability-like fake score: sigmoid output, or M_F / (M_F + M_R)."""
    logits = np.atleast_2d(np.asarray(logits, dtype=np.float64))
    if system == BC:
        return dc.np_sigmoid(logits[:, 0])
    mask = head.registry.fake_mask()
    if not mask.any() or mask.all():
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
        "registry": [list(entry) for entry in head.registry.entries],
        "extractor": {
            "weights": [w.tolist() for w in model.extractor.weights],
            "biases": [b.tolist() for b in model.extractor.biases],
        },
        "head": head_payload,
        "sessions_trained": model.sessions_trained,
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
        rng = np.random.default_rng(0)  # placeholder; every parameter is replaced
        extractor = FeatureExtractor(widths, payload["capture_layer"], rng)
        n_layers = len(widths) - 1
        weights = _stored_list(payload["extractor"]["weights"], n_layers, "model.extractor.weights")
        biases = _stored_list(payload["extractor"]["biases"], n_layers, "model.extractor.biases")
        for i, (w, b) in enumerate(zip(weights, biases)):
            extractor.weights[i] = _stored_array(w, (widths[i], widths[i + 1]), f"model.extractor.weights[{i}]")
            extractor.biases[i] = _stored_array(b, (widths[i + 1],), f"model.extractor.biases[{i}]")
        entries = [tuple(entry) for entry in payload["registry"]]
        if any(len(entry) != 2 or entry[1] not in (REAL, FAKE) for entry in entries):
            raise ConfigError("checkpoint field model.registry: entries must be [task_id, polarity]")
        head = ClassifierHead(payload["variant"], extractor.feature_width, rng)
        head.registry = ClassRegistry(entries)
        stored = payload["head"]
        rows = 1 if head.variant == SIGMOID else len(entries)
        head.theta = _stored_array(stored["theta"], (rows, extractor.feature_width), "model.head.theta")
        name, shape = ("bias", (rows,)) if head.scale is None else ("scale", ())
        setattr(head, name, _stored_array(stored[name], shape, f"model.head.{name}"))
        model = Model(extractor, head)
        model.sessions_trained = int(payload["sessions_trained"])
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
    """Write what ``json.dump(obj, fh, sort_keys=True)`` writes.

    ``json.dump`` to a file always runs the pure-Python encoder, and one
    ``json.dumps`` of the whole checkpoint holds every float's text at once,
    several times the file's size. So objects and lists of lists are walked
    here, and each other value (a parameter row, an exemplar) is encoded by
    one ``json.dumps`` call, which runs the C encoder.
    """
    if isinstance(obj, dict):
        fh.write("{")
        for i, key in enumerate(sorted(obj)):
            fh.write(", " if i else "")
            fh.write(json.dumps(key) + ": ")
            _write_json(fh, obj[key])
        fh.write("}")
    elif isinstance(obj, list) and obj and isinstance(obj[0], (list, dict)):
        fh.write("[")
        for i, item in enumerate(obj):
            fh.write(", " if i else "")
            _write_json(fh, item)
        fh.write("]")
    else:
        fh.write(json.dumps(obj, sort_keys=True))


def load_checkpoint(path) -> tuple[Model, dict | None]:
    try:
        with open(path, encoding="utf-8") as fh:
            blob = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"checkpoint {path}: not a JSON document ({exc})") from None
    found = blob.get("format") if isinstance(blob, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {found!r}")
    if not isinstance(blob.get("model"), dict):
        raise ConfigError("checkpoint lacks field 'model'")
    model = _model_from_payload(blob["model"])
    memory = blob.get("memory")
    if memory is not None:
        ExemplarMemory.from_payload(memory, model.extractor)
    return model, memory
