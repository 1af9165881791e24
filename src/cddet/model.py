"""Network model: an MLP feature extractor plus an expandable classifier head.

Forward passes run in one of two modes. With ``tape=True`` each layer is
one recorded op (``affine_relu`` for hidden layers, ``linear`` for the
linfc and sigmoid heads), for training. The default records no tape: layers
run on plain arrays, with the same arithmetic and the same per-layer
finiteness check, for evaluation, herding, latent capture and snapshots.

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
precision through JSON's repr-based serialisation.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .diffcore import Array, Tensor
from .errors import ConfigError, ContractError, DegenerateInputError, ProtocolError

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

    def polarity(self, class_idx: int) -> int:
        return self.entries[class_idx][1]

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
    replayed payloads re-enter just after that layer.
    """

    def __init__(self, widths: tuple[int, ...], capture_layer: int, rng: np.random.Generator):
        if len(widths) < 2:
            raise ConfigError("extractor needs at least input and feature widths")
        n_hidden = len(widths) - 2
        if not 0 <= capture_layer < max(n_hidden, 1):
            raise ConfigError(f"capture layer {capture_layer} out of range for {n_hidden} hidden layers")
        self.widths = tuple(int(w) for w in widths)
        self.capture_layer = capture_layer
        self.weights: list[Tensor] = []
        self.biases: list[Tensor] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            self.weights.append(Tensor(_uniform_init(rng, (fan_in, fan_out), fan_in), requires_grad=True))
            self.biases.append(Tensor(_uniform_init(rng, (fan_out,), fan_in), requires_grad=True))

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def feature_width(self) -> int:
        return self.widths[-1]

    @property
    def latent_width(self) -> int:
        return self.widths[self.capture_layer + 1]

    def _as_tensor(self, x) -> Tensor:
        return x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))

    def forward(self, x, tape: bool = False) -> Tensor:
        features, _ = self.forward_with_capture(x, tape)
        return features

    def forward_with_capture(self, x, tape: bool = False) -> tuple[Tensor, Array]:
        """Full forward; also returns the capture-layer activation as an array."""
        h = self._as_tensor(x)
        if h.shape[1] != self.input_width:
            raise ContractError(f"input width {h.shape[1]} != {self.input_width}")
        if h.shape[0] == 0:
            raise ContractError("empty batch")
        features, latent = self._layers(h, 0, tape)
        if latent is None:  # single linear layer: capture the input itself
            latent = h.data.copy()
        return features, latent

    def forward_from_latent(self, latent, tape: bool = False) -> Tensor:
        """Resume the forward pass from a stored capture-layer activation."""
        h = self._as_tensor(latent)
        if h.shape[1] != self.latent_width:
            raise ContractError(f"latent width {h.shape[1]} != {self.latent_width}")
        features, _ = self._layers(h, self.capture_layer + 1, tape)
        return features

    def _layers(self, h: Tensor, start: int, tape: bool) -> tuple[Tensor, Array | None]:
        """Layers ``start`` onward, plus the capture-layer activation if passed."""
        last = len(self.weights) - 1
        latent: Array | None = None
        if tape:
            for i in range(start, last + 1):
                layer = dc.affine_relu if i < last else dc.affine
                h = layer(h, self.weights[i], self.biases[i])
                if i == self.capture_layer and i < last:
                    latent = h.data.copy()
            return h, latent
        z = h.data
        for i in range(start, last + 1):
            z = dc.checked(z @ self.weights[i].data + self.biases[i].data)
            if i < last:
                z = dc.np_relu(z)
                if i == self.capture_layer:
                    latent = z
        return Tensor(z), latent

    def parameters(self) -> list[Tensor]:
        return list(self.weights) + list(self.biases)


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
            self.theta = Tensor(_uniform_init(rng, (1, feature_width), feature_width), requires_grad=True)
            self.bias = Tensor(np.zeros(1), requires_grad=True)
            self.scale = None
        else:
            self.theta = Tensor(np.zeros((0, feature_width)), requires_grad=True)
            self.bias = Tensor(np.zeros(0), requires_grad=True) if variant == LINFC else None
            self.scale = Tensor(np.asarray(1.0), requires_grad=True) if variant == COSFC else None

    @property
    def num_classes(self) -> int:
        return len(self.registry)

    def expand(self, task_id: int) -> None:
        """Append the real and fake class rows for a new task."""
        if self.variant == SIGMOID:
            raise ProtocolError("sigmoid heads keep a single unit; register the task instead")
        self.registry.add_task(task_id)
        new_rows = _uniform_init(self._rng, (2, self.feature_width), self.feature_width)
        self.theta = Tensor(np.vstack([self.theta.data, new_rows]), requires_grad=True)
        if self.variant == LINFC:
            self.bias = Tensor(np.concatenate([self.bias.data, np.zeros(2)]), requires_grad=True)

    def register_task(self, task_id: int) -> None:
        """Bookkeeping-only registration used by the sigmoid variant."""
        if self.variant != SIGMOID:
            raise ProtocolError("argmax heads must expand, not merely register")
        self.registry.add_task(task_id)

    def logits(self, features: Tensor, tape: bool = False) -> Tensor:
        if features.shape[0] == 0:
            raise ContractError("empty batch")
        if self.variant != SIGMOID and self.num_classes == 0:
            raise ProtocolError("head has no classes; expand it first")
        if self.variant == COSFC:
            if tape:
                cos = dc.cosine_matrix(features, self.theta)
                return dc.mul(cos, _broadcast_scalar(self.scale, cos.shape))
            cos = dc.np_cosine_matrix(features.data, self.theta.data)[0]
            return Tensor(cos * self.scale.data)
        if tape:
            return dc.linear(features, self.theta, self.bias)
        return Tensor(features.data @ self.theta.data.T + self.bias.data)

    def parameters(self) -> list[Tensor]:
        params = [self.theta]
        if self.bias is not None:
            params.append(self.bias)
        if self.scale is not None:
            params.append(self.scale)
        return params


def _broadcast_scalar(s: Tensor, shape: tuple[int, ...]) -> Tensor:
    """Tile a scalar parameter to ``shape`` so elementwise ops stay shape-exact."""
    data = np.broadcast_to(s.data, shape).copy()

    def backward(g: Array) -> None:
        dc._accumulate(s, np.asarray(g.sum()))

    return dc._op(data, (s,), backward)


class Model:
    """Feature extractor composed with a classifier head."""

    def __init__(self, extractor: FeatureExtractor, head: ClassifierHead, frozen: bool = False):
        self.extractor = extractor
        self.head = head
        self.frozen = frozen
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

    def forward(self, x) -> tuple[Tensor, Tensor]:
        """Features and logits, recording no tape."""
        features = self.extractor.forward(x)
        return features, self.head.logits(features)

    def forward_from_latent(self, latent) -> tuple[Tensor, Tensor]:
        """Features and logits from a capture-layer activation, recording no tape."""
        features = self.extractor.forward_from_latent(latent)
        return features, self.head.logits(features)

    def parameters(self) -> list[Tensor]:
        return self.extractor.parameters() + self.head.parameters()

    def snapshot(self) -> "Model":
        """Frozen deep copy; training the live model never changes its outputs."""
        if self.sessions_trained < 1:
            raise ProtocolError("snapshot requires at least one trained session")
        clone = copy.deepcopy(self)
        clone.frozen = True
        for param in clone.parameters():
            param.requires_grad = False
            param.grad = None
        return clone


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
    head_payload: dict = {"theta": head.theta.data.tolist()}
    if head.bias is not None:
        head_payload["bias"] = head.bias.data.tolist()
    if head.scale is not None:
        head_payload["scale"] = float(head.scale.data)
    return {
        "widths": list(model.extractor.widths),
        "capture_layer": model.extractor.capture_layer,
        "variant": head.variant,
        "registry": [list(entry) for entry in head.registry.entries],
        "extractor": {
            "weights": [w.data.tolist() for w in model.extractor.weights],
            "biases": [b.data.tolist() for b in model.extractor.biases],
        },
        "head": head_payload,
        "sessions_trained": model.sessions_trained,
    }


def _stored_array(value, shape: tuple[int, ...], field: str) -> Array:
    """A stored parameter array, which must have exactly the expected shape."""
    try:
        arr = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigError(f"checkpoint field {field}: not a numeric array") from None
    if arr.size == 0 and 0 in shape:
        arr = arr.reshape(shape)  # an empty head is stored as []
    if arr.shape != shape:
        raise ConfigError(f"checkpoint field {field}: shape {arr.shape}, expected {shape}")
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
        for i in range(n_layers):
            extractor.weights[i].data = _stored_array(
                weights[i], (widths[i], widths[i + 1]), f"model.extractor.weights[{i}]"
            )
            extractor.biases[i].data = _stored_array(
                biases[i], (widths[i + 1],), f"model.extractor.biases[{i}]"
            )
        entries = [tuple(entry) for entry in payload["registry"]]
        if any(len(entry) != 2 or entry[1] not in (REAL, FAKE) for entry in entries):
            raise ConfigError("checkpoint field model.registry: entries must be [task_id, polarity]")
        head = ClassifierHead(payload["variant"], extractor.feature_width, rng)
        head.registry = ClassRegistry(entries)
        stored = payload["head"]
        rows = 1 if head.variant == SIGMOID else len(entries)
        head.theta = Tensor(
            _stored_array(stored["theta"], (rows, extractor.feature_width), "model.head.theta"),
            requires_grad=True,
        )
        if head.bias is not None:
            head.bias = Tensor(_stored_array(stored["bias"], (rows,), "model.head.bias"), requires_grad=True)
        if head.scale is not None:
            head.scale = Tensor(_stored_array(stored["scale"], (), "model.head.scale"), requires_grad=True)
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
        json.dump(blob, fh, sort_keys=True)


def load_checkpoint(path) -> tuple[Model, dict | None]:
    with open(path, encoding="utf-8") as fh:
        blob = json.load(fh)
    found = blob.get("format") if isinstance(blob, dict) else None
    if found != CHECKPOINT_FORMAT:
        raise ConfigError(f"unsupported checkpoint format {found!r}")
    if not isinstance(blob.get("model"), dict):
        raise ConfigError("checkpoint lacks field 'model'")
    return _model_from_payload(blob["model"]), blob.get("memory")
