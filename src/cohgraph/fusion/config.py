"""Model and training configuration.

Each config checks every field on construction: its type (an int field
refuses bool and float, a float field takes an int, stores it as a float
and refuses bool and non-finite values) and its range. A bad field is a
ValueError naming it, so a config file or checkpoint header with one ends in
a one-line error, never in a traceback from deep in the model."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields

from ..variants import FUSION_VARIANTS, Variant

_PLAIN_TYPES = {"int": int, "bool": bool, "str": str}


def _check_types(config) -> None:
    """Check each int, float, bool and str field of a config dataclass
    against its annotation (a string here, under `from __future__ import
    annotations`); store float fields as floats."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float":
            if (isinstance(value, bool) or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, "
                                 f"got {value!r}")
            object.__setattr__(config, f.name, float(value))
        elif f.type in _PLAIN_TYPES and type(value) is not _PLAIN_TYPES[f.type]:
            raise ValueError(f"{f.name} must be of type {f.type}, "
                             f"got {value!r}")


def _at_least(config, minimum: int, *names: str) -> None:
    for name in names:
        if getattr(config, name) < minimum:
            raise ValueError(f"{name} must be >= {minimum}, "
                             f"got {getattr(config, name)}")


# Fields that checkpoints of formats 1 to 3 record, at the one value the model
# has: scores scaled by 1/sqrt(d_head), linear W_p, mean pooling over the
# sentence outputs, per-head u and v, a softplus FFN and three classes.
RETIRED_FIELDS = {"scale_scores": True, "position_activation": "none",
                  "pooling": "mean_sentences", "share_uv": False,
                  "ffn_activation": "softplus", "n_classes": 3}


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 256
    n_heads: int = 8
    n_layers: int = 2
    d_ffn: int = 0  # 0 means 4 * d_model
    dropout_rate: float = 0.1
    max_relative_distance: int = 128
    seed: int = 0
    # element embedding plumbing
    n_token_buckets: int = 1024
    n_entity_buckets: int = 256
    encoder_trainable: bool = True
    max_elements: int = 512
    # dtype of every parameter, activation, gradient and optimizer state
    dtype: str = "float32"             # "float32" | "float64"

    def __post_init__(self) -> None:
        _check_types(self)
        _at_least(self, 1, "d_model", "n_heads", "n_layers",
                  "max_relative_distance", "n_token_buckets",
                  "n_entity_buckets", "max_elements")
        _at_least(self, 0, "d_ffn", "seed")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"unknown dtype {self.dtype!r}; expected one of "
                             f"float32, float64")

    @property
    def d_head(self) -> int:
        return self.d_model // self.n_heads

    @property
    def ffn_dim(self) -> int:
        return self.d_ffn if self.d_ffn else 4 * self.d_model

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        """The config a checkpoint header records. A field that earlier
        checkpoints recorded and the model no longer has is dropped if it
        holds the one value the model now uses; any other value is a
        ValueError naming it."""
        data = dict(data)
        for name, fixed in RETIRED_FIELDS.items():
            if name in data:
                value = data.pop(name)
                if type(value) is not type(fixed) or value != fixed:
                    raise ValueError(f"retired field {name} must be "
                                     f"{fixed!r}, got {value!r}")
        return cls(**data)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    seed: int = 0
    variant: Variant = Variant.FULL

    def __post_init__(self) -> None:
        _check_types(self)
        _at_least(self, 1, "batch_size")
        _at_least(self, 0, "epochs")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be >= 0")
        if self.eps <= 0:
            raise ValueError(f"eps must be > 0, got {self.eps}")
        betas = self.betas
        if (not isinstance(betas, (tuple, list)) or len(betas) != 2
                or not all(isinstance(b, (int, float))
                           and not isinstance(b, bool) and 0.0 <= b < 1.0
                           for b in betas)):
            raise ValueError(f"betas must be two numbers in [0, 1), "
                             f"got {betas!r}")
        object.__setattr__(self, "betas", tuple(float(b) for b in betas))
        if not isinstance(self.variant, Variant):
            raise ValueError(f"variant must be a Variant, got {self.variant!r}")
        if self.variant not in FUSION_VARIANTS:
            raise ValueError(
                f"variant {self.variant.value} is prompt-only; a fusion model "
                f"trains under {', '.join(v.value for v in FUSION_VARIANTS)}")

    def to_dict(self) -> dict:
        data = asdict(self)
        data["variant"] = self.variant.value
        data["betas"] = list(self.betas)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        data = dict(data)
        if "variant" in data:
            data["variant"] = Variant(data["variant"])
        return cls(**data)


def config_hash(*configs) -> str:
    """Stable short hash over resolved configs, stamped into run artifacts."""
    blob = json.dumps([c.to_dict() for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
