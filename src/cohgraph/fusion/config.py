"""Model and training configuration."""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from ..variants import FUSION_VARIANTS, Variant


@dataclass(frozen=True)
class ModelConfig:
    d_model: int = 256
    n_heads: int = 8
    n_layers: int = 2
    d_ffn: int = 0  # 0 means 4 * d_model
    dropout_rate: float = 0.1
    n_classes: int = 3
    max_relative_distance: int = 128
    seed: int = 0
    # element embedding plumbing
    n_token_buckets: int = 1024
    n_entity_buckets: int = 256
    encoder_trainable: bool = True
    max_elements: int = 512
    # documented switches around the attention formulation
    scale_scores: bool = True        # multiply scores by 1/sqrt(d_head)
    position_activation: str = "none"  # "none" | "relu" applied after W_p
    pooling: str = "mean_sentences"    # "mean_sentences" | "first_sentence"
    share_uv: bool = False             # share u, v across heads within a layer
    # smooth rectifier by default so finite-difference gradient checks are
    # well-posed at the pinned epsilon; "relu" is the classical alternative
    ffn_activation: str = "softplus"   # "softplus" | "relu"

    def __post_init__(self) -> None:
        if self.d_model < 1 or self.n_heads < 1 or self.n_layers < 1:
            raise ValueError("all dimensions must be >= 1")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate {self.dropout_rate} outside [0, 1)")
        if self.n_classes != 3:
            raise ValueError("n_classes is fixed at 3")
        if self.max_relative_distance < 1:
            raise ValueError("max_relative_distance must be >= 1")
        if self.d_ffn < 0:
            raise ValueError("d_ffn must be >= 0 (0 selects 4 * d_model)")
        if self.position_activation not in ("none", "relu"):
            raise ValueError(f"unknown position_activation {self.position_activation!r}")
        if self.pooling not in ("mean_sentences", "first_sentence"):
            raise ValueError(f"unknown pooling {self.pooling!r}")
        if self.ffn_activation not in ("softplus", "relu"):
            raise ValueError(f"unknown ffn_activation {self.ffn_activation!r}")

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
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        if self.lr < 0 or self.weight_decay < 0:
            raise ValueError("lr and weight_decay must be >= 0")
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
        if "betas" in data:
            data["betas"] = tuple(data["betas"])
        return cls(**data)


def config_hash(*configs) -> str:
    """Stable short hash over resolved configs, stamped into run artifacts."""
    blob = json.dumps([c.to_dict() for c in configs], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]
