"""Position-aware fusion transformer: model, training, and checkpointing."""

from .config import ModelConfig, TrainConfig
from .encoder import HashBucketSentenceEncoder
from .masking import visible_matrix
from .model import DropoutStream, FusionModel, HeadParams
from .positions import sinusoid
from .train import EpochMetrics, FusionClassifier, train

__all__ = [
    "DropoutStream", "EpochMetrics", "FusionClassifier", "FusionModel",
    "HashBucketSentenceEncoder", "HeadParams", "ModelConfig", "TrainConfig",
    "sinusoid", "train", "visible_matrix",
]
