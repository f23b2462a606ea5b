"""Position-aware fusion transformer: model, training, and checkpointing."""

from .config import ModelConfig, TrainConfig
from .encoder import HashBucketSentenceEncoder
from .masking import masked_softmax, visible_matrix
from .model import DropoutStream, FusionModel, HeadParams
from .positions import sinusoid
from .train import EpochMetrics, FusionClassifier, train

__all__ = [
    "DropoutStream", "EpochMetrics", "FusionClassifier", "FusionModel",
    "HashBucketSentenceEncoder", "HeadParams", "ModelConfig", "TrainConfig",
    "masked_softmax", "sinusoid", "train", "visible_matrix",
]
