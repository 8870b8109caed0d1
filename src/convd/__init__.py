"""Dynamic-convolution knowledge graph embeddings with priori-biased attention.

Relation embeddings are reshaped into internal convolution kernels whose
per-query contribution weights come from an attention mechanism biased by
entity-relation co-occurrence statistics. The package covers ingestion,
training, filtered evaluation, ablations, sweeps, and gradient checking.
"""

from .errors import ConvDError
from .model import ModelConfig, ModelParams, count_parameters, forward_score
from .training import TrainConfig, train
from .evaluation import MetricsReport, evaluate

__version__ = "0.1.0"

# The convolution has one NumPy implementation; the name stays because the
# benchmark records it in every run summary.
KERNEL_BACKEND = "python"

__all__ = [
    "ConvDError",
    "KERNEL_BACKEND",
    "MetricsReport",
    "ModelConfig",
    "ModelParams",
    "TrainConfig",
    "count_parameters",
    "evaluate",
    "forward_score",
    "train",
    "__version__",
]
