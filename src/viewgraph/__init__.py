"""Multi-view 3D shape recognition over spatially weighted view graphs.

Views of a shape are embedded into soft pattern assignments, pairwise
pattern correlations are accumulated around each view node with weights
that decay with angular distance on the viewing sphere, an attention
module scores and aggregates the node descriptors, and a small classifier
head produces class probabilities and a global feature usable for
retrieval. Training is plain mini-batch SGD with hand-derived gradients.
"""

from .dataio import Dataset, ShapeSample, generate_synthetic
from .errors import DataIOError, FormatError, ValidationError, ViewGraphError
from .evalmetrics import RetrievalRun, accuracy, mean_average_precision, shrec_metrics
from .geometry import ViewGraph, build_view_graph, default_viewpoints
from .model import (
    ForwardTrace,
    ModelParams,
    TrainConfig,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .trainer import TrainResult, grad_check, train

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "ShapeSample",
    "generate_synthetic",
    "DataIOError",
    "FormatError",
    "ValidationError",
    "ViewGraphError",
    "RetrievalRun",
    "accuracy",
    "mean_average_precision",
    "shrec_metrics",
    "ViewGraph",
    "build_view_graph",
    "default_viewpoints",
    "ForwardTrace",
    "ModelParams",
    "TrainConfig",
    "backward",
    "forward",
    "init_model",
    "load_checkpoint",
    "save_checkpoint",
    "TrainResult",
    "grad_check",
    "train",
    "__version__",
]
