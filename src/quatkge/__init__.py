"""Quaternion knowledge-graph embeddings with distance-based scoring."""

from .data import TripleStore, build_store, load_dataset, load_split
from .errors import (CheckpointError, ParseError, QuatKGEError,
                     ShapeMismatchError, ZeroQuaternionError)
from .evaluation import (ClassificationReport, RankingReport, link_prediction,
                         triple_classification)
from .model import (CandidateScorer, EmbeddingTable, init_embeddings,
                    load_checkpoint, save_checkpoint, score_triples)
from .train import (FitResult, GradientBuffer, TrainConfig, adagrad_step,
                    batch_loss, fit, grad_batch, sample_negatives)

__version__ = "0.1.0"

__all__ = [
    "CandidateScorer", "CheckpointError", "ClassificationReport",
    "EmbeddingTable", "FitResult", "GradientBuffer", "ParseError",
    "QuatKGEError", "RankingReport", "ShapeMismatchError", "TrainConfig",
    "TripleStore", "ZeroQuaternionError", "adagrad_step", "batch_loss",
    "build_store", "fit", "grad_batch", "init_embeddings", "link_prediction",
    "load_checkpoint", "load_dataset", "load_split", "sample_negatives",
    "save_checkpoint", "score_triples", "triple_classification", "__version__",
]
