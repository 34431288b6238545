"""looptopo: topology-aware neural regression for parametric visibility inversion.

Building blocks: a loop-shape visibility forward model, analytic embeddings
of the non-Euclidean parameter space (circle, Moebius strip) with robust
inverses, a from-scratch MLP trainer, and the evaluation harness comparing
the naive and embedded inverse operators.

The package namespace holds the entry points of a run and the error
classes; everything else is imported from its module.
"""

from .analysis import evaluate_predictions
from .data import (SamplingConfig, apply_standardization, generate_dataset,
                   internal_intervals, load_dataset, save_dataset)
from .diagnostics import Diagnostics
from .embeddings import gamma_g_inv
from .errors import (ChecksumError, FormatVersionError, LoopTopoError,
                     ParseError, TrainingDivergedError, ValidationError)
from .forward_model import reals_to_vis, visibilities_closed_form
from .mlp import MlpConfig, TrainConfig, forward, load_checkpoint, save_checkpoint
from .regularizer import predict, train_embedded, train_naive

__version__ = "0.1.0"
