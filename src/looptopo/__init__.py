"""looptopo: topology-aware neural regression for parametric visibility inversion.

Building blocks: a loop-shape visibility forward model, analytic embeddings
of the non-Euclidean parameter space (circle, Moebius strip) with robust
inverses, a from-scratch MLP trainer, and the evaluation harness comparing
the naive and embedded inverse operators.
"""

from .analysis import (MetricReport, PcaModel, boxplot_stats, circular_error,
                       evaluate_predictions, moebius_error,
                       moebius_error_scaled, nearest_rank_quantile,
                       normalized_abs_error, pca_fit, pca_project)
from .data import (Dataset, SamplingConfig, StandardizationStats,
                   apply_standardization, fit_standardization,
                   generate_dataset, internal_intervals, load_dataset,
                   save_dataset)
from .diagnostics import Diagnostics
from .embeddings import (LoopParams, circle_embed, circle_inv, gamma, gamma_g,
                         gamma_g_inv, gamma_inv, moebius_distance)
from .errors import (ChecksumError, FormatVersionError, LoopTopoError,
                     ParseError, TrainingDivergedError, ValidationError)
from .forward_model import (FrequencyConfig, FrequencySet, GridSpec, LoopBuildConfig,
                      add_noise, build_loop_components, default_frequencies,
                      eval_image, fwhm_to_std, load_frequencies,
                      vis_to_reals, reals_to_vis,
                      visibilities_closed_form, visibilities_closed_form_batch,
                      visibilities_quadrature_oracle)
from .mlp import (AdamState, MlpConfig, MlpModel, TrainConfig, adam_step,
                  forward, init_mlp, load_checkpoint, loss_and_grad,
                  save_checkpoint, train)
from .regularizer import (build_targets, check_model_consistency, output_dim,
                          predict, train_embedded, train_naive)

__version__ = "0.1.0"
