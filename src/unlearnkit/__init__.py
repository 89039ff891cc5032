"""Desk-scale machine unlearning toolkit.

Train a small classifier, delete a standardized slice of its training data
with one of several teacher-student unlearning methods, and judge the result
with retrain-free metrics (test/forget/retain accuracy, wall time, FLOs,
membership-inference success, deletion capacity).
"""

from .config import UnlearnConfig, config_hash, train_hash
from .curriculum import SuperLossParams, lambert_w0
from .data import (DatasetSplit, SynthSpec, corrupt_labels, generate,
                   parse_data_name, sample_deletion_set)
from .errors import (BudgetError, ConfigError, DomainError,
                     InsufficientDataError, NumericError, ShapeError,
                     UnlearnkitError)
from .lora import LowRankAdapter, attach_adapter, merge_adapter
from .metrics import (EvalReport, MiaAttack, build_report, deletion_capacity,
                      evaluate, fit_mia, mia_success, split_logits)
from .nn import Model, build_model, count_flos, softmax
from .optim import OptimizerState, ParamMask, optimizer_step
from .unlearn import (METHODS, TAXONOMY, TeacherSpec, UnlearnRun, train_original, unlearn,
                      unlearn_group)

__version__ = "0.1.0"
