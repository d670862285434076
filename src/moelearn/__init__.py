"""Consistent parameter recovery for k-mixture-of-experts models.

Regressors are learnt from cross-moment tensors between transformed labels and
input score functions; gating parameters from an EM over the gating alone (or
a method of moments for two experts). A joint-EM baseline, permutation-matched
metrics, and an experiment CLI round out the package.
"""

from .activations import Activation, activation_eval
from .cqt import CqtCoefficients, apply_p2, apply_p3, check_conditions, solve_cqt
from .decomposition import (DecompositionOptions, DecompositionResult,
                            WhiteningMap, power_method, recover_regressors, whiten)
from .errors import ConfigError, DataError, MoeError, NumericalError
from .gating_em import (GatingState, e_step, em_curvature_constants, m_step,
                        run_em, run_gradient_em)
from .gating_mom import (RatioStatistic, compute_ratio, mom_gating,
                         naive_ratio_mean, ratio_cdf_oracle)
from .joint_em import JointState, run_joint_em
from .metrics import (FitReport, canonical_gauge, gating_fit, param_error,
                      regressor_fit)
from .model import (Dataset, InputDistribution, MoeModel, make_rng,
                    sample_dataset)
from .moments import (MomentAccumulator, accumulate, finalize, load_tensor_dump,
                      merge, raw_third_moment, save_tensor_dump)
from .experiments import ExperimentConfig, draw_instance, run_suite
from .pipeline import (PipelineOptions, PipelineResult, evaluate, fit_pipeline,
                       predict_moe)
from .scores import Sym2, Sym3, score2_gaussian, score3_gaussian, score_gmm
from .tabular import TabularDataset, ingest_csv

__version__ = "0.1.0"
