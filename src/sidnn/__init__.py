"""Nonlinear system identification with GRU and TCN sequence models.

Autoregressive (AR) and non-autoregressive (NAR) variants, trained from
scratch (hand-written backprop) with TBPTT, loss masking, RAdam+Lookahead,
cosine annealing, an lr finder, and ASHA hyperparameter search.
"""

from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .data import (
    SequenceData,
    Standardizer,
    WindowPlan,
    fit_standardizer,
    load_csv,
    load_descriptor,
    sample_windows,
    split_estimation,
    synth_wiener_hammerstein,
    wiener_hammerstein_response,
)
from .errors import SidnnError
from .hpo import SearchSpace, TrialRecord, asha_decide, run_search, sample_config
from .inference import bench_inference_cells, bench_training_cells, pooled_rmse, simulate
from .models import (
    ConvCache,
    HiddenState,
    Model,
    ModelSpec,
    ParamStore,
    conv_cache_step,
    init_params,
    receptive_field,
)
from .training import (
    TrainConfig,
    TrainState,
    cosine_schedule,
    fit,
    lr_finder,
    radam_lookahead_step,
    train_epoch,
)

__version__ = "0.1.0"
