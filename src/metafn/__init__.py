"""Cross-table pretraining for tabular prediction with calibratable linear layers.

A small numpy library: a float64 reverse-mode autodiff engine, a
tabular transformer whose feed-forward layers mix shared basis maps via
per-dataset calibration, the three-phase training paradigm (pretrain /
calibrate / refine), dataset preprocessing, and an evaluation harness.
"""

from .calinear import CaLinear, calinear_ffn_forward
from .checkpoint import Checkpoint, assembly_from_checkpoint, load_shared, save_checkpoint
from .data import (DatasetBundle, Schema, SynthSuiteSpec, generate_synth_suite,
                   load_csv, prepare)
from .errors import (CheckpointError, ConfigError, DataError, DimensionError,
                     MetafnError, UsageError)
from .gradcheck import check_gradients
from .model import DatasetSignature, ModelAssembly, ModelConfig
from .nn import Parameter, compute_loss, self_attention
from .optim import AdamW, lr_at
from .tensor import Tensor, layer_norm, no_grad, softmax
from .training import PhaseSpec, TrainLog, calibrate, pretrain, refine, train_from_scratch

__version__ = "0.1.0"

__all__ = [
    "AdamW", "CaLinear", "Checkpoint", "CheckpointError", "ConfigError",
    "DataError", "DatasetBundle", "DatasetSignature", "DimensionError",
    "MetafnError", "ModelAssembly", "ModelConfig", "Parameter", "PhaseSpec",
    "Schema", "SynthSuiteSpec", "Tensor", "TrainLog", "UsageError",
    "assembly_from_checkpoint", "calibrate", "calinear_ffn_forward",
    "check_gradients", "compute_loss", "generate_synth_suite", "layer_norm",
    "load_csv", "load_shared", "lr_at", "no_grad", "prepare", "pretrain",
    "refine", "save_checkpoint", "self_attention", "softmax", "train_from_scratch",
]
