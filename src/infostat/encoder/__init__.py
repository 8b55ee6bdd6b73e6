"""From-scratch multi-head self-attention encoder with analytic gradients."""

from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .config import ModelConfig, TrainConfig
from .gradcheck import GradCheckReport, gradient_check, make_check_batch
from .layers import attention_weights, softmax
from .model import (Batch, backward, classify, forward, loss_and_gradients,
                    predict_batch)
from .params import Params, init_params, param_shapes
from .training import TrainResult, TrainingDivergedError, train

__all__ = [
    "Batch", "CheckpointError", "GradCheckReport", "ModelConfig", "Params",
    "TrainConfig", "TrainResult", "TrainingDivergedError",
    "attention_weights", "backward", "classify", "forward", "gradient_check",
    "init_params", "load_checkpoint", "loss_and_gradients",
    "make_check_batch", "param_shapes", "predict_batch", "save_checkpoint",
    "softmax", "train",
]
