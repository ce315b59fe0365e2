"""From-scratch NumPy deep-learning framework (DNN substrate).

The paper trains an AlphaZero-style policy/value network (5 convolution
layers + 3 fully-connected layers, Section 5.1) with the loss of Equation 2.
This subpackage provides everything needed to do that without an external
deep-learning dependency:

- :mod:`repro.nn.layers`     -- Module base class and layer zoo (Conv2d,
  Linear, ReLU, Tanh, Flatten, BatchNorm2d, Dropout).
- :mod:`repro.nn.network`    -- :class:`Sequential` container and
  :class:`PolicyValueNet`, the paper's benchmark network.
- :mod:`repro.nn.losses`     -- AlphaZero loss (value MSE + policy
  cross-entropy + L2), Equation 2.
- :mod:`repro.nn.optim`      -- SGD / momentum / Adam optimisers and
  learning-rate schedules.
- :mod:`repro.nn.functional` -- the vectorised primitives (the shared
  channels-last conv gather, softmax family) that keep the hot paths in BLAS.
- :mod:`repro.nn.infer`      -- the fused float32 inference engine:
  :func:`compile_plan` turns a trained tower into an immutable
  :class:`InferencePlan` (BatchNorm folded, GEMM-ready weights,
  zero-allocation thread-local workspaces, merged head GEMM) that backs
  the networks' default ``predict``/``predict_masked`` path.
"""

from repro.nn.functional import log_softmax, softmax
from repro.nn.infer import InferencePlan, PlanCompileError, compile_plan, ensure_plan
from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    Module,
    Parameter,
    ReLU,
    Tanh,
)
from repro.nn.losses import AlphaZeroLoss, LossValue, cross_entropy_with_logits, mse
from repro.nn.network import (
    FusedInferenceModule,
    NetworkOutput,
    PolicyValueNet,
    Sequential,
)
from repro.nn.optim import SGD, Adam, ConstantLR, CosineLR, Optimizer, StepLR
from repro.nn.resnet import ResidualBlock, ResNetPolicyValueNet

__all__ = [
    "SGD",
    "Adam",
    "AlphaZeroLoss",
    "BatchNorm2d",
    "ConstantLR",
    "Conv2d",
    "CosineLR",
    "Dropout",
    "Flatten",
    "FusedInferenceModule",
    "InferencePlan",
    "Linear",
    "LossValue",
    "Module",
    "NetworkOutput",
    "Optimizer",
    "Parameter",
    "PlanCompileError",
    "PolicyValueNet",
    "ReLU",
    "ResNetPolicyValueNet",
    "ResidualBlock",
    "Sequential",
    "StepLR",
    "Tanh",
    "compile_plan",
    "cross_entropy_with_logits",
    "ensure_plan",
    "log_softmax",
    "mse",
    "softmax",
]
