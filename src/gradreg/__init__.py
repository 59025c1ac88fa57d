"""Symmetric deformable 3D registration via integrated spatial-gradient fields."""

from .deform import (
    DeformationField,
    GradientField,
    PreActivationField,
    activate,
    compose,
    identity_field,
    integrate,
    jacobian_det,
    upsample,
    warp,
    warp_labels,
)
from .engine import (
    DivergenceError,
    RegistrationConfig,
    RegistrationResult,
    gradient_check,
    multistep_forward,
    objective_and_gradient,
    optimize,
    register_pair,
)
from .losses import LossBreakdown, LossWeights
from .metrics import PairMetrics, dice, dice30, evaluate_pair, hd95, sdlogj
from .phantom import AnalyticWarp, PhantomSpec, analytic_field, make_pair, make_phantom
from .volume import (
    LabelVolume,
    Volume,
    VolumeHeader,
    hu_window,
    largest_component,
    one_hot,
    read_volume,
    stack_windows,
    write_volume,
)

__version__ = "0.1.0"
