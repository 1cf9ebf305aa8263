"""Neural-network layers, losses and initializers (PyTorch ``nn`` stand-in)."""

from .activations import Identity, LeakyReLU, ReLU, Sigmoid, Tanh, get_activation
from .conv import Conv2d, ConvTranspose2d, chain_borders, fuse_leaky_relu
from .init import (
    compute_fans,
    get_initializer,
    glorot_normal,
    glorot_uniform,
    he_normal,
    he_uniform,
    leaky_relu_gain,
)
from .linear import Linear
from .losses import HuberLoss, Loss, MAELoss, MAPELoss, MSELoss, get_loss, loss_class
from .module import Module, Parameter
from .regularization import BatchNorm2d, Dropout
from .sequential import Sequential

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Conv2d",
    "ConvTranspose2d",
    "chain_borders",
    "fuse_leaky_relu",
    "Linear",
    "ReLU",
    "LeakyReLU",
    "Sigmoid",
    "Tanh",
    "Identity",
    "get_activation",
    "BatchNorm2d",
    "Dropout",
    "Loss",
    "MSELoss",
    "MAELoss",
    "MAPELoss",
    "HuberLoss",
    "get_loss",
    "loss_class",
    "glorot_uniform",
    "glorot_normal",
    "he_uniform",
    "he_normal",
    "compute_fans",
    "leaky_relu_gain",
    "get_initializer",
]
