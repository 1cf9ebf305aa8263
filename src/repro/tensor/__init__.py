"""A small reverse-mode autodiff tensor library (the PyTorch stand-in).

Importing this package registers every differentiable op on
:class:`Tensor`.  The public functional API mirrors the method API::

    from repro import tensor as T

    x = T.randn((4, 3), rng=rng, requires_grad=True)
    y = (T.leaky_relu(x) ** 2).sum()
    y.backward()
    x.grad  # populated
"""

from . import autograd as _autograd
from .autograd import enable_grad, grad_enabled, no_grad
from .precision import (
    DEFAULT_PRECISION,
    compute_dtype,
    default_dtype,
    get_precision,
    precision,
    resolve_precision,
    set_precision,
)
from .tensor import (
    Tensor,
    ensure_tensor,
    full,
    get_op,
    ones,
    randn,
    registered_ops,
    uniform,
    zeros,
)

# Importing the ops modules populates the op registry and therefore the
# Tensor operator overloads.  Order is unimportant.
from .ops_elementwise import (  # noqa: E402
    absolute,
    add,
    clip,
    div,
    exp,
    leaky_relu,
    log,
    maximum,
    minimum,
    mul,
    neg,
    power,
    relu,
    sigmoid,
    sub,
    tanh,
    where,
)
from .ops_reduce import tensor_max, tensor_mean, tensor_min, tensor_sum  # noqa: E402
from .ops_shape import flip, getitem, pad, reshape, stack, transpose  # noqa: E402
from .ops_matmul import matmul  # noqa: E402
from .ops_conv import conv2d  # noqa: E402
from .im2col import col2im, conv_output_size, im2col  # noqa: E402
from . import perf  # noqa: E402
from .workspace import (  # noqa: E402
    Workspace,
    WorkspaceStats,
    get_workspace,
    workspace_disabled,
)

# Friendlier functional aliases.
abs = absolute  # noqa: A001 - intentional shadow inside the namespace
sum = tensor_sum  # noqa: A001
mean = tensor_mean
max = tensor_max  # noqa: A001
min = tensor_min  # noqa: A001

__all__ = [
    "DEFAULT_PRECISION",
    "precision",
    "get_precision",
    "set_precision",
    "resolve_precision",
    "default_dtype",
    "compute_dtype",
    "Tensor",
    "ensure_tensor",
    "zeros",
    "ones",
    "full",
    "randn",
    "uniform",
    "no_grad",
    "enable_grad",
    "grad_enabled",
    "get_op",
    "registered_ops",
    # ops
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "power",
    "exp",
    "log",
    "absolute",
    "maximum",
    "minimum",
    "clip",
    "where",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "tensor_sum",
    "tensor_mean",
    "tensor_max",
    "tensor_min",
    "reshape",
    "transpose",
    "pad",
    "getitem",
    "stack",
    "flip",
    "matmul",
    "conv2d",
    "im2col",
    "col2im",
    "conv_output_size",
    # workspace / perf layer
    "Workspace",
    "WorkspaceStats",
    "get_workspace",
    "workspace_disabled",
    "perf",
]
