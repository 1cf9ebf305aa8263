"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.tensor import DEFAULT_PRECISION, Tensor, precision


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "default_precision: run in the process's default compute mode "
        "instead of the float64 oracle",
    )


@pytest.fixture(scope="module", autouse=True)
def _float64_oracle():
    """Run every test module in float64, the oracle its references
    (central differences at ``eps = 1e-6``, SciPy, goldens, bit-identity)
    are pinned in, its module- and class-scoped fixtures included.
    Tests of the float32 path ask for it with ``precision("float32")``."""
    with precision("float64"):
        yield


@pytest.fixture(autouse=True)
def _test_precision(request):
    """Each test starts in float64, or in the process default when it is
    marked ``default_precision``, and leaks no mode into the next."""
    marked = request.node.get_closest_marker("default_precision") is not None
    with precision(DEFAULT_PRECISION if marked else "float64"):
        yield


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, seeded generator per test."""
    return np.random.default_rng(1234)


def shared_mappings() -> int:
    """Anonymous shared mappings of this process — ``mpi.shared_empty``
    storage (Linux names them after the deleted ``/dev/zero`` file that
    backs them).  Needs ``/proc``."""
    with open("/proc/self/maps") as maps:
        return sum("/dev/zero (deleted)" in line for line in maps)


def dev_shm_entries() -> set[str]:
    """Everything named in ``/dev/shm``: ``psm_*`` shared-memory
    segments and ``sem.*`` named semaphores alike."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def numeric_gradient(fn, arrays: list[np.ndarray], eps: float = 1e-6) -> list[np.ndarray]:
    """Central finite-difference gradient of ``sum(fn(*arrays))``."""
    grads = []
    for target_index, target in enumerate(arrays):
        grad = np.zeros_like(target)
        flat = target.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = float(fn(*[Tensor(a) for a in arrays]).sum().item())
            flat[i] = original - eps
            minus = float(fn(*[Tensor(a) for a in arrays]).sum().item())
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * eps)
        grads.append(grad)
    return grads


def assert_gradcheck(fn, *arrays: np.ndarray, eps: float = 1e-6, tol: float = 1e-5) -> None:
    """Assert the autodiff gradient of ``sum(fn(...))`` matches finite
    differences for every input."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    out.sum().backward()
    numeric = numeric_gradient(fn, list(arrays), eps=eps)
    for tensor, expected in zip(tensors, numeric):
        assert tensor.grad is not None, "gradient was not populated"
        scale = np.max(np.abs(expected)) + 1.0
        error = np.max(np.abs(tensor.grad - expected)) / scale
        assert error < tol, f"gradcheck failed: max rel error {error:.3e}"
