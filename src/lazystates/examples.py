"""Built-in example-state generators.

Everything returned here has passed the full DensityMatrix validation
including positivity; parameter combinations that would produce an
unphysical matrix are rejected.
"""

from __future__ import annotations

import math

import numpy as np

from .bloch import (
    DensityMatrix,
    _check_dense_size,
    _number_array,
    _require_finite,
    random_density_matrix,
)
from ._scalars import _scalar
from .laziness import diagonal_correlation_state

__all__ = [
    "maximally_entangled",
    "product_state",
    "werner",
    "generate_example",
    "EXAMPLE_NAMES",
]


def maximally_entangled(dim: int) -> DensityMatrix:
    """Projector onto sum_i |ii> / sqrt(dim) on a dim x dim split, dim an int >= 2 (`_scalar`)."""
    message = "maximally entangled dimension must be an integer >= 2"
    dim = _scalar(dim, message, lambda v: v >= 2, int)
    _check_dense_size(dim * dim, f"maximally entangled dimension d = {dim} is too large")
    vec = np.zeros(dim * dim, dtype=complex)
    vec[:: dim + 1] = 1.0 / np.sqrt(dim)
    return DensityMatrix(dim, dim, np.outer(vec, vec.conj()))


def product_state(marginal_a, marginal_b) -> DensityMatrix:
    """Kronecker product of two single-system density matrices."""
    a = _number_array(marginal_a, "marginal a").astype(complex, copy=False)
    b = _number_array(marginal_b, "marginal b").astype(complex, copy=False)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError(
            f"marginals must be square matrices, got shapes {a.shape} and {b.shape}"
        )
    # before np.kron, whose inf * 0 would warn
    _require_finite(a, "marginal a")
    _require_finite(b, "marginal b")
    return DensityMatrix(a.shape[0], b.shape[0], np.kron(a, b)).require_physical()


def werner(p: float) -> DensityMatrix:
    """Two-qubit mixture p |singlet><singlet| + (1 - p) I/4, physical for -1/3 <= p <= 1.

    A `p` that is not a finite real number (a str, a bool, NaN or +-Inf;
    `_scalar`) raises ValueError naming `p`.
    """
    p = _scalar(p, "parameter p must be a finite number", math.isfinite)
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1.0 / np.sqrt(2.0)
    singlet[2] = -1.0 / np.sqrt(2.0)
    data = p * np.outer(singlet, singlet.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(2, 2, data).require_physical()


def _diag_marginal(probs) -> np.ndarray:
    probs = _number_array(probs, "marginal spec", real=True)
    if probs.ndim != 1 or probs.size < 2:
        raise ValueError(f"marginal spec must list at least two weights, got {probs!r}")
    return np.diag(probs)


def _vector8(value, default=0.0):
    """`value`, or `default` for None, a scalar repeated 8 times;
    `diagonal_correlation_state` reads the numbers, so a list is passed on
    as it is, for its booleans and nulls to be named."""
    value = default if value is None else value
    return value if isinstance(value, (list, tuple)) or np.ndim(value) else [value] * 8


def _integer_param(params: dict, key: str, default: int) -> int:
    """`params[key]` popped, or `default`, as an int (`_scalar`); the
    generator it feeds checks its range."""
    return _scalar(params.pop(key, default), f"parameter {key} must be an integer", kind=int)


EXAMPLE_NAMES = (
    "maximally_entangled",
    "product",
    "diagonal_correlation",
    "werner",
    "random",
)


def generate_example(name: str, params: dict | None = None) -> DensityMatrix:
    """Build a named example state from a parameter mapping.

    Known names and their parameters:

    * maximally_entangled: d (local dimension, default 2)
    * product: a, b (diagonal marginal weights, default [0.7, 0.3] each)
    * diagonal_correlation: x, y, correlations (length-8 vectors or scalars)
    * werner: p (singlet weight, default 0.5)
    * random: dimA, dimB, seed
    """
    params = dict(params or {})
    if name == "maximally_entangled":
        state = maximally_entangled(_integer_param(params, "d", 2))
    elif name == "product":
        state = product_state(
            _diag_marginal(params.pop("a", [0.7, 0.3])),
            _diag_marginal(params.pop("b", [0.7, 0.3])),
        )
    elif name == "diagonal_correlation":
        state = diagonal_correlation_state(
            _vector8(params.pop("x", None)),
            _vector8(params.pop("y", None)),
            _vector8(params.pop("correlations", None), default=0.1),
        )
    elif name == "werner":
        state = werner(params.pop("p", 0.5))
    elif name == "random":
        state = random_density_matrix(
            _integer_param(params, "dimA", 2),
            _integer_param(params, "dimB", 2),
            _integer_param(params, "seed", 0),
        )
    else:
        raise ValueError(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    if params:
        raise ValueError(f"unknown parameters for {name!r}: {sorted(params)}")
    return state.require_physical()
