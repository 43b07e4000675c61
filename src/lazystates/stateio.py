"""JSON serialization for states, covariance matrices, and run output.

State files carry complex entries as [re, im] pairs:

    {"dimA": 2, "dimB": 2, "matrix": [[[re, im], ...], ...]}

Covariance files are {"V": [[...]], "d": [...]} with a real 4x4 matrix and
an optional displacement.  All JSON emitted by this package goes through
`canonical_json`, which sorts keys and prints floats with 17 significant
digits so that identical inputs reproduce byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bloch import DensityMatrix
from .errors import InvalidStateError
from .gaussian import CovarianceState

__all__ = [
    "complex_matrix_to_pairs",
    "pairs_to_complex_matrix",
    "state_to_dict",
    "state_from_dict",
    "load_state",
    "save_state",
    "load_covariance",
    "canonical_json",
]


def complex_matrix_to_pairs(matrix: np.ndarray) -> list:
    """Complex matrix as nested lists of [re, im] pairs."""
    m = np.asarray(matrix, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def pairs_to_complex_matrix(obj) -> np.ndarray:
    """Inverse of `complex_matrix_to_pairs`, with shape validation."""
    arr = np.asarray(obj, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(
            f"matrix must be square with [re, im] entries, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "dimA": rho.dim_a,
        "dimB": rho.dim_b,
        "matrix": complex_matrix_to_pairs(rho.data),
    }


def state_from_dict(obj) -> DensityMatrix:
    """Validated DensityMatrix from its JSON dictionary.

    Violations surface as InvalidStateError naming the failed invariant
    and its magnitude.
    """
    if not isinstance(obj, dict):
        raise InvalidStateError(f"state document must be an object, got {type(obj).__name__}")
    missing = {"dimA", "dimB", "matrix"} - obj.keys()
    if missing:
        raise InvalidStateError(f"state document missing keys: {sorted(missing)}")
    dim_a, dim_b = obj["dimA"], obj["dimB"]
    # `type(x) is int`: JSON true/false load as bool, a subclass of int
    if not all(type(x) is int and x >= 1 for x in (dim_a, dim_b)):
        raise InvalidStateError(f"dimensions must be positive integers, got ({dim_a!r}, {dim_b!r})")
    try:
        matrix = pairs_to_complex_matrix(obj["matrix"])
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"malformed matrix entries: {exc}") from exc
    rho = DensityMatrix(dim_a, dim_b, matrix)
    return rho.require_physical()


#: stands in for a NaN/Infinity token while a document is parsed
_NON_FINITE = object()


def _locate(obj, where: str = "$"):
    """JSONPath-style location of the first `_NON_FINITE` in `obj`, or None."""
    if obj is _NON_FINITE:
        return where
    if isinstance(obj, dict):
        children = ((f"{where}.{key}", value) for key, value in obj.items())
    elif isinstance(obj, list):
        children = ((f"{where}[{pos}]", value) for pos, value in enumerate(obj))
    else:
        return None
    for sub, value in children:
        hit = _locate(value, sub)
        if hit is not None:
            return hit
    return None


def _load_json(path):
    """Parse a JSON file, rejecting the non-standard NaN/Infinity tokens."""
    text = Path(path).read_text()
    tokens: list[str] = []

    def non_finite(token: str):
        tokens.append(token)
        return _NON_FINITE

    try:
        obj = json.loads(text, parse_constant=non_finite)
    except json.JSONDecodeError as exc:
        raise InvalidStateError(f"parse error in {path}: {exc}") from exc
    if tokens:
        raise InvalidStateError(
            f"non-finite number {tokens[0]} at {_locate(obj)} in {path}"
        )
    return obj


def load_state(path) -> DensityMatrix:
    """Load and validate a state file."""
    return state_from_dict(_load_json(path))


def save_state(rho: DensityMatrix, path) -> None:
    Path(path).write_text(canonical_json(state_to_dict(rho)) + "\n")


def load_covariance(path) -> CovarianceState:
    """Load a covariance file into a CovarianceState."""
    obj = _load_json(path)
    if not isinstance(obj, dict) or "V" not in obj:
        raise InvalidStateError("covariance document must be an object with a 'V' key")
    return CovarianceState(V=obj["V"], d=obj.get("d"))


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not np.isfinite(obj):
            raise ValueError(f"non-finite value {obj!r} is not representable in JSON")
        # + 0.0 turns -0.0 into 0.0, which prints as the integer 0 reads back
        out.append(format(obj + 0.0, ".17g"))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for pos, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            if pos:
                out.append(",")
            out.append(json.dumps(key))
            out.append(":")
            _write_json(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(",")
            _write_json(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")
