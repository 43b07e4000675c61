"""JSON serialization for states, covariance matrices, and run output.

State files carry complex entries as [re, im] pairs:

    {"dimA": 2, "dimB": 2, "matrix": [[[re, im], ...], ...]}

Covariance files are {"V": [[...]], "d": [...]} with a real 4x4 matrix and
an optional displacement.  All JSON emitted by this package goes through
`canonical_json`, which sorts keys and prints floats with 17 significant
digits so that identical inputs reproduce byte-identical output.  The
producers hand it numeric blocks as float arrays, such as a state's
matrix as its (d, d, 2) array of [re, im] pairs, and it formats each
array in one pass, with the same bytes as formatting its floats one by
one.  Lists are written item by item.
"""

from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from .bloch import DensityMatrix, _locate, _number_array, _reject_boolean_or_null
from .errors import InvalidStateError
from .gaussian import CovarianceState

__all__ = [
    "state_to_dict",
    "state_from_dict",
    "load_state",
    "save_state",
    "load_covariance",
    "canonical_json",
]


def _pairs_array(values) -> np.ndarray:
    """[re, im] pairs of a complex array, as a float array with a last axis of 2."""
    m = np.asarray(values, dtype=complex)
    return np.stack((m.real, m.imag), axis=-1)


def _state_document(rho: DensityMatrix) -> dict:
    """The state file's document, its matrix the float array of [re, im] pairs."""
    return {"dimA": rho.dim_a, "dimB": rho.dim_b, "matrix": _pairs_array(rho.data)}


def state_to_dict(rho: DensityMatrix) -> dict:
    """The state file's document in plain lists, as `json.dumps` takes it."""
    doc = _state_document(rho)
    doc["matrix"] = doc["matrix"].tolist()
    return doc


def state_from_dict(obj) -> DensityMatrix:
    """Validated DensityMatrix from its JSON dictionary.

    Violations surface as InvalidStateError naming the failed invariant
    and its magnitude; a boolean or null in a matrix of lists is named by
    its JSON path, e.g. "boolean true at $.matrix[0][0][0]"
    (`_number_array`).
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
    arr = _number_array(obj["matrix"], "matrix entries", "$.matrix", real=True)
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise InvalidStateError(
            f"matrix must be square with [re, im] entries, got shape {arr.shape}"
        )
    # each [re, im] pair read as one complex, not as re + 1j * im: 1j * inf warns
    rho = DensityMatrix(dim_a, dim_b, arr.view(complex)[..., 0])
    return rho.require_physical()


#: stands in for a NaN/Infinity token while a document is parsed
_NON_FINITE = object()


def _load_json(path, numeric: tuple[str, ...]):
    """Parse a JSON file, rejecting the non-standard NaN/Infinity tokens, and
    a boolean or null among the numbers under the top-level keys `numeric`.

    numpy would read true and false as 1 and 0, and null as NaN.  Each of
    the three words holds a "u" or an "l" and no number does, so two
    single-character scans pass a plain numeric document; only then is the
    text searched for the words, and the numbers are walked only on a hit,
    which may lie elsewhere, such as inside a string.  A key whose whole
    value is null counts as absent.  The scanned numbers are handed back
    as arrays, which `_number_array` does not walk again; a value numpy
    cannot convert, such as a ragged list, stays a list for it to name.
    A number with a fraction or exponent beyond the float range, such as
    1e999, parses to inf without a token; it is left to the matrix checks,
    which name its entry.
    """
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
        where, _ = _locate(obj, lambda value: value is _NON_FINITE)
        raise InvalidStateError(f"non-finite number {tokens[0]} at {where} in {path}")
    if not isinstance(obj, dict):
        return obj
    numbers = {key: obj[key] for key in numeric if obj.get(key) is not None}
    if ("u" in text or "l" in text) and any(word in text for word in ("true", "false", "null")):
        _reject_boolean_or_null(numbers, "$", f" in {path}")
    for key, value in numbers.items():
        try:
            obj[key] = np.array(value)
        except ValueError:
            pass
    return obj


def load_state(path) -> DensityMatrix:
    """Load and validate a state file."""
    return state_from_dict(_load_json(path, ("matrix",)))


def save_state(rho: DensityMatrix, path) -> None:
    Path(path).write_text(canonical_json(_state_document(rho)) + "\n")


def load_covariance(path) -> CovarianceState:
    """Load a covariance file into a CovarianceState."""
    obj = _load_json(path, ("V", "d"))
    if not isinstance(obj, dict) or "V" not in obj:
        raise InvalidStateError("covariance document must be an object with a 'V' key")
    return CovarianceState(V=obj["V"], d=obj.get("d"))


class _Fragment(str):
    """JSON text that `canonical_json` writes verbatim, such as a document
    it has formatted before."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits.

    A float ndarray is formatted in one pass: one finiteness check, one `%`
    over a "%.17g" template built with one join per axis.  Lists and tuples
    are written item by item.  Either way the bytes are those of formatting
    each float on its own.  A `_Fragment` is written as it is.  A non-finite
    value raises ValueError naming the first one in row-major order; complex
    values, other types and non-string keys raise TypeError.
    """
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out)


def _write_json(obj, out: list[str]) -> None:
    kind = type(obj)
    if kind is float:
        out.append(_format_float(obj))
    elif kind is int:
        out.append(str(obj))
    elif kind is list or kind is tuple:
        _write_sequence(obj, out)
    elif kind is dict:
        _write_object(obj, out)
    elif kind is _Fragment:
        out.append(obj)
    else:
        _write_other(obj, out)


def _write_other(obj, out: list[str]) -> None:
    """Numpy scalars and arrays, subclasses of the JSON types, and the rest."""
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, np.ndarray):
        # float16/32/64 of any layout; a longdouble's items are not Python
        # floats, and a subclass such as a masked array keeps its own tolist
        float_block = obj.dtype.kind == "f" and obj.dtype.itemsize <= 8
        if float_block and type(obj) is np.ndarray and obj.ndim and obj.size:
            out.append(_format_block(obj))
            return
        obj = obj.tolist()
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(_format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        _write_object(obj, out)
    elif isinstance(obj, (list, tuple)):
        _write_sequence(obj, out)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def _write_object(obj: dict, out: list[str]) -> None:
    out.append("{")
    for pos, key in enumerate(sorted(obj)):
        if not isinstance(key, str):
            raise TypeError(f"JSON object keys must be strings, got {key!r}")
        if pos:
            out.append(",")
        out.append(_key_text(key))
        _write_json(obj[key], out)
    out.append("}")


@functools.lru_cache(maxsize=1024)
def _key_text(key: str) -> str:
    return json.dumps(key) + ":"


def _write_sequence(seq, out: list[str]) -> None:
    out.append("[")
    for pos, item in enumerate(seq):
        if pos:
            out.append(",")
        _write_json(item, out)
    out.append("]")


def _format_block(arr: np.ndarray) -> str:
    """JSON text of a float array with at least one axis and one entry."""
    values = arr.ravel().tolist()
    if not all(map(math.isfinite, values)):
        raise _non_finite(next(v for v in values if not math.isfinite(v)))
    template = "%.17g"
    for size in reversed(arr.shape):
        template = "[" + ",".join([template] * size) + "]"
    # + 0.0 turns -0.0 into 0.0, which prints as the integer 0 reads back
    return template % tuple([v + 0.0 for v in values])


def _format_float(value: float) -> str:
    if not math.isfinite(value):
        raise _non_finite(value)
    # + 0.0 turns -0.0 into 0.0, which prints as the integer 0 reads back
    return format(value + 0.0, ".17g")


def _non_finite(value: float) -> ValueError:
    return ValueError(f"non-finite value {value!r} is not representable in JSON")
