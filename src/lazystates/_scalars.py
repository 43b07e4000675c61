"""The one reader of every scalar argument of the public API.

It sits below every other module, `su_algebra` included, so that each of
them reads its integers, floats and complex numbers the same way.
"""

import operator

import numpy as np

#: what `complex` or `operator.index` would read as a number but `_scalar` does not
_NOT_COMPLEX = (str, bytes, bool, np.bool_)
#: and `float`, which would also read a numpy complex as its real part
_NOT_REAL = _NOT_COMPLEX + (np.complexfloating,)


def _scalar(value, message: str, valid=None, kind=float):
    """`value` as a float, or a complex for `kind=complex` or an int for
    `kind=int`, that `valid` holds for; otherwise ValueError "{message},
    got ..." with the value.

    `float` and `complex` would read "1" and True as numbers, and `float`
    a numpy complex as its real part: a str, bytes, bool or np.bool_ is
    rejected, and so is a numpy complex read as a float.  An int is read
    by `operator.index`, which takes a numpy integer and a 0-d integer
    array and rejects 2.0, "2" and None.  A value that fails `valid` is
    shown as read, e.g. "got nan" for np.float64(nan) and "got 0" for
    np.int64(0).  A Python float read as a float, complex as a complex or
    int as an int is taken as it is.
    """
    if type(value) is kind and (valid is None or valid(value)):
        return value
    shown = value
    if not isinstance(value, _NOT_REAL if kind is float else _NOT_COMPLEX):
        try:
            shown = (operator.index if kind is int else kind)(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if valid is None or valid(shown):
                return shown
    raise ValueError(f"{message}, got {shown!r}")
