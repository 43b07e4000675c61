"""Deciders for lazy bipartite quantum states.

A bipartite state is lazy with respect to one subsystem when it commutes
with that subsystem's reduced state, which is equivalent to the subsystem
entropy being stationary under every coupling to the other side.  The
package detects laziness for finite-dimensional states (directly and via
an su(n) structure-constant criterion) and for two-mode Gaussian states
(via the covariance standard form), with dynamical and truncated
number-basis cross-checks.

The package exports every name its modules list in their `__all__`.
"""

__version__ = "0.1.0"

from . import bloch, dynamics, errors, examples, gaussian, laziness, stateio, su_algebra
from .bloch import *
from .dynamics import *
from .errors import *
from .examples import *
from .gaussian import *
from .laziness import *
from .stateio import *
from .su_algebra import *

__all__ = ["__version__"] + [
    name
    for module in (su_algebra, bloch, laziness, dynamics, gaussian, stateio, examples, errors)
    for name in module.__all__
]
