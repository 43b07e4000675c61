"""Spans around the public functions of each `lazystates` module.

The tracer wraps functions from the benchmark's side only: every module
attribute of the package that refers to a traced function is swapped for a
wrapper while the tracer is installed, so calls the package makes to itself
(`is_lazy` -> `decompose`) are seen as well.  For a class the constructor is
wrapped.  Nothing under `src/` is modified.

A span's self time is its duration minus the time covered by the spans it
caused.  An exception counts against a module when it leaves a span of that
module for a caller outside the module.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

#: module -> public callables timed as layers (`examples`, `errors` are not)
TARGETS = {
    "su_algebra": ("build_su_basis",),
    "bloch": ("DensityMatrix", "decompose", "reduced_state"),
    "laziness": ("is_lazy", "commutator_residual", "criterion_matrix"),
    "dynamics": ("dynamics_audit", "entropy_rate", "random_coupling", "evolve"),
    "gaussian": (
        "standard_form_from_covariance",
        "is_lazy_gaussian",
        "kernel_quadratic_difference",
        "fock_truncate",
    ),
    "stateio": ("load_state", "load_covariance", "canonical_json"),
    "cli": ("main",),
}

FUNCTIONS = tuple(f"{mod}.{name}" for mod, names in TARGETS.items() for name in names)


class _Frame:
    __slots__ = ("module", "child_s")

    def __init__(self, module):
        self.module = module
        self.child_s = 0.0


class Tracer:
    """Per-function call counts and self time, per-module escaped errors."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.errors = Counter()
        self._stack: list[_Frame] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, qualname, module, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(module)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if parent is None or parent.module != module:
                    self.errors[module] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[qualname] += 1
                self.self_s[qualname] += elapsed - frame.child_s
                if parent is not None:
                    parent.child_s += elapsed

        return traced

    def install(self):
        """Swap every loaded reference to a traced callable for its wrapper."""
        package = [
            mod for key, mod in list(sys.modules.items())
            if key == "lazystates" or key.startswith("lazystates.")
        ]
        for modname, names in TARGETS.items():
            source = sys.modules.get(f"lazystates.{modname}")
            if source is None:
                continue
            for name in names:
                original = getattr(source, name)
                qualname = f"{modname}.{name}"
                if isinstance(original, type):
                    init = original.__init__
                    self._undo.append((original, "__init__", init))
                    original.__init__ = self._wrap(qualname, modname, init)
                    continue
                wrapper = self._wrap(qualname, modname, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._undo.append((mod, attr, value))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def module_self_s(self, module):
        return sum(self.self_s[f"{module}.{name}"] for name in TARGETS[module])
