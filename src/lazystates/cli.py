"""Command-line front end.

Every invocation prints a JSON run manifest on stdout and a one-line human
summary on stderr (suppressed by --quiet).  Exit codes: 0 success (and lazy,
where a verdict applies), 1 success but not lazy, 2 invalid input,
3 internal numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bloch import decompose
from .dynamics import dynamics_audit
from .errors import (
    DimensionMismatchError,
    InvalidStateError,
    TruncationError,
    UnphysicalFormError,
)
from .examples import EXAMPLE_NAMES, generate_example
from .gaussian import (
    GaussianStandardForm,
    check_uncertainty,
    commutator_kernels,
    fock_truncate,
    is_lazy_gaussian,
    kernel_determinant,
    kernel_quadratic_closed_form,
    kernel_quadratic_difference,
    standard_form_from_covariance,
)
from .laziness import DEFAULT_TOL, commutator_residual, is_lazy
from .stateio import (
    canonical_json,
    complex_matrix_to_pairs,
    load_covariance,
    load_state,
    state_to_dict,
)
from .su_algebra import build_su_basis

EXIT_LAZY = 0
EXIT_NOT_LAZY = 1
EXIT_INVALID_INPUT = 2
EXIT_NUMERICAL_FAILURE = 3

#: fixed probe points for the on-line kernel identity residuals
_KERNEL_PROBES = ((1.0 + 1.0j, 0.5 - 1.0j), (0.3 + 0.7j, -1.0 + 0.2j))


@dataclass(frozen=True)
class RunManifest:
    """Reproducible record of one CLI invocation."""

    command: str
    parameters: dict
    seed: int
    tool_version: str
    results: object

    def to_json(self) -> str:
        return canonical_json(
            {
                "command": self.command,
                "parameters": self.parameters,
                "seed": self.seed,
                "toolVersion": self.tool_version,
                "results": self.results,
            }
        )


def _report_dict(report) -> dict:
    return {
        "side": report.side,
        "tolerance": report.tolerance,
        "commutatorResidual": report.commutator_residual,
        "criterionResidual": report.criterion_residual,
        "isLazy": report.is_lazy,
    }


def _handle_basis(args):
    basis = build_su_basis(args.dim)
    results = {
        "dim": basis.dim,
        "generators": [complex_matrix_to_pairs(g) for g in basis.generators],
    }
    if args.emit_f:
        results["f"] = [
            {"ijk": [i, j, k], "value": v} for i, j, k, v in basis.f.triples()
        ]
    params = {"dim": args.dim, "emitF": bool(args.emit_f)}
    summary = f"su({basis.dim}) basis with {len(basis.generators)} generators"
    return params, results, EXIT_LAZY, summary


def _handle_decompose(args):
    rho = load_state(args.state)
    form = decompose(rho)
    results = {
        "x": form.x.tolist(),
        "y": form.y.tolist(),
        "T": form.T.tolist(),
    }
    params = {"state": args.state}
    summary = (
        f"decomposed ({rho.dim_a} x {rho.dim_b}) state: "
        f"|x| = {np.linalg.norm(form.x):.3e}, |y| = {np.linalg.norm(form.y):.3e}"
    )
    return params, results, EXIT_LAZY, summary


def _handle_check(args):
    rho = load_state(args.state)
    sides = ["A", "B"] if args.side == "both" else [args.side]
    results = {}
    verdicts = []
    for side in sides:
        report = is_lazy(rho, side, args.tol)
        results[side] = _report_dict(report)
        verdicts.append(report.is_lazy)
    code = EXIT_LAZY if all(verdicts) else EXIT_NOT_LAZY
    params = {"state": args.state, "side": args.side, "tol": args.tol}
    parts = ", ".join(
        f"{side}: {'lazy' if results[side]['isLazy'] else 'not lazy'} "
        f"(residual {results[side]['commutatorResidual']:.3e})"
        for side in sides
    )
    return params, results, code, parts


def _handle_dynamics(args):
    rho = load_state(args.state)
    audit = dynamics_audit(rho, args.side, args.trials, args.seed)
    results = {
        "side": args.side,
        "trials": audit.trials,
        "maxRate": audit.max_rate,
        "rateBound": audit.rate_bound,
        "perTrialRates": list(audit.per_trial_rates),
        "consistentWithLaziness": audit.consistent_with_laziness,
    }
    params = {
        "state": args.state,
        "side": args.side,
        "trials": args.trials,
        "seed": args.seed,
    }
    summary = (
        f"max |dS_{args.side}/dt| = {audit.max_rate:.3e} over {audit.trials} "
        f"couplings (supremum {audit.rate_bound:.3e} per unit ||H||_F); "
        f"{'consistent' if audit.consistent_with_laziness else 'INCONSISTENT'} "
        "with the commutator verdict"
    )
    return params, results, EXIT_LAZY, summary


def _parse_form(text: str) -> GaussianStandardForm:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"--form needs 'n,m,c,cprime', got {text!r}")
    n, m, c, cp = (float(p) for p in parts)
    return GaussianStandardForm(n=n, m=m, c=c, c_prime=cp)


def _handle_gaussian(args):
    if (args.form is None) == (args.cov is None):
        raise ValueError("exactly one of --form or --cov is required")
    if args.form is not None:
        form = _parse_form(args.form)
        params = {"form": args.form, "tol": args.tol}
    else:
        form = standard_form_from_covariance(load_covariance(args.cov))
        params = {"cov": args.cov, "tol": args.tol}
    lazy = is_lazy_gaussian(form, args.tol)
    chk = check_uncertainty(form)
    pair = commutator_kernels(form)
    det_closed = kernel_determinant(form)
    det_residual = max(
        abs(np.linalg.det(pair.plus) - det_closed),
        abs(np.linalg.det(pair.minus) - det_closed),
    ) / max(1.0, abs(det_closed))
    quad_residual = max(
        abs(
            kernel_quadratic_difference(form, u, v)
            - kernel_quadratic_closed_form(form, u, v)
        )
        for u, v in _KERNEL_PROBES
    )
    if quad_residual > 1e-9:
        raise ArithmeticError(
            f"kernel quadratic-form identity violated: residual {quad_residual:.3e}"
        )
    results = {
        "standardForm": {
            "n": form.n,
            "m": form.m,
            "c": form.c,
            "cPrime": form.c_prime,
        },
        "symplecticEigenvalues": [chk.nu_minus, chk.nu_plus],
        "isLazy": lazy,
        "detIdentityResidual": float(det_residual),
        "quadraticIdentityResidual": float(quad_residual),
    }
    if args.fock_check is not None:
        truncated = fock_truncate(form, args.fock_check)
        results["fockResidual"] = commutator_residual(truncated, "A")
        params["fockCheck"] = args.fock_check
    code = EXIT_LAZY if lazy else EXIT_NOT_LAZY
    summary = (
        f"(n, m, c, c') = ({form.n:g}, {form.m:g}, {form.c:g}, {form.c_prime:g}): "
        f"{'lazy (product state)' if lazy else 'not lazy'}, "
        f"nu_minus = {chk.nu_minus:.6g}"
    )
    return params, results, code, summary


def _parse_param(text: str):
    if "=" not in text:
        raise ValueError(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    values = []
    for piece in raw.split(","):
        try:
            values.append(int(piece))
        except ValueError:
            try:
                values.append(float(piece))
            except ValueError:
                values.append(piece)
    return key, values[0] if len(values) == 1 else values


def _handle_example(args):
    params_map = dict(_parse_param(p) for p in args.param or [])
    state = generate_example(args.name, params_map)
    doc = state_to_dict(state)
    if args.save:
        Path(args.save).write_text(canonical_json(doc) + "\n")
    results = {"name": args.name, "state": doc}
    params = {"name": args.name, "param": sorted(args.param or []), "save": args.save}
    seed = params_map.get("seed", 0)
    summary = f"generated {args.name} state of shape ({state.dim_a} x {state.dim_b})"
    return params, results, EXIT_LAZY, summary, seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lazystates",
        description="Decide whether bipartite quantum states are lazy.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="also write the JSON manifest to this file")
    common.add_argument(
        "--quiet", action="store_true", help="suppress the human summary on stderr"
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("basis", parents=[common], help="emit an su(n) generator basis")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--emit-f", action="store_true", dest="emit_f",
                   help="include the nonzero structure-constant triples")
    p.set_defaults(handler=_handle_basis)

    p = sub.add_parser("decompose", parents=[common],
                       help="coherence vectors and correlation matrix of a state")
    p.add_argument("--state", required=True)
    p.set_defaults(handler=_handle_decompose)

    p = sub.add_parser("check", parents=[common], help="laziness verdict for a state")
    p.add_argument("--state", required=True)
    p.add_argument("--side", choices=["A", "B", "both"], default="both")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.set_defaults(handler=_handle_check)

    p = sub.add_parser("dynamics", parents=[common],
                       help="entropy rates under random couplings")
    p.add_argument("--state", required=True)
    p.add_argument("--side", choices=["A", "B"], default="A")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_handle_dynamics)

    p = sub.add_parser("gaussian", parents=[common],
                       help="laziness of a two-mode Gaussian standard form")
    p.add_argument("--form", help="standard form as 'n,m,c,cprime'")
    p.add_argument("--cov", help="covariance JSON file, reduced to standard form first")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--fock-check", type=int, dest="fock_check", metavar="CUTOFF",
                   help="cross-check via a truncated number-basis state")
    p.set_defaults(handler=_handle_gaussian)

    p = sub.add_parser("example", parents=[common], help="generate a built-in state")
    p.add_argument("--name", required=True, choices=list(EXAMPLE_NAMES))
    p.add_argument("--param", action="append", metavar="KEY=VALUE",
                   help="generator parameter; repeatable")
    p.add_argument("--save", help="write the bare state file here")
    p.set_defaults(handler=_handle_example)
    return parser


#: the parser of `main`, built on its first call; parsing leaves it unchanged
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if getattr(args, "handler", None) is None:
        parser.print_usage(sys.stderr)
        return EXIT_INVALID_INPUT
    try:
        params, results, code, summary, *extra = args.handler(args)
        seed = extra[0] if extra else getattr(args, "seed", 0)
        text = RunManifest(
            command=args.command,
            parameters=params,
            seed=int(seed),
            tool_version=__version__,
            results=results,
        ).to_json()
        if args.output:
            Path(args.output).write_text(text + "\n")
    except (TruncationError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_FAILURE
    except (InvalidStateError, DimensionMismatchError, UnphysicalFormError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    print(text)
    if not args.quiet:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
