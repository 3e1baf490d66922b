"""Command line front end: JSON problem files in, CSV/JSON reports out.

Problem schema::

    {
      "r":      "lebesgue" | monotone-primitive JSON,
      "q":      number | composite-measure JSON          (default 0),
      "p":      self-similar-params JSON | composite-measure JSON,
      "bc":     {"U": "dirichlet" | "neumann" | {"theta": [t0, t1]}},
      "r_mass": number                                   (default 1)
    }

Exit codes: 0 success, 1 counterexample failed to reproduce, 2 parse or
input error, 3 unsupported configuration, 4 spectral failure.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from .assembly import (
    BoundaryCondition,
    PencilDiscretization,
    assemble,
    assemble_iterated_pair,
    assemble_selfsimilar_pair,
    boundary_data,
)
from .errors import FractalSturmError, InputError, UnsupportedConfigurationError
from .measures import CompositeMeasure
from .reduction import transform_measure
from .selfsim import MonotonePrimitive, SelfSimilarParams, evaluate, validate_contraction
from .spectral import (
    _splitting_checks,
    asymptotics_report,
    counting_function,
    eigenvalues,
    eigenvalues_below,
    geometric_asymptotics,
    ladder_counts,
    resolve_shift,
    write_counting_csv,
)

_PARAM_KEYS = {"a", "dprime", "betaprime"}


@dataclass(frozen=True)
class Problem:
    """Parsed problem file: measure string coefficients plus conditions."""

    r: MonotonePrimitive | None
    q: CompositeMeasure
    p_measure: CompositeMeasure
    bc: BoundaryCondition
    r_mass: float


def _parse_bc(obj) -> BoundaryCondition:
    if not isinstance(obj, dict):
        raise InputError('bc must be {"U": ...}')
    u = obj.get("U", "neumann")
    if u == "dirichlet":
        return BoundaryCondition.dirichlet()
    if u == "neumann":
        return BoundaryCondition.neumann()
    if isinstance(u, dict) and "theta" in u:
        t0, t1 = (float(t) for t in u["theta"])
        return boundary_data(np.diag([np.exp(1j * t0), np.exp(1j * t1)]))
    raise InputError(f"unrecognized boundary data {u!r}")


def load_problem(path: str) -> Problem:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("problem file must hold a JSON object")
    if "p" not in obj:
        raise InputError('problem file needs a "p" entry')

    try:
        r_obj = obj.get("r", "lebesgue")
        r = None if r_obj == "lebesgue" else MonotonePrimitive.from_json(r_obj)

        q_obj = obj.get("q", 0.0)
        if isinstance(q_obj, (int, float)):
            q = CompositeMeasure.lebesgue(float(q_obj))
        else:
            q = CompositeMeasure.from_json(q_obj)

        p_obj = obj["p"]
        if isinstance(p_obj, dict) and _PARAM_KEYS <= set(p_obj):
            p_measure = CompositeMeasure.from_selfsim(SelfSimilarParams.from_json(p_obj))
        else:
            p_measure = CompositeMeasure.from_json(p_obj)

        bc = _parse_bc(obj.get("bc", {"U": "neumann"}))
        r_mass = float(obj.get("r_mass", 1.0))
    except FractalSturmError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed problem entry: {exc}") from exc
    return Problem(r, q, p_measure, bc, r_mass)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _selfsim_p(problem: Problem, message: str) -> SelfSimilarParams:
    """p's parameters when p is purely self-similar, else UnsupportedConfigurationError.

    A composite p with atoms or a density next to its self-similar part
    has parameters too; routes that use the parameters alone reject it here.
    """
    m = problem.p_measure
    if m.selfsim is None or len(m.atoms) or m.density is not None:
        raise UnsupportedConfigurationError(message)
    return m.selfsim[0]


def _build_discretization(problem: Problem, depth: int, k_iter: int | None) -> PencilDiscretization:
    """Route to the assembly matching the problem's coefficient types."""
    if problem.r is None:
        return assemble(problem.r_mass, problem.q, problem.p_measure, problem.bc, depth)
    if not problem.q.is_zero():
        raise UnsupportedConfigurationError(
            "q must be 0 when r is a self-similar primitive; transform first"
        )
    p = _selfsim_p(problem, "p must be self-similar when r is a self-similar primitive")
    scale = problem.p_measure.selfsim[1]
    if k_iter is not None:
        return assemble_iterated_pair(
            problem.r, k_iter, p, problem.bc, depth,
            r_mass=problem.r_mass, p_scale=scale,
        )
    return assemble_selfsimilar_pair(
        problem.r, p, problem.bc, depth,
        r_mass=problem.r_mass, p_scale=scale,
    )


def _pair_weights(problem: Problem) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(d, dprime) of the scaling products for the problem's string."""
    p = _selfsim_p(problem, "asymptotics needs a self-similar p")
    if problem.r is None:
        return tuple(p.a), tuple(p.dprime)
    validate_contraction(problem.r, p)
    return tuple(problem.r.params.dprime), tuple(p.dprime)


def cmd_eval(args) -> int:
    selfsim = load_problem(args.problem).p_measure.selfsim
    if selfsim is None:
        raise UnsupportedConfigurationError("eval needs a self-similar p")
    rows = []
    for x in args.x:
        value, bound = evaluate(selfsim[0], float(x), depth=args.depth)
        rows.append({"x": float(x), "value": value, "error_bound": bound})
    if args.json:
        text = json.dumps(rows, indent=2) + "\n"
    else:
        lines = ["x,value,error_bound"]
        lines += [f"{r['x']:.12g},{r['value']:.12g},{r['error_bound']:.12g}" for r in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def cmd_transform(args) -> int:
    problem = load_problem(args.problem)
    if problem.r is None:
        out = {
            "r": "lebesgue",
            "q": problem.q.to_json(),
            "p": problem.p_measure.to_json(),
            "r_mass": problem.r_mass,
        }
    else:
        # a self-similar part with r's cell widths maps exactly through
        # pushforward_params inside transform_measure
        out = {
            "r": "lebesgue",
            "q": transform_measure(problem.q, problem.r, depth=args.depth).to_json(),
            "p": transform_measure(problem.p_measure, problem.r, depth=args.depth).to_json(),
            "r_mass": problem.r_mass,
        }
    _emit(json.dumps(out, indent=2) + "\n", args.out)
    return 0


def cmd_spectrum(args) -> int:
    problem = load_problem(args.problem)
    if args.n_eigs is None and args.lambda_max is None:
        raise InputError("spectrum needs --n-eigs or --lambda-max")
    disc = _build_discretization(problem, args.depth, args.k_iter)
    xi = resolve_shift(disc)
    # every eigenvalue of each side: a side lists at most what it has
    plus, minus = counting_function(disc, [1e30, -1e30], xi)
    rows: list[tuple[int, int, float]] = []
    for side, total in ((1, plus.n_plus), (-1, minus.n_minus)):
        if total == 0:
            continue
        if args.n_eigs is not None:
            eigs = eigenvalues(disc, min(args.n_eigs, total), side, xi, rtol=args.tol)
        else:
            eigs = eigenvalues_below(disc, args.lambda_max, side, xi, rtol=args.tol)
        rows += [(side, n + 1, lam) for n, lam in enumerate(eigs)]
    if args.json:
        text = json.dumps(
            [{"side": s, "index": n, "lambda": lam} for s, n, lam in rows], indent=2
        ) + "\n"
    else:
        lines = ["side,index,lambda"] + [f"{s},{n},{lam:.12g}" for s, n, lam in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo_s, hi_s, n_s = text.split(":")
        lo, hi, n = float(lo_s), float(hi_s), int(n_s)
    except ValueError as exc:
        raise InputError(f"--grid expects lo:hi:n, got {text!r}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InputError(f"--grid needs finite lo and hi, got {text!r}")
    if lo <= 0.0 or hi <= lo or n < 2:
        raise InputError("--grid needs 0 < lo < hi and n >= 2")
    return np.geomspace(lo, hi, n)


def cmd_asymptotics(args) -> int:
    problem = load_problem(args.problem)
    d, dprime = _pair_weights(problem)
    disc = _build_discretization(problem, args.depth, args.k_iter)
    xi = resolve_shift(disc)
    products = [di * dpi for di, dpi in zip(d, dprime)]
    nonzero = [p for p in products if p != 0.0]
    if len(nonzero) == 1:
        z_plus, z_minus = ladder_counts(problem.p_measure.selfsim[0])
        report = geometric_asymptotics(disc, nonzero[0], args.k_max, z_plus, z_minus, xi).to_json()
        csv_text = None
    else:
        grid = _parse_grid(args.grid)
        rep = asymptotics_report(disc, d, dprime, grid, xi)
        report = rep.to_json()
        buf = io.StringIO()
        write_counting_csv(buf, counting_function(disc, grid, xi), rep.dimension)
        csv_text = buf.getvalue()
    if csv_text is not None and args.out is not None:
        _emit(csv_text, args.out)
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return 0


def cmd_counterexample(args) -> int:
    r = MonotonePrimitive.cantor()
    p = r.params
    lambdas = args.lam if args.lam else [510.0, 85.0, 0.0]
    checks = _splitting_checks(r, p, args.k_iter, lambdas, args.depth)
    if args.json:
        text = json.dumps(
            [
                {
                    "lambda": c.lam,
                    "lhs": c.lhs,
                    "rhs_terms": list(c.rhs_terms),
                    "rhs": c.rhs,
                    "holds": c.holds,
                }
                for c in checks
            ],
            indent=2,
        ) + "\n"
    else:
        lines = ["lambda,lhs,rhs_terms,rhs,holds"]
        for c in checks:
            terms = " ".join(str(t) for t in c.rhs_terms)
            lines.append(f"{c.lam:.12g},{c.lhs},{terms},{c.rhs},{c.holds}")
        refuted = [c for c in checks if not c.holds]
        if refuted:
            c = refuted[0]
            lines.append(
                f"counting does not split: N({c.lam:g}) = {c.lhs} > {c.rhs} = "
                + " + ".join(str(t) for t in c.rhs_terms)
            )
        else:
            lines.append("inequality held at every lambda tested")
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return 0 if any(not c.holds for c in checks) else 1


def _add_common(sub: argparse.ArgumentParser, depth_default: int = 8) -> None:
    sub.add_argument("--depth", type=int, default=depth_default, help="refinement depth")
    sub.add_argument("--out", metavar="FILE", default=None, help="write output to FILE")


def _add_json(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--json", action="store_true", help="emit JSON instead of CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalsturm",
        description="Measure-coefficient Sturm-Liouville strings: "
        "construction, reduction, spectra, asymptotics.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("eval", help="evaluate the self-similar profile of p")
    s.add_argument("problem", help="problem JSON file")
    s.add_argument("x", nargs="+", type=float, help="evaluation points in [0, 1]")
    _add_common(s, depth_default=48)
    _add_json(s)
    s.set_defaults(func=cmd_eval)

    s = subs.add_parser("transform", help="reduce to a Lebesgue-base problem")
    s.add_argument("problem", help="problem JSON file")
    _add_common(s)
    s.set_defaults(func=cmd_transform)

    s = subs.add_parser("spectrum", help="eigenvalues of the discretized pencil")
    s.add_argument("problem", help="problem JSON file")
    s.add_argument("--n-eigs", type=int, default=None, help="first n eigenvalues per side")
    s.add_argument("--lambda-max", type=float, default=None, help="all eigenvalues up to this")
    s.add_argument("--k-iter", type=int, default=None, help="iterate order for the pair route")
    s.add_argument("--tol", type=float, default=1e-10, help="eigenvalue relative tolerance, 0 <= tol < 1")
    _add_common(s)
    _add_json(s)
    s.set_defaults(func=cmd_spectrum)

    s = subs.add_parser("asymptotics", help="counting-function asymptotics report")
    s.add_argument("problem", help="problem JSON file")
    s.add_argument("--grid", default="1e2:1e7:26", help="geometric lambda grid lo:hi:n")
    s.add_argument("--k-iter", type=int, default=None, help="iterate order for the pair route")
    s.add_argument("--k-max", type=int, default=4, help="rungs per ladder (geometric regime)")
    _add_common(s, depth_default=10)
    s.set_defaults(func=cmd_asymptotics)

    s = subs.add_parser(
        "counterexample",
        help="evaluate the counting-splitting inequality on the iterated Cantor string",
    )
    s.add_argument("--k-iter", type=int, default=6, help="substitution iterate order")
    s.add_argument(
        "--lambda", dest="lam", action="append", type=float, default=None,
        help="spectral parameter (repeatable; default 510 85 0)",
    )
    _add_common(s, depth_default=9)
    _add_json(s)
    s.set_defaults(func=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FractalSturmError as exc:
        print(f"fractalsturm: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
