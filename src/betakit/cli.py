"""Command-line front end (installed as ``betakit``).

Subcommands expose the exact closed forms, the quadrature and series
routes, the identity suite and the telescoping traces, each in text, JSON
or CSV form.  Exit codes: 0 success, 1 verification failure, 2 usage
error, 3 numeric budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .betavalues import (
    beta_odd_exact,
    beta_odd_exact_via_euler,
    beta_series,
    render_decimal,
)
from .eulerpoly import (
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
    euler_polynomial,
    generalized_bernoulli_chi4,
    run_identity_suite,
)
from .exact import rational_str
from .highprec import BudgetExceededError
from .quadrature import (
    IntegrandSpec,
    aux_integral_I_closed,
    aux_integral_J_closed,
    aux_integral_numeric,
    beta_even_quadrature,
)
from .telescope import partial_sum_I_star, partial_sum_J

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

_DEFAULT_TOL = 1e-8
_MAX_DIGITS = 1000


def _default_digits(parser: argparse.ArgumentParser) -> int:
    # read only when --digits is absent, so an explicit flag wins over a bad value
    raw = os.environ.get("BETAKIT_DIGITS")
    if raw is None:
        return 12
    try:
        return int(raw)
    except ValueError:
        parser.error(f"BETAKIT_DIGITS must be an integer, got {raw!r}")


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--digits", type=int, default=None,
                        help="decimal digits for rendered values (default 12)")
    common.add_argument("--tol", type=float, default=_DEFAULT_TOL,
                        help="absolute tolerance for quadrature (default 1e-8)")
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--max-k", type=int, default=50, dest="max_k",
                        help="guard against accidentally huge exact computations")

    parser = argparse.ArgumentParser(
        prog="betakit",
        description="Special values of the Dirichlet beta function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    beta = sub.add_parser("beta", help="beta function values")
    betasub = beta.add_subparsers(dest="subcommand", required=True)

    odd = betasub.add_parser("odd", parents=[common],
                             help="exact beta(2k+1) as a rational multiple of pi^(2k+1)")
    odd.add_argument("--k", type=int, required=True)
    odd.add_argument("--cross-check", action="store_true", dest="cross_check",
                     help="also compute the Euler-number route and compare")
    odd.set_defaults(handler=_cmd_beta_odd, _parser=odd)

    even = betasub.add_parser("even", parents=[common],
                              help="beta(2k) by quadrature of the integral representation")
    even.add_argument("--k", type=int, required=True)
    even.add_argument("--show-erratum", action="store_true", dest="show_erratum",
                      help="print both prefactor sign variants")
    even.set_defaults(handler=_cmd_beta_even, _parser=even)

    euler = sub.add_parser("euler", parents=[common], help="Euler numbers and polynomials")
    euler.add_argument("--n", type=int, required=True)
    euler.add_argument("--poly", action="store_true")
    euler.set_defaults(handler=_cmd_euler, _parser=euler)

    bern = sub.add_parser("bernoulli", parents=[common],
                          help="Bernoulli numbers, polynomials, and the mod-4 twisted numbers")
    bern.add_argument("--n", type=int, required=True)
    group = bern.add_mutually_exclusive_group()
    group.add_argument("--poly", action="store_true")
    group.add_argument("--chi4", action="store_true")
    bern.set_defaults(handler=_cmd_bernoulli, _parser=bern)

    verify = sub.add_parser("verify", parents=[common], help="run the exact identity suite")
    verify.add_argument("--nmax", type=int, default=10)
    verify.add_argument("--trials", type=int, default=5)
    verify.set_defaults(handler=_cmd_verify, _parser=verify)

    tele = sub.add_parser("telescope", parents=[common], help="partial-sum traces")
    tele.add_argument("--family", choices=("istar", "j"), required=True)
    tele.add_argument("--k", type=int, required=True)
    tele.add_argument("--N", type=int, required=True, dest="n_max")
    tele.set_defaults(handler=_cmd_telescope, _parser=tele)

    aux = sub.add_parser("aux", parents=[common],
                         help="auxiliary integrals: closed form and numeric cross-check")
    aux.add_argument("--family", choices=("i", "j"), required=True)
    aux.add_argument("--k", type=int, required=True)
    aux.add_argument("--m", type=int, required=True)
    aux.set_defaults(handler=_cmd_aux, _parser=aux)

    return parser


def _validate_common(args) -> None:
    p = args._parser
    if args.digits is None:
        args.digits = _default_digits(p)
    if not 1 <= args.digits <= _MAX_DIGITS:
        p.error(f"digits must be in [1, {_MAX_DIGITS}]")
    if args.tol < 1e-13:
        p.error("tol must be >= 1e-13")
    if args.max_k < 1:
        p.error("max-k must be >= 1")


def _cmd_beta_odd(args) -> int:
    _validate_common(args)
    if args.k < 0:
        args._parser.error("k must be >= 0")
    if args.k > args.max_k:
        args._parser.error(f"k exceeds the max-k guard ({args.max_k})")
    value = beta_odd_exact(args.k)
    via_euler = beta_odd_exact_via_euler(args.k) if args.cross_check else None
    match = via_euler == value if args.cross_check else True
    if args.format == "json":
        payload = value.to_json(args.digits)
        if args.cross_check:
            payload["cross_check"] = {
                "coeff": rational_str(via_euler.coeff),
                "pi_power": via_euler.power,
                "match": match,
            }
        print(_dumps(payload))
    elif args.format == "csv":
        dec = render_decimal(value, args.digits).decimal_str(args.digits)
        print("coeff,pi_power,decimal,digits")
        print(f"{rational_str(value.coeff)},{value.power},{dec},{args.digits}")
    else:
        dec = render_decimal(value, args.digits).decimal_str(args.digits)
        print(f"beta({2 * args.k + 1}) = {value} = {dec}")
        if args.cross_check:
            status = "exact match" if match else "MISMATCH"
            print(f"cross-check via Euler numbers: {via_euler} ({status})")
    return EXIT_OK if match else EXIT_VERIFICATION_FAILURE


def _cmd_beta_even(args) -> int:
    _validate_common(args)
    if args.k < 1:
        args._parser.error("k must be >= 1")
    if args.k > args.max_k:
        args._parser.error(f"k exceeds the max-k guard ({args.max_k})")
    try:
        result = beta_even_quadrature(args.k, args.tol)
    except ValueError as exc:
        args._parser.error(str(exc))
    oracle = beta_series(2 * args.k, 10)
    diff = abs(result.value - float(oracle.value))
    if args.format == "json":
        payload = {
            "quadrature": result.to_json(),
            "series": {"decimal": oracle.decimal_str(10), "digits": 10},
            "abs_diff": diff,
        }
        if args.show_erratum:
            flipped = beta_even_quadrature(args.k, args.tol, printed_sign=True)
            payload["sign_variants"] = {
                "corrected": result.value,
                "printed": flipped.value,
            }
        print(_dumps(payload))
    elif args.format == "csv":
        print("value,abs_error_estimate,n_evals")
        print(f"{result.value!r},{result.abs_error_estimate!r},{result.n_evals}")
    else:
        dec = f"{result.value:.{args.digits}f}"
        print(
            f"beta({2 * args.k}) = {dec} "
            f"(abs error estimate {result.abs_error_estimate:.1e}, "
            f"n_evals {result.n_evals})"
        )
        print(f"series cross-check: {oracle.decimal_str(10)} (abs diff {diff:.1e})")
        if args.show_erratum:
            flipped = beta_even_quadrature(args.k, args.tol, printed_sign=True)
            print(f"prefactor (-1)^k:     {result.value:.{args.digits}f}")
            print(
                f"prefactor (-1)^(k-1): {flipped.value:.{args.digits}f} "
                "(negates the series value: the latter sign cannot be right)"
            )
    return EXIT_OK


def _cmd_euler(args) -> int:
    _validate_common(args)
    if args.n < 0:
        args._parser.error("n must be >= 0")
    if args.n > 2 * args.max_k + 1:
        args._parser.error(f"n exceeds the max-k guard ({2 * args.max_k + 1})")
    if args.poly:
        p = euler_polynomial(args.n)
        if args.format == "json":
            print(_dumps({"n": args.n, "coefficients": [rational_str(c) for c in p.coeffs]}))
        elif args.format == "csv":
            print("n,kind,value")
            print(f"{args.n},euler_polynomial,{p}")
        else:
            print(f"E_{args.n}(x) = {p}")
    else:
        e = euler_number(args.n)
        if args.format == "json":
            print(_dumps({"n": args.n, "euler_number": rational_str(e)}))
        elif args.format == "csv":
            print("n,kind,value")
            print(f"{args.n},euler_number,{rational_str(e)}")
        else:
            print(f"E_{args.n} = {rational_str(e)}")
    return EXIT_OK


def _cmd_bernoulli(args) -> int:
    _validate_common(args)
    if args.n < 0:
        args._parser.error("n must be >= 0")
    if args.n > 2 * args.max_k + 1:
        args._parser.error(f"n exceeds the max-k guard ({2 * args.max_k + 1})")
    if args.chi4:
        if args.n < 1:
            args._parser.error("chi4 requires n >= 1")
        v = generalized_bernoulli_chi4(args.n)
        if args.format == "json":
            print(_dumps({"n": args.n, "chi4": rational_str(v)}))
        elif args.format == "csv":
            print("n,kind,value")
            print(f"{args.n},generalized_bernoulli_chi4,{rational_str(v)}")
        else:
            print(f"B_{{{args.n},chi4}} = {rational_str(v)}")
    elif args.poly:
        p = bernoulli_polynomial(args.n)
        if args.format == "json":
            print(_dumps({"n": args.n, "coefficients": [rational_str(c) for c in p.coeffs]}))
        elif args.format == "csv":
            print("n,kind,value")
            print(f"{args.n},bernoulli_polynomial,{p}")
        else:
            print(f"B_{args.n}(x) = {p}")
    else:
        b = bernoulli_number(args.n)
        if args.format == "json":
            print(_dumps({"n": args.n, "bernoulli_number": rational_str(b)}))
        elif args.format == "csv":
            print("n,kind,value")
            print(f"{args.n},bernoulli_number,{rational_str(b)}")
        else:
            print(f"B_{args.n} = {rational_str(b)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    _validate_common(args)
    if args.nmax < 0:
        args._parser.error("nmax must be >= 0")
    if args.trials < 1:
        args._parser.error("trials must be >= 1")
    if args.nmax > 2 * args.max_k + 1:
        args._parser.error(f"nmax exceeds the max-k guard ({2 * args.max_k + 1})")
    report = run_identity_suite(args.nmax, args.trials, args.seed)
    if args.format == "json":
        print(report.to_json_str())
    elif args.format == "csv":
        print("identity_id,instances,passed,first_failure_n,first_failure_x")
        for r in report.results:
            ff = r.first_failure or {}
            print(
                f"{r.identity_id},{r.instances},{str(r.passed).lower()},"
                f"{ff.get('n', '')},{ff.get('x') or ''}"
            )
    else:
        for r in report.results:
            status = "pass" if r.passed else f"FAIL (first failure: {r.first_failure})"
            print(f"{r.identity_id}: {r.instances} instances, {status}")
        print("all identities passed" if report.all_passed else "identity failures detected")
    return EXIT_OK if report.all_passed else EXIT_VERIFICATION_FAILURE


def _cmd_telescope(args) -> int:
    _validate_common(args)
    if args.k < 0 or args.n_max < 0:
        args._parser.error("k and N must be >= 0")
    if args.k > args.max_k:
        args._parser.error(f"k exceeds the max-k guard ({args.max_k})")
    if args.family == "j" and args.k < 1:
        args._parser.error("family j requires k >= 1")
    try:
        if args.family == "istar":
            trace = partial_sum_I_star(args.k, args.n_max)
        else:
            trace = partial_sum_J(args.k, args.n_max, args.tol)
    except ValueError as exc:
        args._parser.error(str(exc))
    if args.format == "json":
        print(trace.to_json_str())
    elif args.format == "csv":
        sys.stdout.write(trace.to_csv())
    else:
        print(f"family {trace.family}, k={trace.k}, target {trace.target!r}")
        for n, s in trace.entries:
            print(f"  N={n:<6d} S_N={s!r}")
    return EXIT_OK


def _cmd_aux(args) -> int:
    _validate_common(args)
    if args.k < 0 or args.m < 0:
        args._parser.error("k and m must be >= 0")
    if args.k > args.max_k:
        args._parser.error(f"k exceeds the max-k guard ({args.max_k})")
    if args.family == "i":
        closed = aux_integral_I_closed(args.k, args.m)
        spec = IntegrandSpec("aux_I", args.k, args.m)
        label = f"I({args.k},{args.m})"
    else:
        closed = aux_integral_J_closed(args.k, args.m)
        spec = IntegrandSpec("aux_J", args.k, args.m)
        label = f"J({args.k},{args.m})"
    numeric = aux_integral_numeric(spec, args.tol)
    closed_dec = render_decimal(closed, args.digits)
    diff = abs(numeric.value - float(closed_dec.value))
    if args.format == "json":
        print(_dumps({
            "label": label,
            "closed": closed.to_json(args.digits),
            "numeric": numeric.to_json(),
            "abs_diff": diff,
        }))
    elif args.format == "csv":
        print("label,closed_coeff,closed_pi_power,closed_decimal,numeric_value,"
              "abs_error_estimate,n_evals,abs_diff")
        print(
            f"{label},{rational_str(closed.coeff)},{closed.power},"
            f"{closed_dec.decimal_str(args.digits)},{numeric.value!r},"
            f"{numeric.abs_error_estimate!r},{numeric.n_evals},{diff!r}"
        )
    else:
        print(f"{label} = {closed} = {closed_dec.decimal_str(args.digits)}")
        print(
            f"numeric: {numeric.value!r} "
            f"(abs error estimate {numeric.abs_error_estimate:.1e}, "
            f"n_evals {numeric.n_evals}), abs diff {diff:.1e}"
        )
    return EXIT_OK


def run_cli(argv: list[str]) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except BudgetExceededError as exc:
        print(f"betakit: numeric budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
