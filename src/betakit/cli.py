"""Command-line front end (installed as ``betakit``).

Subcommands expose the exact closed forms, the quadrature and series
routes, the identity suite and the telescoping traces, each in text, JSON
or CSV form.  A subcommand takes only the options its handler reads:
--format and --max-k everywhere, --digits (default BETAKIT_DIGITS, else
12) on beta odd, beta even and aux, --tol on beta even, --seed and
--trials on verify.  Each handler returns its result in all three forms
(text lines, a JSON object from the library serializers, CSV lines) and
its stderr notes with an exit code; run_cli prints the form asked for and
the notes through one guarded writer.  Exit codes: 0 success, 1
verification failure (a failed self-check included), 2 usage error (a beta
even error bound above --tol included).  There is no exit code 3 for a
numeric budget: no library path raises ``BudgetExceededError``.  A stdout
or stderr closed early (``| head``) drops the rest of that stream, not
the exit code.
"""

from __future__ import annotations

import argparse
import os
import sys

from .betavalues import beta_odd_exact, beta_odd_exact_via_euler, beta_series
from .eulerpoly import (
    bernoulli_number,
    bernoulli_polynomial,
    euler_number,
    euler_polynomial,
    generalized_bernoulli_chi4,
    run_identity_suite,
)
from .exact import rational_str
from .quadrature import (
    DEFAULT_TOL,
    MIN_TOL,
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

_MAX_DIGITS = 1000


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")
    common.add_argument("--max-k", type=int, default=50, dest="max_k",
                        help="guard against accidentally huge exact computations")
    digits = argparse.ArgumentParser(add_help=False)
    digits.add_argument("--digits", type=int, default=None,
                        help="decimal digits for rendered values (default 12)")

    parser = argparse.ArgumentParser(
        prog="betakit",
        description="Special values of the Dirichlet beta function.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    beta = sub.add_parser("beta", help="beta function values")
    betasub = beta.add_subparsers(dest="subcommand", required=True)

    odd = betasub.add_parser("odd", parents=[digits, common],
                             help="exact beta(2k+1) as a rational multiple of pi^(2k+1)")
    odd.add_argument("--k", type=int, required=True)
    odd.add_argument("--cross-check", action="store_true", dest="cross_check",
                     help="also compute the Euler-number route and compare")
    odd.set_defaults(handler=_cmd_beta_odd, _parser=odd)

    even = betasub.add_parser("even", parents=[digits, common],
                              help="beta(2k) by quadrature of the integral representation")
    even.add_argument("--tol", type=float, default=DEFAULT_TOL,
                      help="absolute tolerance, at least 1e-13: exits 2 if the error "
                           "bound exceeds it (default 1e-8)")
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
    verify.add_argument("--seed", type=int, default=42)
    verify.set_defaults(handler=_cmd_verify, _parser=verify)

    tele = sub.add_parser("telescope", parents=[common], help="partial-sum traces")
    tele.add_argument("--family", choices=("istar", "j"), required=True)
    tele.add_argument("--k", type=int, required=True)
    tele.add_argument("--N", type=int, required=True, dest="n_max")
    tele.set_defaults(handler=_cmd_telescope, _parser=tele)

    aux = sub.add_parser("aux", parents=[digits, common],
                         help="auxiliary integrals: closed form and numeric cross-check")
    aux.add_argument("--family", choices=("i", "j"), required=True)
    aux.add_argument("--k", type=int, required=True)
    aux.add_argument("--m", type=int, required=True)
    aux.set_defaults(handler=_cmd_aux, _parser=aux)

    return parser


def _validate_common(args) -> None:
    p, given = args._parser, vars(args)
    if "digits" in given:
        if args.digits is None:  # read only without --digits: the flag wins over a bad value
            raw = os.environ.get("BETAKIT_DIGITS", "12")
            try:
                args.digits = int(raw)
            except ValueError:
                p.error(f"BETAKIT_DIGITS must be an integer, got {raw!r}")
        if not 1 <= args.digits <= _MAX_DIGITS:
            p.error(f"digits must be in [1, {_MAX_DIGITS}]")
    if "tol" in given and not args.tol >= MIN_TOL:  # NaN fails it too
        p.error(f"tol must be >= {MIN_TOL}")
    if args.max_k < 1:
        p.error("max-k must be >= 1")


def _check_guard(args, name: str, value: int, limit: int) -> None:
    if value > limit:
        args._parser.error(f"{name} exceeds the max-k guard ({limit})")


def _write(stream, lines: list[str]) -> None:
    try:
        stream.write("".join(line + "\n" for line in lines))
        stream.flush()
    except BrokenPipeError:
        # the reader closed the stream early (`| head`): drop the rest, and
        # point it at devnull so that the flush at interpreter exit cannot fail
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), stream.fileno())


def _cmd_beta_odd(args) -> tuple[tuple, int]:
    if args.k < 0:
        args._parser.error("k must be >= 0")
    _check_guard(args, "k", args.k, args.max_k)
    value = beta_odd_exact(args.k)
    payload = value.to_json(args.digits)
    dec = payload["decimal"]
    text = [f"beta({2 * args.k + 1}) = {value} = {dec}"]
    match = True
    if args.cross_check:
        via_euler = beta_odd_exact_via_euler(args.k)
        match = via_euler == value
        payload["cross_check"] = {
            "coeff": rational_str(via_euler.coeff),
            "pi_power": via_euler.power,
            "match": match,
        }
        status = "exact match" if match else "MISMATCH"
        text.append(f"cross-check via Euler numbers: {via_euler} ({status})")
    # stderr, so the CSV form, which has no column for it, shows it too
    notes = [] if match else [
        f"betakit: cross-check mismatch: Bernoulli route coeff {payload['coeff']}, "
        f"Euler route coeff {rational_str(via_euler.coeff)}"]
    csv = ["coeff,pi_power,decimal,digits", f"{payload['coeff']},{value.power},{dec},{args.digits}"]
    return (text, payload, csv, notes), EXIT_OK if match else EXIT_VERIFICATION_FAILURE


def _cmd_beta_even(args) -> tuple[tuple, int]:
    if args.k < 1:
        args._parser.error("k must be >= 1")
    _check_guard(args, "k", args.k, args.max_k)
    try:
        result = beta_even_quadrature(args.k, args.tol)
    except ValueError as exc:  # its error bound exceeds --tol
        args._parser.error(str(exc))
    # 20 digits, so the difference measures the quadrature, not the oracle
    oracle = beta_series(2 * args.k, 20)
    series = oracle.decimal_str(10)
    diff = abs(result.value - float(oracle.value))
    payload = {
        "quadrature": result.to_json(),
        "series": {"decimal": series, "digits": 10},
        "abs_diff": diff,
    }
    dec = f"{result.value:.{args.digits}f}"
    text = [
        f"beta({2 * args.k}) = {dec} "
        f"(abs error estimate {result.abs_error_estimate:.1e}, n_evals {result.n_evals})",
        f"series cross-check: {series} (abs diff {diff:.1e})",
    ]
    notes = []
    if args.show_erratum:
        flipped = beta_even_quadrature(args.k, args.tol, printed_sign=True)
        payload["sign_variants"] = {"corrected": result.value, "printed": flipped.value}
        # stderr, so the CSV form, which has no column for them, shows them too
        notes.append(f"betakit: prefactor sign variants: (-1)^k {result.value!r}, "
                     f"(-1)^(k-1) {flipped.value!r}")
        text += [
            f"prefactor (-1)^k:     {dec}",
            f"prefactor (-1)^(k-1): {flipped.value:.{args.digits}f} "
            "(negates the series value: the latter sign cannot be right)",
        ]
    csv = [
        "value,abs_error_estimate,n_evals",
        f"{result.value!r},{result.abs_error_estimate!r},{result.n_evals}",
    ]
    return (text, payload, csv, notes), EXIT_OK


def _table_record(label: str, n: int, kind: str, key: str, value) -> tuple:
    # value is a rational number, or a polynomial when key is "coefficients"
    if key == "coefficients":
        shown, data = str(value), [rational_str(c) for c in value.coeffs]
    else:
        shown = data = rational_str(value)
    return [f"{label} = {shown}"], {"n": n, key: data}, ["n,kind,value", f"{n},{kind},{shown}"], []


def _cmd_euler(args) -> tuple[tuple, int]:
    n = args.n
    if n < 0:
        args._parser.error("n must be >= 0")
    _check_guard(args, "n", n, 2 * args.max_k + 1)
    if args.poly:
        return _table_record(f"E_{n}(x)", n, "euler_polynomial", "coefficients",
                             euler_polynomial(n)), EXIT_OK
    return _table_record(f"E_{n}", n, "euler_number", "euler_number",
                         euler_number(n)), EXIT_OK


def _cmd_bernoulli(args) -> tuple[tuple, int]:
    n = args.n
    if n < 0:
        args._parser.error("n must be >= 0")
    _check_guard(args, "n", n, 2 * args.max_k + 1)
    if args.chi4:
        if n < 1:
            args._parser.error("chi4 requires n >= 1")
        return _table_record(f"B_{{{n},chi4}}", n, "generalized_bernoulli_chi4", "chi4",
                             generalized_bernoulli_chi4(n)), EXIT_OK
    if args.poly:
        return _table_record(f"B_{n}(x)", n, "bernoulli_polynomial", "coefficients",
                             bernoulli_polynomial(n)), EXIT_OK
    return _table_record(f"B_{n}", n, "bernoulli_number", "bernoulli_number",
                         bernoulli_number(n)), EXIT_OK


def _cmd_verify(args) -> tuple[tuple, int]:
    if args.nmax < 0:
        args._parser.error("nmax must be >= 0")
    if args.trials < 1:
        args._parser.error("trials must be >= 1")
    _check_guard(args, "nmax", args.nmax, 2 * args.max_k + 1)
    report = run_identity_suite(args.nmax, args.trials, args.seed)
    text = []
    csv = ["identity_id,instances,passed,first_failure_n"]
    for r in report.results:
        status = "pass" if r.passed else f"FAIL (first failure: {r.first_failure})"
        text.append(f"{r.identity_id}: {r.instances} instances, {status}")
        ff = r.first_failure or {}
        csv.append(f"{r.identity_id},{r.instances},{str(r.passed).lower()},{ff.get('n', '')}")
    text.append("all identities passed" if report.all_passed else "identity failures detected")
    code = EXIT_OK if report.all_passed else EXIT_VERIFICATION_FAILURE
    return (text, report.to_json(), csv, []), code


def _cmd_telescope(args) -> tuple[tuple, int]:
    if args.k < 0 or args.n_max < 0:
        args._parser.error("k and N must be >= 0")
    _check_guard(args, "k", args.k, args.max_k)
    if args.family == "j" and args.k < 1:
        args._parser.error("family j requires k >= 1")
    try:
        if args.family == "istar":
            trace = partial_sum_I_star(args.k, args.n_max)
        else:
            trace = partial_sum_J(args.k, args.n_max)
    except (ValueError, OverflowError) as exc:
        args._parser.error(str(exc))
    text = [f"family {trace.family}, k={trace.k}, target {trace.target!r}"]
    width = max(6, len(str(args.n_max)))  # S_N in one column; 6 wide up to N = 10^5
    text += [f"  N={n:<{width}d} S_N={s!r}" for n, s in trace.entries]
    return (text, trace.to_json(), trace.to_csv().splitlines(), []), EXIT_OK


def _cmd_aux(args) -> tuple[tuple, int]:
    k, m = args.k, args.m
    if k < 0 or m < 0:
        args._parser.error("k and m must be >= 0")
    _check_guard(args, "k", k, args.max_k)
    name = args.family.upper()
    closed = (aux_integral_I_closed if name == "I" else aux_integral_J_closed)(k, m)
    try:
        numeric = aux_integral_numeric(IntegrandSpec(f"aux_{name}", k, m))
    except ValueError as exc:
        args._parser.error(str(exc))
    # aux_integral_numeric raises unless integration by parts equals the
    # closed form, so its value is float(closed): the match is exact
    label = f"{name}({k},{m})"
    closed_json = closed.to_json(args.digits)
    dec = closed_json["decimal"]
    payload = {"label": label, "closed": closed_json, "numeric": numeric.to_json(),
               "match": True}
    text = [
        f"{label} = {closed} = {dec}",
        f"numeric: {numeric.value!r} (abs error estimate {numeric.abs_error_estimate:.1e}, "
        f"n_evals {numeric.n_evals}), exact match",
    ]
    csv = [
        "label,closed_coeff,closed_pi_power,closed_decimal,numeric_value,"
        "abs_error_estimate,n_evals,match",
        f"{label},{closed_json['coeff']},{closed.power},{dec},{numeric.value!r},"
        f"{numeric.abs_error_estimate!r},{numeric.n_evals},true",
    ]
    return (text, payload, csv, []), EXIT_OK


def run_cli(argv: list[str]) -> int:
    """Parse argv (without the program name) and execute one subcommand."""
    out: list[str] = []
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:  # under the usage of the subcommand that refused them
            args._parser.error(f"unrecognized arguments: {' '.join(extra)}")
        _validate_common(args)
        (text, payload, csv, notes), code = args.handler(args)
        if args.format == "json":
            import json  # loaded only for this form

            out = [json.dumps(payload, separators=(",", ":"))]
        else:
            out = text if args.format == "text" else csv
    except SystemExit as exc:  # argparse, or parser.error in a check
        return int(exc.code or 0)
    except RuntimeError as exc:  # a self-check between two exact routes failed
        notes, code = [f"betakit: {exc}"], EXIT_VERIFICATION_FAILURE
    _write(sys.stderr, notes)
    _write(sys.stdout, out)
    return code


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
