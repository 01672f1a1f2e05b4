"""One pass of a workload's batch, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --root CHECKOUT --out FILE

A pass issues the batch one request at a time (a closed loop with one
client), times each request, then checks every result against its
contract with the timer stopped.  For cli-mix each request is a fresh
``python -m betakit`` process; for the other workloads the requests are
library calls made from this process, so betakit's tables and caches
start cold, as they do in a new session.  The pass writes one JSON
document to FILE.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracles
import tracing
import workloads

GUARDED_MODULES = ("numpy", "mpmath", "pytest")
CHILD_TIMEOUT_S = 120
IMPORT_INTERVAL_S = 1.0
CALIBRATION_INTERVAL_S = 0.25
MAX_CALIBRATIONS = 16

# the import a fresh CLI process pays, timed with nothing else imported first
PROBE = (
    "import sys, time\n"
    "bad = [m for m in %r if m in sys.modules]\n"
    "if bad: sys.exit('preloaded: %%s' %% bad)\n"
    "t = time.perf_counter()\n"
    "import betakit\n"
    "print(time.perf_counter() - t)\n"
    "print(betakit.__file__)\n"
) % (GUARDED_MODULES,)


class CheckFailed(Exception):
    """A result broke its contract; the message says how."""

    def __init__(self, kind: str, detail: str) -> None:
        super().__init__(f"{kind}: {detail}")
        self.kind = kind


def expect(ok: bool, kind: str, detail: str) -> None:
    if not ok:
        raise CheckFailed(kind, detail)


def import_betakit(root: Path):
    """Import betakit from ROOT/src, refusing a pre-loaded numpy & co."""
    preloaded = [m for m in GUARDED_MODULES if m in sys.modules]
    if preloaded:
        raise SystemExit(f"refusing to import betakit: {preloaded} already imported")
    import betakit

    src = (root / "src").resolve()
    if src not in Path(betakit.__file__).resolve().parents:
        raise SystemExit(f"betakit imported from {betakit.__file__}, not from {src}")
    return betakit


def child_env(root: Path) -> dict:
    """Environment of every child process: betakit from ROOT/src, its default settings."""
    env = dict(os.environ)
    env.pop("BETAKIT_DIGITS", None)
    # an installed package runs from cached bytecode; the untimed first import
    # probe writes the cache under src/, so no timed import pays for compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["COLUMNS"] = "80"  # argparse wraps usage text to the terminal width
    # One busy thread per process, as the load model says.  numpy's OpenBLAS
    # would otherwise start a thread pool in every process; its start-up waits
    # on the other vCPU and, in some host states, doubles the import time.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_probe(root: Path) -> float:
    """Seconds to import betakit from ROOT/src in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          env=child_env(root), cwd=root, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import probe exited {proc.returncode}: {proc.stderr[-2000:]!r}")
    seconds, path = proc.stdout.decode().split("\n")[:2]
    if (root / "src").resolve() not in Path(path).resolve().parents:
        raise RuntimeError(f"betakit imported from {path}, not from {root / 'src'}")
    return float(seconds)


def interpreter_probe(root: Path) -> float:
    """Seconds to start and stop a bare interpreter (``python -c pass``)."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(root), cwd=root,
                   timeout=CHILD_TIMEOUT_S, check=True)
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter, big-integer, float and Fraction work.

    The host's speed drifts by up to half over tens of seconds, and betakit
    (in this process and in child processes) slows and speeds up with this
    kernel; run.py scales a run's times by it.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(50000):
        acc += i * i % 7
    x, modulus = 3**4000, 10**3000 + 7
    for _ in range(150):
        x = x * 1234567891 % modulus
    f = 0.0
    for i in range(1, 50000):
        f += 1.0 / (i * i)
    q = Fraction(0)
    for i in range(1, 60):
        q += Fraction(1, i)
    return time.perf_counter() - start


class Probes:
    """Start-up probes and calibration samples spread over a pass.

    Between two requests the worker times an import of betakit and a bare
    interpreter start if IMPORT_INTERVAL_S have passed since the last time,
    and runs the calibration kernel once for every CALIBRATION_INTERVAL_S
    that has passed since the last sample (up to MAX_CALIBRATIONS at a
    time), so that both are sampled all through a run, long requests
    included.  Their time is left out of the pass's wall time.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.import_s: list[float] = []
        self.interpreter_s: list[float] = []
        self.calibration_s: list[float] = []
        self.spent = 0.0
        self.last_import = -math.inf
        self.last_calibration = time.perf_counter() - CALIBRATION_INTERVAL_S

    def between_requests(self) -> None:
        start = time.perf_counter()
        if start - self.last_import >= IMPORT_INTERVAL_S:
            self.import_s.append(import_probe(self.root))
            self.interpreter_s.append(interpreter_probe(self.root))
            self.last_import = time.perf_counter()
        due = min((start - self.last_calibration) / CALIBRATION_INTERVAL_S, MAX_CALIBRATIONS)
        if due >= 1:
            self.calibration_s += [calibrate() for _ in range(int(due))]
            self.last_calibration = time.perf_counter()
        self.spent += time.perf_counter() - start

    def record(self) -> dict:
        return {"import_probes_s": self.import_s, "interpreter_probes_s": self.interpreter_s,
                "calibration_s": self.calibration_s}


def within(value: Fraction, ref: Fraction, bound: Fraction | float) -> bool:
    return abs(Fraction(value) - ref) <= Fraction(bound)


# ---------------------------------------------------------------- library ops


def execute(bk, req: dict):
    op = req["op"]
    if op == "odd":
        k, d = req["k"], req["digits"]
        v = bk.beta_odd_exact(k)
        w = bk.beta_odd_exact_via_euler(k)
        return v, w, bk.render_decimal(v, d), bk.beta_series(2 * k + 1, d)
    if op == "suite":
        return bk.run_identity_suite(req["nmax"], req["trials"], req["seed"],
                                     bk.EulerTable(), bk.BernoulliTable())
    if op == "series":
        k, d = req["k"], req["digits"]
        return bk.beta_series(2 * k + 1, d), bk.render_decimal(bk.beta_odd_exact(k), d)
    if op == "beta_even":
        # the quadrature and its series cross-check, as `betakit beta even` runs them
        return bk.beta_even_quadrature(req["k"], req["tol"]), bk.beta_series(2 * req["k"], 10)
    if op == "aux":
        k, m = req["k"], req["m"]
        if req["family"] == "i":
            closed, kind = bk.aux_integral_I_closed(k, m), "aux_I"
        else:
            closed, kind = bk.aux_integral_J_closed(k, m), "aux_J"
        numeric = bk.aux_integral_numeric(bk.IntegrandSpec(kind, k, m), req["tol"])
        return closed, numeric, bk.render_decimal(closed, 12)
    if op == "istar":
        return bk.partial_sum_I_star(req["k"], req["n"])
    if op == "jtrace":
        return bk.partial_sum_J(req["k"], req["n"], req["tol"])
    raise ValueError(f"unknown op {op!r}")


def _trace_samples(n_max: int) -> list[int]:
    samples = set(range(min(n_max, 9) + 1))
    decade = 10
    while decade <= n_max:
        samples.add(decade)
        decade *= 10
    samples.add(n_max)
    return sorted(samples)


def check_istar(k: int, n: int, entries, final: float) -> None:
    expect([e[0] for e in entries] == _trace_samples(n), "mismatch", "sample points")
    # alternating tail after m = n, plus float rounding of the prefactor
    # times the sum against the subtracted correction term
    pref = math.factorial(2 * k) / math.pi ** (2 * k + 1)
    corr = abs(float(Fraction(oracles.euler_numbers(2 * k)[2 * k], 2 ** (2 * k + 2))))
    bound = pref / (2 * n + 3) ** (2 * k + 1) + 1e-13 * max(pref, corr, 1.0)
    expect(abs(final) <= bound, "wrong_value", f"I* trace ends at {final!r}, bound {bound:.3g}")


def check_jtrace(k: int, n: int, tol: float, entries, target: float) -> None:
    expect([e[0] for e in entries] == _trace_samples(n), "mismatch", "sample points")
    final = entries[-1][1]
    pref = math.factorial(2 * k - 1) / math.pi ** (2 * k)
    bound = pref / (2 * n + 3) ** (2 * k) + tol + 1e-13 * max(abs(target), 1.0)
    expect(abs(final - target) <= bound, "wrong_value",
           f"J trace ends {final - target:.3g} from its target, bound {bound:.3g}")


def check(bk, req: dict, res, counters: dict) -> list:
    """Raise CheckFailed unless res meets the request's contract.

    Returns the request's exact outputs, which go into the pass digest.
    Defect counters that do not fail a request are added to counters.
    """
    op = req["op"]
    if op == "odd":
        v, w, r, s = res
        k, d = req["k"], req["digits"]
        expect(v == w, "mismatch", f"routes differ at k={k}: {v} vs {w}")
        expect(v.power == 2 * k + 1 and v.coeff == oracles.beta_odd_coeff(k), "wrong_value",
               f"beta({2 * k + 1}) coefficient {v.coeff}")
        ref = oracles.pi_power_value(v.coeff, v.power, d + 5)
        expect(within(r.value, ref, Fraction(1, 10**d)), "wrong_value", f"render at {d} digits")
        expect(within(s.value, r.value, Fraction(2, 10**d)), "wrong_value",
               f"series and render disagree at {d} digits")
        counters["betavalues.misrounded"] += s.decimal_str() != r.decimal_str()
        return [oracles.rational_str(v.coeff), v.power, r.decimal_str(), s.decimal_str()]
    if op == "suite":
        expect(res.all_passed, "wrong_value", f"identity suite failed: {res.to_json_str()}")
        counters["eulerpoly.suite_instances"] += sum(x.instances for x in res.results)
        return [res.to_json_str()]
    if op == "series":
        s, r = res
        k, d = req["k"], req["digits"]
        ref = oracles.pi_power_value(oracles.beta_odd_coeff(k), 2 * k + 1, d + 5)
        expect(within(r.value, ref, Fraction(1, 10**d)), "wrong_value", f"render at {d} digits")
        expect(within(s.value, r.value, Fraction(2, 10**d)), "wrong_value",
               f"beta_series({2 * k + 1}, {d}) disagrees with the closed form")
        counters["betavalues.misrounded"] += s.decimal_str() != r.decimal_str()
        return [s.decimal_str(), r.decimal_str()]
    if op == "beta_even":
        q, cross = res
        k, tol = req["k"], req["tol"]
        ref = bk.beta_series(2 * k, 20).value  # untimed reference
        err = abs(Fraction(q.value) - ref)
        counters["quadrature.estimate_understated"] += q.abs_error_estimate < err
        expect(within(cross.value, ref, Fraction(1, 10**10)), "wrong_value",
               f"beta_series({2 * k}, 10) cross-check")
        expect(err <= Fraction(tol), "wrong_value", f"beta({2 * k}) off by {float(err):.3g} > {tol}")
        return [repr(q.value), repr(q.abs_error_estimate), q.n_evals, cross.decimal_str()]
    if op == "aux":
        closed, numeric, closed_dec = res
        coeff, power = oracles.aux_closed_coeff(req["family"], req["k"], req["m"])
        expect(closed.coeff == coeff and closed.power == power, "wrong_value", "closed form")
        ref = oracles.pi_power_value(coeff, power, 40)
        err = abs(Fraction(numeric.value) - ref)
        counters["quadrature.estimate_understated"] += numeric.abs_error_estimate < err
        expect(err <= Fraction(req["tol"]), "wrong_value",
               f"aux {req['family']}({req['k']},{req['m']}) off by {float(err):.3g}")
        return [oracles.rational_str(closed.coeff), closed_dec.decimal_str(),
                repr(numeric.value), numeric.n_evals]
    if op == "istar":
        check_istar(req["k"], req["n"], res.entries, res.final())
        return [repr(e[1]) for e in res.entries]
    if op == "jtrace":
        check_jtrace(req["k"], req["n"], req["tol"], res.entries, res.target)
        return [repr(res.target)] + [repr(e[1]) for e in res.entries]
    raise ValueError(f"unknown op {op!r}")


def misrounded_sweep(bk) -> int:
    """Count beta_series(s, d) strings that differ from render_decimal's, s odd <= 15, d <= 39.

    A fixed, untimed probe of the low-digit region where beta_series rounds
    wrongly at the seed commit (the requests themselves use 12+ digits).
    """
    return sum(bk.beta_series(2 * k + 1, d).decimal_str()
               != bk.render_decimal(bk.beta_odd_exact(k), d).decimal_str()
               for k in range(8) for d in range(1, 40))


def run_library(root: Path, workload: str, seed: int, trace: bool) -> dict:
    bk = import_betakit(root)
    rec = tracing.install(bk) if trace else None
    reqs = workloads.build(workload, seed)
    results = []
    probes = Probes(root)
    start = time.perf_counter()
    for req in reqs:
        probes.between_requests()
        if rec:
            rec.request = req["id"]
        t0 = time.perf_counter()
        try:
            res = execute(bk, req)
        except bk.BudgetExceededError as exc:
            res = CheckFailed("budget", str(exc))
        except Exception as exc:  # a crash is a failed request, not a crashed run
            res = CheckFailed(type(exc).__name__, str(exc))
        results.append((req, time.perf_counter() - t0, res))
    wall = time.perf_counter() - start - probes.spent
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    spans = list(rec.spans) if rec else []  # the checks below are not traced
    counters = {"betavalues.misrounded": 0, "quadrature.estimate_understated": 0,
                "eulerpoly.suite_instances": 0}
    outputs = []
    records = []
    for req, latency, res in results:
        if not isinstance(res, CheckFailed):
            try:
                outputs.append(check(bk, req, res, counters))
                res = None
            except CheckFailed as exc:
                res = exc
        records.append(record(req, latency, res))
        if res is not None:
            outputs.append([res.kind])
    if trace and workload == "exact-tables":
        counters["betavalues.misrounded"] += misrounded_sweep(bk)
    out = summary(records, wall, rss_kb, outputs, counters)
    out.update(probes.record())
    if rec:
        out.update(trace_summary(spans))
        out["spans"] = spans
    return out


def record(req: dict, latency: float, failure: CheckFailed | None) -> dict:
    rec = {"id": req["id"], "latency_s": latency, "sub": req.get("sub", req["op"]),
           "expect": req["expect"], "failed": failure is not None}
    if failure is not None:
        rec["kind"] = failure.kind
        rec["detail"] = str(failure)[:300]
        kinds = workloads.KNOWN_FAILURES.get(req["expect"], ((), ""))[0]
        rec["known"] = failure.kind in kinds
    return rec


def summary(records: list, wall: float, rss_kb: int, outputs: list, counters: dict) -> dict:
    failed = [r for r in records if r["failed"]]
    counters["quadrature.budget_exceeded"] = sum(r["kind"] == "budget" for r in failed)
    return {
        "wall_s": wall,
        "peak_rss_mb": rss_kb / 1024.0,
        "requests": records,
        "attempted": len(records),
        "failed": len(failed),
        "unexpected": [r for r in failed if not r["known"]],
        "known_failures": {tag: sum(r["expect"] == tag for r in failed if r["known"])
                           for tag in workloads.KNOWN_FAILURES},
        "digest": workloads.digest(outputs),
        "counters": counters,
    }


def trace_summary(spans: list) -> dict:
    return {
        "span_metrics": tracing.span_metrics(spans),
        "layers": tracing.layer_times(spans),
        "n_spans": len(spans),
    }


# ---------------------------------------------------------------- cli-mix


def _num(text: str) -> Fraction:
    return Fraction(text.strip())


def parse_poly(text: str) -> list[Fraction]:
    """Ascending coefficients of a polynomial printed as 'x^5 - 5/2*x^4 + 5/2*x^2 - 1/2'."""
    text = text.strip()
    if text == "0":
        return []
    sign = -1 if text.startswith("-") else 1
    parts = re.split(r" ([+-]) ", text.lstrip("-"))
    terms = [(sign, parts[0])] + [(1 if s == "+" else -1, body)
                                  for s, body in zip(parts[1::2], parts[2::2])]
    coeffs: dict[int, Fraction] = {}
    for s, body in terms:
        head, x, power = body.partition("x")
        coeff = Fraction(head.rstrip("*")) if head else Fraction(1)
        coeffs[int(power[1:]) if power else int(bool(x))] = s * coeff
    return [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]


@functools.lru_cache(maxsize=None)
def reference_betakit(root: Path):
    """betakit imported into the checking process, for reference values taken untimed."""
    return import_betakit(root)


def check_cli(req: dict, proc, root: Path) -> None:
    golden = root / "tests" / "golden"
    argv = req["argv"]
    out = proc.stdout.decode()
    if "golden_stdout" in req:
        expect(proc.stdout == (golden / req["golden_stdout"]).read_bytes(), "mismatch",
               f"stdout differs from {req['golden_stdout']}")
    if "golden_stderr" in req:
        expect(proc.stderr == (golden / req["golden_stderr"]).read_bytes(), "mismatch",
               f"stderr differs from {req['golden_stderr']}")
    if proc.returncode != req["exit"]:
        kind = {3: "budget"}.get(proc.returncode, "exit_code")
        if b"Traceback" in proc.stderr:
            kind = "exception"
        raise CheckFailed(kind, f"exit {proc.returncode}: {proc.stderr[-200:]!r}")
    if req["exit"] == 2:
        expect(proc.stdout == b"" and b"usage:" in proc.stderr, "mismatch", "usage error output")
        return
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    fmt = opt.get("--format", "text")
    sub = req["sub"]
    lines = out.splitlines()
    if sub == "beta_odd":
        k, d = int(opt["--k"]), int(opt["--digits"])
        if fmt == "json":
            p = json.loads(out)
            coeff, dec = p["coeff"], p["decimal"]
            if "--cross-check" in argv:
                expect(p["cross_check"]["match"] is True and p["cross_check"]["coeff"] == coeff,
                       "mismatch", "cross-check")
        elif fmt == "csv":
            coeff, _, dec, _ = lines[1].split(",")
        else:
            head, _, dec = lines[0].rpartition(" = ")
            coeff = head.split(" = ", 1)[1].split(" * ")[0]
            if "--cross-check" in argv:
                expect(lines[1].endswith("(exact match)"), "mismatch", "cross-check")
        expect(_num(coeff) == oracles.beta_odd_coeff(k), "wrong_value", f"coeff {coeff}")
        ref = oracles.pi_power_value(oracles.beta_odd_coeff(k), 2 * k + 1, d + 5)
        expect(within(_num(dec), ref, Fraction(1, 10**d)), "wrong_value", f"decimal {dec[:40]}")
    elif sub == "beta_even":
        k, tol = int(opt["--k"]), float(opt["--tol"])
        ref = reference_betakit(root).beta_series(2 * k, 20).value
        series = None
        if fmt == "json":
            p = json.loads(out)
            value, est = p["quadrature"]["value"], p["quadrature"]["abs_error_estimate"]
            series = p["series"]["decimal"]
            if "--show-erratum" in argv:
                v = p["sign_variants"]
                expect(v["corrected"] == value and v["printed"] == -value, "mismatch",
                       "sign variants")
        elif fmt == "csv":
            value, est, _ = lines[1].split(",")
        else:
            value, _, rest = lines[0].partition(" = ")[2].partition(" (abs error estimate ")
            est = rest.split(",")[0]
            series = lines[1].split(": ")[1].split(" ")[0]
        # text prints the value rounded to --digits places
        slack = Fraction(1, 2 * 10 ** int(opt.get("--digits", "12"))) if fmt == "text" else 0
        expect(float(est) <= tol, "wrong_value", f"estimate {est} above tol {tol}")
        expect(within(_num(str(value)), ref, Fraction(tol) + slack), "wrong_value",
               f"beta({2 * k}) = {value}, off by more than {tol}")
        if series is not None:
            expect(within(_num(series), ref, Fraction(1, 10**10)), "wrong_value",
                   f"series cross-check {series}")
    elif sub in ("euler", "bernoulli"):
        n = int(opt["--n"])
        poly = "--poly" in argv
        if sub == "euler":
            want = oracles.euler_poly(n) if poly else Fraction(oracles.euler_numbers(n)[n])
        elif "--chi4" in argv:
            want = oracles.chi4_bernoulli(n)
        else:
            want = oracles.bernoulli_poly(n) if poly else oracles.bernoulli_numbers(n)[n]
        if fmt == "json":
            payload = json.loads(out)
            got = ([_num(c) for c in payload["coefficients"]] if poly
                   else _num(list(payload.values())[-1]))
        else:
            text = lines[1].split(",", 2)[2] if fmt == "csv" else lines[0].split(" = ", 1)[1]
            got = parse_poly(text) if poly else _num(text)
        expect(got == want, "wrong_value", f"{sub} {n}: {str(got)[:80]}")
    elif sub == "verify":
        if fmt == "json":
            ok = json.loads(out)["all_passed"] is True
        elif fmt == "csv":
            ok = all(line.split(",")[2] == "true" for line in lines[1:])
        else:
            ok = lines[-1] == "all identities passed"
        expect(ok, "wrong_value", "identity suite")
    elif sub == "telescope":
        p = json.loads(out)
        k, n = int(opt["--k"]), int(opt["--N"])
        if opt["--family"] == "istar":
            check_istar(k, n, p["entries"], p["entries"][-1][1])
        else:
            check_jtrace(k, n, float(opt.get("--tol", "1e-8")), p["entries"], p["target"])
    elif sub == "aux":
        family, k, m = opt["--family"], int(opt["--k"]), int(opt["--m"])
        coeff, power = oracles.aux_closed_coeff(family, k, m)
        if fmt == "json":
            p = json.loads(out)
            got_coeff, numeric = p["closed"]["coeff"], p["numeric"]["value"]
        else:
            got_coeff = lines[0].split(" = ")[1].split(" * ")[0]
            numeric = float(lines[1].split("numeric: ")[1].split(" ")[0])
        expect(_num(got_coeff) == coeff, "wrong_value", f"aux closed form {got_coeff}")
        ref = oracles.pi_power_value(coeff, power, 40)
        expect(within(Fraction(numeric), ref, Fraction(1, 10**8)), "wrong_value",
               f"aux {family}({k},{m}) numeric {numeric!r}")


def run_cli_mix(root: Path, seed: int, trace: bool, spans_dir: Path | None) -> dict:
    reqs = workloads.build("cli-mix", seed)
    env = child_env(root)
    child = Path(__file__).with_name("cli_child.py")
    procs = []
    probes = Probes(root)
    start = time.perf_counter()
    for req in reqs:
        probes.between_requests()
        if trace:
            cmd = [sys.executable, str(child), str(spans_dir / f"{req['id']}.json"), *req["argv"]]
        else:
            cmd = [sys.executable, "-m", "betakit", *req["argv"]]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=root, timeout=CHILD_TIMEOUT_S)
        procs.append((req, time.perf_counter() - t0, proc))
    wall = time.perf_counter() - start - probes.spent
    # the largest resident set among the children waited for; the import
    # probes among them load less than any betakit command, so never set it
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    records, outputs = [], []
    for req, latency, proc in procs:
        failure = None
        try:
            check_cli(req, proc, root)
            if "repeat_of" in req:
                first = procs[req["repeat_of"]][2]
                expect(proc.stdout == first.stdout and proc.returncode == first.returncode,
                       "mismatch", "repeated request gave different output")
        except CheckFailed as exc:
            failure = exc
        except (ValueError, KeyError, IndexError) as exc:  # output that does not parse
            failure = CheckFailed("mismatch", f"{type(exc).__name__}: {exc}")
        records.append(record(req, latency, failure))
        outputs.append([req["argv"], proc.returncode, proc.stdout.decode(errors="replace")])
    out = summary(records, wall, rss_kb, outputs, {})
    out.update(probes.record())
    if trace:
        spans = []
        for req in reqs:
            path = spans_dir / f"{req['id']}.json"
            doc = json.loads(path.read_text())
            path.unlink()
            offset = len(spans)
            spans.extend(s[:4] + [s[4] + offset if s[4] >= 0 else -1, req["id"]] + s[6:]
                         for s in doc["spans"])
        out.update(trace_summary(spans))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans-dir", type=Path)
    args = ap.parse_args()
    root = args.root.resolve()
    if args.workload == "cli-mix":
        out = run_cli_mix(root, args.seed, bool(args.trace), args.spans_dir)
    else:
        out = run_library(root, args.workload, args.seed, bool(args.trace))
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
