"""Seeded request batches for the four benchmark workloads.

A batch depends only on (workload, seed).  Parameters that set a request's
cost are stratified: each batch draws one value from each of a fixed set of
equal-width strata, so every seed gets the same cost profile and the
figures compare across seeds.  The seed picks the values inside the strata,
the order of the requests and the remaining arguments.

A request is a dict with an ``op``, its arguments and ``expect``: "ok", or
the tag of a known seed-state failure (see KNOWN_FAILURES).  Known failures
stay in the batch at a fixed share and are counted as failed requests.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("cli-mix", "exact-tables", "series-digits", "quadrature")

# P90_RANK: a run replays one batch of n requests, so its latencies come in
# groups of near-equal samples, one group per request.  The pooled 90th
# percentile sits about 0.1 n groups from the top.  Batch sizes are chosen
# so that 0.1 n is close to g + 0.5: the percentile then lands in the middle
# of one request's samples, not on the edge between two requests whose
# costs differ.  (quadrature has n = 155; cli-mix and exact-tables use cost
# bands instead.)
#
# LARGEST_FIRST: a request that grows betakit's module-level Euler table
# pays for every entry below it, so in a shuffled batch the table build
# would land on whichever large-k requests happen to come first and the
# latency tail would depend on the seed.  exact-tables and quadrature
# therefore issue their k = 50 request first; the seed orders the rest.

# tag -> (failure kinds the request may show, what happens)
KNOWN_FAILURES = {
    "aux-m0-large-k": (("wrong_value",), "aux I at k in [12, 50] with m = 0: "
                       "|numeric - closed| > tol (an absolute tol against values up to 1e91)"),
    "aux-j-k10-budget": (("budget",), "aux J at k = 10 with m in [100, 200]: "
                         "BudgetExceededError after 2e6 evaluations"),
    "telescope-j-budget": (("budget",), "partial_sum_J at k = 11 with tol 1e-8: "
                           "BudgetExceededError in the target quadrature"),
    "istar-overflow": (("OverflowError",), "partial_sum_I_star at k in [29, 50] with N = 1e5: "
                       "OverflowError converting (2m+1)^(2k+1) to float"),
}


def strata(rng: random.Random, lo: int, hi: int, n: int, shuffle: bool = True) -> list[int]:
    """n integers in [lo, hi], one from each of n equal-width strata.

    Shuffled, or in stratum order with shuffle=False, so that a costly flag
    can go to the same strata in every batch.
    """
    width = (hi - lo + 1) / n
    out = [lo + min(int((i + rng.random()) * width), hi - lo) for i in range(n)]
    if shuffle:
        rng.shuffle(out)
    return out


def grid(rng: random.Random, lo: float, hi: float, n: int, jitter: float) -> list[float]:
    """n values evenly spaced from lo to hi, each moved by up to +-jitter of itself.

    For a parameter whose cost grows steeply: equal-width strata would let
    the seed move the percentiles of a batch by several percent.
    """
    points = [lo + (hi - lo) * i / (n - 1) for i in range(n)]
    return [min(hi, max(lo, x * (1 + jitter * (2 * rng.random() - 1)))) for x in points]


def log_strata(rng: random.Random, lo_exp: float, hi_exp: float, n: int) -> list[float]:
    """n values 10^e, e stratified over [lo_exp, hi_exp], shuffled, 3 significant digits."""
    width = (hi_exp - lo_exp) / n
    out = [float(f"{10 ** (lo_exp + (i + rng.random()) * width):.3g}") for i in range(n)]
    rng.shuffle(out)
    return out


def _cli_requests(rng: random.Random) -> list[dict]:
    reqs: list[dict] = []

    def add(sub: str, argv: list, expect_exit: int = 0, **extra) -> None:
        reqs.append({"op": "cli", "sub": sub, "argv": [str(a) for a in argv],
                     "exit": expect_exit, "expect": "ok", **extra})

    # the three golden invocations, compared byte for byte
    add("beta_odd", ["beta", "odd", "--k", 1, "--digits", 12, "--format", "json"],
        golden_stdout="beta_odd_k1_json.stdout")
    add("beta_even", ["beta", "even", "--k", 1, "--tol", "1e-8", "--format", "text"],
        golden_stdout="beta_even_k1_text.stdout")
    add("usage_error", ["beta", "odd", "--k", -1], 2,
        golden_stderr="beta_odd_invalid_usage.stderr")

    # Costs sit in three bands, so that the 90th percentile of a run's
    # latencies falls inside the middle band, not on a slope between bands:
    # 3 heavy requests that build E_88..E_101 cold (about 4x the median),
    # 8 identity suites at nmax 37 (about 2.5x), and light requests below.
    formats = ["text", "json", "csv"]
    ks = strata(rng, 0, 43, 9, shuffle=False) + strata(rng, 44, 50, 1)
    for i, (k, digits) in enumerate(zip(ks, strata(rng, 1, 400, 10))):
        argv = ["beta", "odd", "--k", k, "--digits", digits, "--format", rng.choice(formats)]
        if i in (1, 5, 9):  # two light cross-checks (k <= 30), one heavy
            argv.append("--cross-check")
        add("beta_odd", argv)
    for i, (k, tol) in enumerate(zip(strata(rng, 1, 24, 5) + strata(rng, 44, 50, 1),
                                     log_strata(rng, -13, -8, 6))):
        argv = ["beta", "even", "--k", k, "--tol", repr(tol), "--format", rng.choice(formats)]
        if i == 1:
            argv.append("--show-erratum")
        add("beta_even", argv)
    for i, n in enumerate(strata(rng, 0, 48, 5) + strata(rng, 88, 101, 1)):
        argv = ["euler", "--n", n, "--format", rng.choice(["json", "json", "text", "csv"])]
        if i % 2:
            argv.append("--poly")
        add("euler", argv)
    for i, n in enumerate(strata(rng, 1, 101, 4, shuffle=False)):
        argv = ["bernoulli", "--n", n, "--format", rng.choice(["json", "json", "text", "csv"])]
        argv += [[], ["--poly"], ["--chi4"], ["--chi4"]][i]
        add("bernoulli", argv)
    for _ in range(8):  # one size: nmax 36..38 would move the band's cost by 25 %
        add("verify", ["verify", "--nmax", 37, "--trials", 12,
                       "--seed", rng.randint(0, 10**6), "--format",
                       rng.choice(["json", "json", "text", "csv"])])
    for k, n in zip(strata(rng, 0, 18, 3), log_strata(rng, 1, 5, 3)):
        add("telescope", ["telescope", "--family", "istar", "--k", k, "--N", int(n),
                          "--format", "json"])
    for k, n in zip(strata(rng, 1, 10, 2), log_strata(rng, 1, 5, 2)):
        add("telescope", ["telescope", "--family", "j", "--k", k, "--N", int(n),
                          "--format", "json"])
    for i, (k, m) in enumerate(zip(strata(rng, 0, 8, 5), strata(rng, 0, 200, 5))):
        add("aux", ["aux", "--family", "ij"[i % 2], "--k", k, "--m", m,
                    "--format", rng.choice(["json", "json", "text"])])
    usage = [
        ["beta", "odd", "--k", 51],
        ["beta", "even", "--k", 0],
        ["beta", "even", "--k", rng.randint(1, 50), "--tol", "1e-14"],
        ["euler", "--n", rng.randint(102, 400)],
        ["bernoulli", "--n", rng.randint(1, 50), "--chi4", "--poly"],
        ["aux", "--family", "i", "--k", rng.randint(0, 8), "--m", -rng.randint(1, 9)],
        ["verify", "--nmax", rng.randint(1, 40), "--trials", 0],
        ["beta", "odd", "--k", rng.randint(0, 50), "--digits", rng.choice([0, 1001, 5000])],
        ["telescope", "--family", "j", "--k", 0, "--N", 10],
    ]
    rng.shuffle(usage)
    for argv in usage[:2]:
        add("usage_error", argv, 2)
    rng.shuffle(reqs)
    # a light request issued twice: its stdout must be byte-identical
    light = [i for i, r in enumerate(reqs) if r["sub"] in ("bernoulli", "aux", "usage_error")]
    i = rng.choice(light)
    reqs.append(dict(reqs[i], repeat_of=i))
    return reqs


def _exact_requests(rng: random.Random) -> list[dict]:
    # k and the digit strata are paired in order, so every batch has the same
    # costs; the seed picks the digits inside their strata and the order
    reqs = [{"op": "odd", "k": k, "digits": d, "expect": "ok"}
            for k, d in enumerate(strata(rng, 12, 100, 50, shuffle=False))]
    # identity suites on fresh tables.  Their cost grows like nmax^4 and sets
    # the latency tail, so the sizes sit on a fixed grid.  The evaluation
    # points move a suite's cost by up to 15 %, so the suite seed is fixed
    # per size.  Above nmax = 60 one suite takes seconds (4.4 s at 100) and
    # a batch would no longer be short enough to replay several times per
    # run; the k = 50 request builds the tables to n = 101.  The five suites
    # at nmax = 32 are a band of equal costs below the four costliest
    # requests: with 51 + 16 = 67 requests the 90th percentile falls in the
    # middle of the band, not on one request's few samples (see P90_RANK).
    for i, nmax in enumerate((10, 12, 14, 16, 18, 20, 22, 24, 32, 32, 32, 32, 32, 44, 52, 60)):
        reqs.append({"op": "suite", "nmax": nmax, "trials": 5, "seed": nmax + i,
                     "expect": "ok"})
    rng.shuffle(reqs)
    # k = 50 first: see LARGEST_FIRST
    return [{"op": "odd", "k": 50, "digits": rng.randint(12, 100), "expect": "ok"}] + reqs


def _series_requests(rng: random.Random) -> list[dict]:
    # 25 requests: the 90th percentile falls on the third-costliest (P90_RANK).
    # k strata and the D grid are paired in order, so every batch has the
    # same costs; a request's cost grows about as D^2.5.
    pairs = list(zip(strata(rng, 0, 20, 25, shuffle=False), map(round, grid(rng, 500, 3000, 25, 0.004))))
    rng.shuffle(pairs)
    return [{"op": "series", "k": k, "digits": d, "expect": "ok"} for k, d in pairs]


def _quadrature_requests(rng: random.Random) -> list[dict]:
    ks = list(range(1, 51)) + list(range(1, 50))
    rng.shuffle(ks)
    tols = log_strata(rng, -13, -8, len(ks) + 1)
    reqs = [{"op": "beta_even", "k": k, "tol": tol, "expect": "ok"}
            for k, tol in zip(ks, tols)]
    # aux cost grows with m and k, so their strata are paired in order
    for i, (k, m) in enumerate(zip(strata(rng, 0, 8, 40, shuffle=False),
                                   strata(rng, 0, 200, 40, shuffle=False))):
        reqs.append({"op": "aux", "family": "ij"[i % 2], "k": k, "m": m, "tol": 1e-8,
                     "expect": "ok"})
    # trace cost grows with both k and N: pair the strata in order, N near
    # 10^3, 10^3.5, ..., 10^5
    for k, e in zip(strata(rng, 0, 28, 5, shuffle=False), grid(rng, 3, 5, 5, 0.002)):
        reqs.append({"op": "istar", "k": k, "n": int(10**e), "expect": "ok"})
    for k, e in zip(strata(rng, 1, 10, 5, shuffle=False), grid(rng, 3, 5, 5, 0.002)):
        reqs.append({"op": "jtrace", "k": k, "n": int(10**e), "tol": 1e-8, "expect": "ok"})
    # known seed-state failures, a fixed 5 of 155 requests.  Their cost
    # swings with k (aux I at m = 0 takes 4 ms at k = 13 and 0.8 s at
    # k = 49), so k is pinned to the ends of each failing range.
    for k in (12, 50):
        reqs.append({"op": "aux", "family": "i", "k": k, "m": 0, "tol": 1e-8,
                     "expect": "aux-m0-large-k"})
    reqs.append({"op": "aux", "family": "j", "k": 10, "m": rng.randint(100, 200), "tol": 1e-8,
                 "expect": "aux-j-k10-budget"})
    reqs.append({"op": "jtrace", "k": 11, "n": int(10 ** rng.uniform(1, 5)), "tol": 1e-8,
                 "expect": "telescope-j-budget"})
    reqs.append({"op": "istar", "k": rng.randint(45, 50), "n": 100000,
                 "expect": "istar-overflow"})
    rng.shuffle(reqs)
    # k = 50 first: see LARGEST_FIRST
    return [{"op": "beta_even", "k": 50, "tol": tols[-1], "expect": "ok"}] + reqs


_BUILDERS = {
    "cli-mix": _cli_requests,
    "exact-tables": _exact_requests,
    "series-digits": _series_requests,
    "quadrature": _quadrature_requests,
}


def build(workload: str, seed: int) -> list[dict]:
    """The request batch of one workload for one seed, ids in issue order."""
    rng = random.Random(f"betakit-bench:{workload}:{seed}")
    reqs = _BUILDERS[workload](rng)
    for i, r in enumerate(reqs):
        r["id"] = i
    return reqs


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
