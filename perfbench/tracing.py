"""In-memory spans around the public calls into each betakit module.

install() wraps the functions listed in TRACED and rebinds every betakit
module attribute that refers to the original, so a call made through the
name another module imported (``betavalues.pi_fraction``,
``telescope.integrate_adaptive``, ...) is recorded as a child of its
caller.  Nothing under src/ is edited.  Spans are plain lists kept in
memory and written out by the caller when the run ends.

A span is [name, layer, start, end, parent index, request id, error, info].
"""

from __future__ import annotations

import functools
import sys
import time

LAYERS = ("cli", "betavalues", "quadrature", "telescope", "eulerpoly", "highprec", "exact")

# module -> attributes to wrap; "Class.method" wraps a method on the class.
# Per-point helpers (integrands, binomial) are left out: they run millions
# of times per request and the wrapper would dominate what it measures.
TRACED = {
    "exact": ("poly_eval", "poly_compose_affine", "poly_derivative"),
    "highprec": ("pi_fraction", "quantize", "decimal_string"),
    "eulerpoly": (
        "EulerTable.ensure", "BernoulliTable.ensure", "euler_polynomial", "euler_number",
        "bernoulli_polynomial", "bernoulli_number", "generalized_bernoulli_chi4",
        "run_identity_suite", "gf_coefficient_check",
    ),
    "betavalues": (
        "beta_odd_exact", "beta_odd_exact_via_euler", "beta_series", "render_decimal",
        # private: separates the float plain-summation path inside beta_series
        "_beta_plain",
    ),
    "quadrature": (
        "integrate_adaptive", "beta_even_quadrature", "aux_integral_numeric",
        "aux_integral_I_closed", "aux_integral_J_closed",
    ),
    "telescope": ("partial_sum_I_star", "partial_sum_J", "correction_term"),
    "cli": ("run_cli",),
}

NAME, LAYER, START, END, PARENT, REQUEST, ERROR, INFO = range(8)


class Recorder:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request: int | None = None

    def wrap(self, layer: str, name: str, fn, before=None, after=None):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.request, None, None]
            spans.append(span)
            stack.append(idx)
            state = before(args) if before else None
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[ERROR] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if after:
                span[INFO] = after(args, result, state)
            return result

        return traced


def _table_len(args):
    return len(args[0].polys)


def _table_growth(args, result, before_len):
    return len(args[0].polys) - before_len


def _pi_misses(fn):
    info = getattr(fn, "cache_info", None)
    if info is None:
        return None, None
    return (lambda args: info().misses), (
        lambda args, result, before: (info().misses - before) * args[0]
    )


def _n_evals(args, result, state):
    return getattr(result, "n_evals", None)


def _trace_terms(args, result, state):
    return sum(n + 1 for n, _ in result.entries)


def install(package) -> Recorder:
    """Wrap TRACED in every loaded betakit module; return the recorder."""
    rec = Recorder()
    modules = [m for name, m in sys.modules.items()
               if name == package.__name__ or name.startswith(package.__name__ + ".")]
    for layer, names in TRACED.items():
        mod = sys.modules.get(f"{package.__name__}.{layer}")
        if mod is None:
            continue  # betakit.cli is loaded only by CLI processes
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            fn = getattr(owner, attr, None)
            if fn is None:
                continue  # gone in this version of the package
            before = after = None
            if attr == "ensure":
                before, after = _table_len, _table_growth
            elif attr == "pi_fraction":
                before, after = _pi_misses(fn)
            elif attr in ("integrate_adaptive", "beta_even_quadrature", "aux_integral_numeric"):
                after = _n_evals
            elif attr.startswith("partial_sum"):
                after = _trace_terms
            wrapped = rec.wrap(layer, f"{layer}.{qual}", fn, before, after)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
    return rec


def child_time(spans: list[list]) -> list[float]:
    """For each span, the time covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return child


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per layer: busy time (outermost spans of the layer) and self time."""
    covered = child_time(spans)
    out = {layer: {"busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        out[s[LAYER]]["self_s"] += dur - covered[i]
        p = s[PARENT]
        while p >= 0 and spans[p][LAYER] != s[LAYER]:
            p = spans[p][PARENT]
        if p < 0:
            out[s[LAYER]]["busy_s"] += dur
    return out


def span_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer call metrics that come from spans."""
    tot: dict[str, float] = {}
    cnt: dict[str, int] = {}
    info: dict[str, float] = {}
    target_s = 0.0
    pi_hits = 0
    evals_ok_s = 0.0
    evals_ok = 0
    child = child_time(spans)
    for i, s in enumerate(spans):
        name = s[NAME]
        dur = s[END] - s[START]
        tot[name] = tot.get(name, 0.0) + dur
        cnt[name] = cnt.get(name, 0) + 1
        if s[INFO] is not None:
            info[name] = info.get(name, 0) + s[INFO]
        if name == "highprec.pi_fraction" and s[INFO] == 0:
            pi_hits += 1
        if name == "quadrature.integrate_adaptive":
            if s[ERROR] is None and s[INFO] is not None:
                # self time: a first call can build the Euler table inside
                evals_ok += s[INFO]
                evals_ok_s += dur - child[i]
            if s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "telescope.partial_sum_J":
                target_s += dur
    growth_s = {}
    for s in spans:
        if s[NAME].endswith("Table.ensure") and s[INFO]:
            growth_s[s[NAME]] = growth_s.get(s[NAME], 0.0) + s[END] - s[START]
    g = tot.get
    return {
        "eulerpoly.euler_build_s": growth_s.get("eulerpoly.EulerTable.ensure", 0.0),
        "eulerpoly.euler_n": info.get("eulerpoly.EulerTable.ensure", 0),
        "eulerpoly.bernoulli_build_s": growth_s.get("eulerpoly.BernoulliTable.ensure", 0.0),
        "eulerpoly.bernoulli_n": info.get("eulerpoly.BernoulliTable.ensure", 0),
        "eulerpoly.suite_s": g("eulerpoly.run_identity_suite", 0.0),
        "exact.poly_eval_calls": cnt.get("exact.poly_eval", 0),
        "exact.poly_eval_s": g("exact.poly_eval", 0.0),
        "exact.compose_affine_s": g("exact.poly_compose_affine", 0.0),
        "highprec.pi_s": g("highprec.pi_fraction", 0.0),
        "highprec.pi_digits": info.get("highprec.pi_fraction", 0),
        "highprec.pi_hit_ratio": pi_hits / cnt["highprec.pi_fraction"] if pi_hits else 0.0,
        "highprec.quantize_s": g("highprec.quantize", 0.0),
        "betavalues.series_s": g("betavalues.beta_series", 0.0),
        "betavalues.series_calls": cnt.get("betavalues.beta_series", 0),
        "betavalues.series_plain_s": g("betavalues._beta_plain", 0.0),
        "betavalues.render_s": g("betavalues.render_decimal", 0.0),
        "betavalues.odd_bernoulli_s": g("betavalues.beta_odd_exact", 0.0),
        "betavalues.odd_euler_s": g("betavalues.beta_odd_exact_via_euler", 0.0),
        "quadrature.beta_even_s": g("quadrature.beta_even_quadrature", 0.0),
        "quadrature.beta_even_evals": info.get("quadrature.beta_even_quadrature", 0),
        "quadrature.aux_s": g("quadrature.aux_integral_numeric", 0.0),
        "quadrature.aux_evals": info.get("quadrature.aux_integral_numeric", 0),
        "quadrature.evals_per_s": evals_ok / evals_ok_s if evals_ok_s else 0.0,
        "telescope.trace_s": g("telescope.partial_sum_I_star", 0.0)
        + g("telescope.partial_sum_J", 0.0),
        "telescope.trace_terms": info.get("telescope.partial_sum_I_star", 0)
        + info.get("telescope.partial_sum_J", 0),
        "telescope.target_s": target_s,
    }
