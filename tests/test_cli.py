"""CLI behavior: golden outputs, formats, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betakit.cli import _build_parser, _write, run_cli

GOLDEN = Path(__file__).parent / "golden"
MATRIX = GOLDEN / "cli_matrix.json"


def _run_captured(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _leaves(parser: argparse.ArgumentParser, words: tuple = ()):
    # (words, parser) for each subcommand that runs a handler, as "beta odd"
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for action in subs:
        for word, sub in action.choices.items():
            yield from _leaves(sub, (*words, word))


class TestOutputMatrix:
    """Every subcommand, format and usage error, pinned byte for byte.

    cli_matrix.json maps each space-joined argv to its exit code, stdout
    and stderr.  After a deliberate output change, rewrite the recorded
    results for the same argvs with
    ``PYTHONPATH=src python tests/test_cli.py`` and review the diff.
    """

    _cases = json.loads(MATRIX.read_text())

    @pytest.mark.parametrize("key", list(_cases), ids=lambda key: key or "(no arguments)")
    def test_matches_recording(self, key, monkeypatch):
        # argparse wraps usage and help text to the terminal width
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.delenv("BETAKIT_DIGITS", raising=False)
        assert _run_captured(key.split()) == self._cases[key]


class TestGoldenOutputs:
    def test_beta_odd_json(self, run_betakit):
        r = run_betakit(["beta", "odd", "--k", "1", "--digits", "12", "--format", "json"])
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "beta_odd_k1_json.stdout").read_bytes()
        # the payload itself is pinned independently of the golden file
        assert r.stdout == b'{"coeff":"1/32","pi_power":3,"decimal":"0.968946146259","digits":12}\n'

    def test_beta_even_text(self, run_betakit):
        r = run_betakit(["beta", "even", "--k", "1", "--tol", "1e-8", "--format", "text"])
        assert r.returncode == 0
        assert r.stdout == (GOLDEN / "beta_even_k1_text.stdout").read_bytes()
        text = r.stdout.decode()
        assert "0.91596559" in text
        err_est = float(text.split("abs error estimate ")[1].split(",")[0])
        assert err_est <= 1e-8

    def test_beta_odd_invalid_k_usage(self, run_betakit):
        r = run_betakit(["beta", "odd", "--k", "-1"])
        assert r.returncode == 2
        assert r.stdout == b""
        assert r.stderr == (GOLDEN / "beta_odd_invalid_usage.stderr").read_bytes()
        assert b"usage:" in r.stderr

    def test_byte_identical_across_runs(self, run_betakit):
        args = ["beta", "even", "--k", "2", "--format", "json"]
        a, b = run_betakit(args), run_betakit(args)
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 0


class TestBetaOdd:
    def test_cross_check_flag(self, run_betakit):
        r = run_betakit(["beta", "odd", "--k", "3", "--cross-check", "--format", "json"])
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["cross_check"]["match"] is True
        assert payload["cross_check"]["coeff"] == payload["coeff"]

    @pytest.mark.parametrize("fmt", ["csv", "json", "text"])
    def test_cross_check_mismatch_is_reported_on_stderr(self, monkeypatch, capsys, fmt):
        import betakit.cli as cli_mod
        from betakit.betavalues import PiPowerValue

        monkeypatch.setattr(cli_mod, "beta_odd_exact_via_euler",
                            lambda k: PiPowerValue(Fraction(1, 3), 2 * k + 1))
        code = run_cli(["beta", "odd", "--k", "1", "--cross-check", "--format", fmt])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "betakit: cross-check mismatch: Bernoulli route coeff 1/32, "
            "Euler route coeff 1/3\n"
        )
        assert captured.out

    def test_csv_format(self, run_betakit):
        r = run_betakit(["beta", "odd", "--k", "0", "--format", "csv"])
        lines = r.stdout.decode().splitlines()
        assert lines[0] == "coeff,pi_power,decimal,digits"
        assert lines[1] == "1/4,1,0.785398163397,12"

    def test_digits_env_override(self, run_betakit):
        r = run_betakit(
            ["beta", "odd", "--k", "1", "--format", "json"],
            env_extra={"BETAKIT_DIGITS": "6"},
        )
        payload = json.loads(r.stdout)
        assert payload["digits"] == 6
        assert payload["decimal"] == "0.968946"

    def test_invalid_digits_env_is_usage_error(self, run_betakit):
        r = run_betakit(
            ["beta", "odd", "--k", "1", "--format", "json"],
            env_extra={"BETAKIT_DIGITS": "abc"},
        )
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"usage:" in r.stderr
        assert b"BETAKIT_DIGITS must be an integer, got 'abc'" in r.stderr
        # an explicit --digits never reads the variable
        r = run_betakit(
            ["beta", "odd", "--k", "1", "--digits", "4", "--format", "json"],
            env_extra={"BETAKIT_DIGITS": "abc"},
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["digits"] == 4

    def test_explicit_digits_beats_env(self, run_betakit):
        r = run_betakit(
            ["beta", "odd", "--k", "1", "--digits", "4", "--format", "json"],
            env_extra={"BETAKIT_DIGITS": "6"},
        )
        assert json.loads(r.stdout)["digits"] == 4

    def test_max_k_guard(self, run_betakit):
        r = run_betakit(["beta", "odd", "--k", "51"])
        assert r.returncode == 2
        r = run_betakit(["beta", "odd", "--k", "51", "--max-k", "60"])
        assert r.returncode == 0


class TestBetaEven:
    def test_json_schema(self, run_betakit):
        r = run_betakit(["beta", "even", "--k", "1", "--format", "json"])
        payload = json.loads(r.stdout)
        assert set(payload) == {"quadrature", "series", "abs_diff"}
        assert set(payload["quadrature"]) == {"value", "abs_error_estimate", "n_evals"}
        assert payload["abs_diff"] < 1e-8

    def test_show_erratum_lists_both_signs(self, run_betakit):
        r = run_betakit(["beta", "even", "--k", "1", "--show-erratum", "--format", "json"])
        payload = json.loads(r.stdout)
        variants = payload["sign_variants"]
        assert variants["corrected"] > 0 > variants["printed"]
        assert variants["printed"] == -variants["corrected"]

    def test_show_erratum_csv_names_both_signs_on_stderr(self, capsys):
        plain = run_cli(["beta", "even", "--k", "1", "--format", "csv"])
        plain_out = capsys.readouterr().out
        code = run_cli(["beta", "even", "--k", "1", "--show-erratum", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == plain == 0
        assert captured.out == plain_out  # three columns, as without the flag
        value = captured.out.splitlines()[1].split(",")[0]
        assert captured.err == (
            f"betakit: prefactor sign variants: (-1)^k {value}, (-1)^(k-1) -{value}\n"
        )

    def test_rejects_k_zero(self, run_betakit):
        assert run_betakit(["beta", "even", "--k", "0"]).returncode == 2

    def test_tol_floor_is_usage_error(self, run_betakit):
        assert run_betakit(["beta", "even", "--k", "1", "--tol", "1e-14"]).returncode == 2

    @pytest.mark.parametrize("argv", [
        ["beta", "even", "--k", "3"],
        ["telescope", "--family", "j", "--k", "3", "--N", "10"],
    ])
    def test_nan_tol_is_usage_error(self, argv, capsys):
        # NaN compares false with everything, so it must fail the floor too;
        # telescope takes no --tol, so there argparse refuses the option itself
        assert run_cli([*argv, "--tol", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = "tol must be >= 1e-13" if argv[0] == "beta" else "unrecognized arguments: --tol nan"
        assert captured.err.splitlines()[-1].endswith(f"error: {error}")
        assert len([line for line in captured.err.splitlines() if "error:" in line]) == 1

    @pytest.mark.parametrize("k", ["86", "150"])
    def test_k_past_the_float_factorial(self, run_betakit, k):
        # (2k-1)! overflows a double from k = 86; --max-k is the one limit
        r = run_betakit(["beta", "even", "--k", k, "--max-k", k, "--format", "json"])
        assert r.returncode == 0
        assert b"Traceback" not in r.stderr
        assert json.loads(r.stdout)["abs_diff"] < 1e-8


class TestTableCommands:
    def test_euler_number_text(self, run_betakit):
        r = run_betakit(["euler", "--n", "4"])
        assert r.stdout == b"E_4 = 5\n"

    def test_euler_poly_text(self, run_betakit):
        r = run_betakit(["euler", "--n", "3", "--poly"])
        assert r.stdout == b"E_3(x) = x^3 - 3/2*x^2 + 1/4\n"

    def test_euler_poly_json_coefficients(self, run_betakit):
        r = run_betakit(["euler", "--n", "2", "--poly", "--format", "json"])
        assert json.loads(r.stdout) == {"n": 2, "coefficients": ["0", "-1", "1"]}

    def test_bernoulli_number(self, run_betakit):
        r = run_betakit(["bernoulli", "--n", "2", "--format", "json"])
        assert json.loads(r.stdout) == {"n": 2, "bernoulli_number": "1/6"}

    def test_bernoulli_chi4(self, run_betakit):
        r = run_betakit(["bernoulli", "--n", "3", "--chi4", "--format", "json"])
        assert json.loads(r.stdout) == {"n": 3, "chi4": "3/2"}

    def test_bernoulli_poly_and_chi4_mutually_exclusive(self, run_betakit):
        r = run_betakit(["bernoulli", "--n", "3", "--chi4", "--poly"])
        assert r.returncode == 2


class TestVerify:
    def test_passing_suite_exit_zero(self, run_betakit):
        r = run_betakit(["verify", "--nmax", "8", "--trials", "3", "--seed", "11"])
        assert r.returncode == 0
        assert r.stdout.decode().strip().endswith("all identities passed")

    def test_json_report_schema(self, run_betakit):
        r = run_betakit(
            ["verify", "--nmax", "6", "--trials", "2", "--seed", "3", "--format", "json"]
        )
        payload = json.loads(r.stdout)
        assert payload["all_passed"] is True
        for entry in payload["identities"]:
            assert set(entry) == {"identity_id", "instances", "passed", "first_failure"}

    def test_trials_cost_nothing(self):
        # trials is accepted and ignored: no point is drawn, however many are asked for
        r = subprocess.run(
            [sys.executable, "-m", "betakit", "verify", "--nmax", "3", "--trials", "1000000000"],
            capture_output=True, timeout=60,
        )
        assert r.returncode == 0
        assert r.stdout.decode().strip().endswith("all identities passed")

    def test_seed_changes_nothing_about_validity(self, run_betakit):
        for seed in ("1", "2"):
            assert run_betakit(["verify", "--nmax", "5", "--seed", seed]).returncode == 0


class TestTelescopeCommand:
    def test_csv_header(self, run_betakit):
        r = run_betakit(["telescope", "--family", "istar", "--k", "0", "--N", "100",
                         "--format", "csv"])
        lines = r.stdout.decode().splitlines()
        assert lines[0] == "family,k,N,S_N,target"
        assert lines[1].startswith("I_star,0,0,")

    def test_json_family_j(self, run_betakit):
        r = run_betakit(["telescope", "--family", "j", "--k", "1", "--N", "50",
                         "--format", "json"])
        payload = json.loads(r.stdout)
        assert payload["family"] == "J"
        assert payload["entries"][-1][0] == 50

    def test_text_columns_stay_aligned_past_six_digits(self, run_betakit):
        # N is padded to the width of the largest N, so S_N starts in one
        # column on every row, here up to the 13-digit N = 10^12
        r = run_betakit(["telescope", "--family", "j", "--k", "10", "--N", "1000000000000"])
        assert r.returncode == 0
        rows = r.stdout.decode().splitlines()[1:]
        assert [row.split()[0] for row in rows][-3:] == [
            "N=10000000000", "N=100000000000", "N=1000000000000"]
        assert {row.index(" S_N=") for row in rows} == {len("  N=1000000000000")}

    def test_family_j_needs_positive_k(self, run_betakit):
        r = run_betakit(["telescope", "--family", "j", "--k", "0", "--N", "10"])
        assert r.returncode == 2

    @pytest.mark.parametrize("family", ["istar", "j"])
    def test_scale_past_the_double_range_is_usage_error(self, run_betakit, family):
        r = run_betakit(["telescope", "--family", family, "--k", "110", "--N", "100",
                         "--max-k", "200"])
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"exceeds the double range" in r.stderr
        assert b"Traceback" not in r.stderr

    @pytest.mark.parametrize("family", ["istar", "j"])
    def test_k_past_the_float_factorial(self, run_betakit, family):
        r = run_betakit(["telescope", "--family", family, "--k", "86", "--N", "10",
                         "--max-k", "200", "--format", "json"])
        assert r.returncode == 0
        assert json.loads(r.stdout)["entries"][-1][0] == 10

    def test_denominators_past_the_double_range_are_usage_error(self, run_betakit):
        # (2m+1)^61 overflows a double from m = 56,536
        r = run_betakit(["telescope", "--family", "istar", "--k", "30", "--N", "100000"])
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"exceeds the double range at N=100000" in r.stderr
        assert b"Traceback" not in r.stderr


class TestAuxCommand:
    def test_closed_and_numeric_agree(self, run_betakit):
        r = run_betakit(["aux", "--family", "i", "--k", "1", "--m", "0", "--format", "json"])
        payload = json.loads(r.stdout)
        assert payload["closed"]["coeff"] == "-2"
        assert payload["closed"]["pi_power"] == -3
        assert payload["match"] is True
        assert set(payload["numeric"]) == {"value", "abs_error_estimate", "n_evals"}

    def test_family_j(self, run_betakit):
        r = run_betakit(["aux", "--family", "j", "--k", "0", "--m", "0", "--format", "json"])
        payload = json.loads(r.stdout)
        assert payload["closed"]["coeff"] == "-1"
        assert payload["closed"]["pi_power"] == -2

    @pytest.mark.parametrize("family, k", [("j", "109"), ("i", "110"), ("j", "110")])
    def test_scale_past_the_double_range_is_usage_error(self, run_betakit, family, k):
        # J(109, m) needs s(219) = 219!/pi^220, past the double range
        r = run_betakit(["aux", "--family", family, "--k", k, "--m", "0",
                         "--max-k", "200"])
        assert r.returncode == 2
        assert r.stdout == b""
        assert b"exceeds the double range" in r.stderr
        assert b"Traceback" not in r.stderr

    def test_k_past_the_float_coefficients(self, run_betakit):
        # E_218 has coefficients past the double range; p_218 does not
        r = run_betakit(["aux", "--family", "i", "--k", "109", "--m", "0",
                         "--max-k", "200", "--format", "json"])
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["numeric"]["value"] < 0
        assert payload["match"] is True

    def test_moderate_k_with_m_one(self, run_betakit):
        # the quadrature printed 6.1e11 here, with exit 0
        r = run_betakit(["aux", "--family", "i", "--k", "20", "--m", "1", "--format", "json"])
        assert r.returncode == 0
        value = json.loads(r.stdout)["numeric"]["value"]
        assert abs(value - 92582487.28510782) <= math.ulp(92582487.28510782)

    def test_j_past_the_old_scale_limit(self, run_betakit):
        # J(109, 1) = 219!/(3 pi)^220 fits a double although 219!/pi^220 does not
        r = run_betakit(["aux", "--family", "j", "--k", "109", "--m", "1", "--max-k", "200"])
        assert r.returncode == 0
        assert r.stdout.decode().splitlines()[1].endswith("exact match")


class TestOptionsPerSubcommand:
    """Each subcommand takes the options its handler reads, and no other."""

    OPTIONS = {
        "beta odd": {"--digits", "--format", "--max-k", "--k", "--cross-check"},
        "beta even": {"--digits", "--tol", "--format", "--max-k", "--k", "--show-erratum"},
        "euler": {"--format", "--max-k", "--n", "--poly"},
        "bernoulli": {"--format", "--max-k", "--n", "--poly", "--chi4"},
        "verify": {"--format", "--max-k", "--seed", "--nmax", "--trials"},
        "telescope": {"--format", "--max-k", "--family", "--k", "--N"},
        "aux": {"--digits", "--format", "--max-k", "--family", "--k", "--m"},
    }

    def test_each_subcommand_has_exactly_its_options(self):
        found = {" ".join(words): {s for a in parser._actions for s in a.option_strings}
                 for words, parser in _leaves(_build_parser())}
        assert found == {name: {"-h", "--help", *opts} for name, opts in self.OPTIONS.items()}

    @pytest.mark.parametrize("argv", [
        ["euler", "--n", "5", "--poly"],
        ["bernoulli", "--n", "3", "--chi4", "--format", "json"],
        ["verify", "--nmax", "6", "--format", "csv"],
        ["telescope", "--family", "j", "--k", "2", "--N", "100"],
    ])
    def test_digits_variable_steers_no_other_subcommand(self, argv, monkeypatch):
        monkeypatch.delenv("BETAKIT_DIGITS", raising=False)
        unset = _run_captured(argv)
        monkeypatch.setenv("BETAKIT_DIGITS", "abc")
        assert _run_captured(argv) == unset
        assert unset["exit"] == 0 and unset["stdout"]


class TestUsageAndErrors:
    def test_no_command(self, run_betakit):
        assert run_betakit([]).returncode == 2

    def test_unknown_command(self, run_betakit):
        assert run_betakit(["cosine"]).returncode == 2

    def test_bad_digits(self, run_betakit):
        assert run_betakit(["beta", "odd", "--k", "1", "--digits", "0"]).returncode == 2
        assert run_betakit(["beta", "odd", "--k", "1", "--digits", "1001"]).returncode == 2

    def test_help_exits_zero(self, run_betakit):
        assert run_betakit(["--help"]).returncode == 0

    def test_bound_above_tol_exits_2(self, monkeypatch, capsys):
        from betakit import quadrature

        monkeypatch.setattr(quadrature, "_sec_integral", lambda k: (1.0, 4e-13))
        code = run_cli(["beta", "even", "--k", "1", "--tol", "1e-13"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error bound 2.0e-13 exceeds tol=1e-13" in captured.err


class TestSelfCheckFailure:
    """A corrupted Euler table entry trips a self-check: exit 1, one line, no traceback."""

    @pytest.mark.parametrize("argv, index", [
        (["aux", "--family", "i", "--k", "3", "--m", "1"], 5),  # E_6'(1/2) = 6 E_5(1/2)
        (["telescope", "--family", "istar", "--k", "3", "--N", "10"], 6),  # correction term
    ])
    def test_corrupted_entry_exits_1(self, argv, index, capsys):
        from betakit.eulerpoly import _EULER, euler_number

        euler_number(10)  # the entry exists before it is replaced
        saved = _EULER.numbers[index]
        _EULER.numbers[index] = saved + 2
        try:
            code = run_cli(argv)
        finally:
            _EULER.numbers[index] = saved
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "self-check failed" in captured.err
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestRunCliInProcess:
    def test_returns_exit_code_instead_of_raising(self, capsys):
        assert run_cli(["beta", "odd", "--k", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coeff"] == "5/1536"

    def test_usage_error_in_process(self, capsys):
        assert run_cli(["beta", "odd"]) == 2

    def test_non_integer_digits_variable_in_process(self, monkeypatch):
        monkeypatch.setenv("BETAKIT_DIGITS", "abc")
        r = _run_captured(["aux", "--family", "i", "--k", "1", "--m", "0"])
        assert (r["exit"], r["stdout"]) == (2, "")
        assert r["stderr"].startswith("usage: betakit aux ")
        assert r["stderr"].endswith("error: BETAKIT_DIGITS must be an integer, got 'abc'\n")

    def test_aux_past_the_double_range_in_process(self):
        r = _run_captured(["aux", "--family", "j", "--k", "109", "--m", "0", "--max-k", "200"])
        assert (r["exit"], r["stdout"]) == (2, "")
        assert r["stderr"].startswith("usage: betakit aux ")
        assert r["stderr"].endswith(
            "error: n!/((2m+1) pi)^(n+1) exceeds the double range at n=219\n")


# The CLI contract over argvs drawn from the parser's own options: each
# subcommand's options with their own types and choices, and half the time
# one fault in the argv: a value that is none of the option's or lies on its
# edge, a required option left out, an option of another subcommand or a
# stray word put in, or the subcommand's last word cut off.  Every size a
# handler computes with stays small: the guarded ones by a --max-k of at
# most _MAX_K, --digits, --N and --m by their draws.
_MAX_K = 6
_LEAVES = list(_leaves(_build_parser()))
_OPTIONS = sorted({s for _, p in _LEAVES for a in p._actions for s in a.option_strings
                   if s.startswith("--") and s != "--help"})
_ODD = st.sampled_from(["", "x", "1.5", "1e3", "--", "-", "-1", "0", "0x10"])
_INTS = {"max_k": st.integers(1, _MAX_K), "digits": st.integers(1, 1001),
         "n_max": st.integers(1, 3000)}


def _option_value(action: argparse.Action):
    # a value of the option's own type or choices, in or out of its range
    if action.choices:
        return st.sampled_from(sorted(action.choices))
    if action.type is int:
        return _INTS.get(action.dest, st.integers(1, _MAX_K + 2)).map(str)
    # --tol
    return st.floats(1e-15, 1.0).map(repr) | st.sampled_from(["1e-13", "9e-14", "0", "nan"])


@st.composite
def _argvs(draw, words: tuple):
    actions = [a for a in dict(_LEAVES)[words]._actions
               if a.option_strings and not isinstance(a, argparse._HelpAction)]
    chosen = [a for a in actions if a.required or draw(st.booleans())]
    parts = [[a.option_strings[0], *([] if a.nargs == 0 else [draw(_option_value(a))])]
             for a in chosen]
    fault = draw(st.sampled_from(["none"] * 4 + ["value", "omit", "extra", "words"]))
    valued = [part for part in parts if len(part) == 2]
    if fault == "value" and valued:
        draw(st.sampled_from(valued))[1] = draw(_ODD)
    elif fault == "omit" and parts:
        parts.remove(draw(st.sampled_from(parts)))
    elif fault == "extra":
        parts.append([draw(st.sampled_from([*_OPTIONS, "stray"]))])
    elif fault == "words":
        words = words[:-1]
    return [*words, *itertools.chain(*draw(st.permutations(parts)))]


class TestCliContract:
    """Every drawn argv gets an answer, the same bytes twice, or a usage error."""

    CSV_HEADERS = {
        "beta odd": "coeff,pi_power,decimal,digits",
        "beta even": "value,abs_error_estimate,n_evals",
        "euler": "n,kind,value",
        "bernoulli": "n,kind,value",
        "verify": "identity_id,instances,passed,first_failure_n",
        "telescope": "family,k,N,S_N,target",
        "aux": "label,closed_coeff,closed_pi_power,closed_decimal,numeric_value,"
               "abs_error_estimate,n_evals,match",
    }

    def test_every_subcommand_has_a_csv_header(self):
        assert {" ".join(words) for words, _ in _LEAVES} == set(self.CSV_HEADERS)

    @pytest.mark.parametrize("argv", [
        "beta odd --k 2", "beta even --k 2 --show-erratum", "euler --n 7 --poly",
        "bernoulli --n 7 --chi4", "verify --nmax 6", "telescope --family j --k 2 --N 20",
        pytest.param("aux --family i --k 2 --m 1", marks=pytest.mark.xfail(
            strict=True, reason="aux writes its label I(k,m) into the CSV unquoted, so "
                                "a CSV reader splits it at the comma into two fields")),
    ])
    def test_csv_rows_have_the_header_width(self, argv):
        r = _run_captured([*argv.split(), "--format", "csv"])
        rows = list(csv.reader(io.StringIO(r["stdout"])))
        assert r["exit"] == 0 and len(rows) > 1
        assert {len(row) for row in rows} == {len(rows[0])}, rows

    @pytest.mark.parametrize("words", [words for words, _ in _LEAVES], ids=" ".join)
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_answer_or_usage_error(self, words, data):
        argv = data.draw(_argvs(words), label="argv")
        # run_cli lets no exception but SystemExit out, and catches that
        with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
            os.environ.pop("BETAKIT_DIGITS", None)
            first = _run_captured(argv)
            assert _run_captured(argv) == first
        code, out, err = first["exit"], first["stdout"], first["stderr"]
        assert code in (0, 1, 2), first
        if code == 2:
            # argparse's usage, then one error line, under the subcommand given
            lines = err.splitlines()
            assert out == "" and err.endswith("\n"), first
            assert lines[0].startswith("usage: betakit"), first
            assert [": error: " in line for line in lines] == [False] * (len(lines) - 1) + [True]
            leaf = next((" ".join(w) for w, _ in _LEAVES if argv[:len(w)] == list(w)), None)
            if leaf:
                assert lines[0].startswith(f"usage: betakit {leaf} "), first
                assert lines[-1].startswith(f"betakit {leaf}: error: "), first
        if code == 0:
            args, _ = _build_parser().parse_known_args(argv)
            if args.format == "json":
                assert out.count("\n") == 1 and isinstance(json.loads(out), dict), first
            elif args.format == "csv":
                header = self.CSV_HEADERS[args._parser.prog.removeprefix("betakit ")]
                assert out.startswith(header + "\n") and out.count("\n") > 1, first
            else:
                assert out.endswith("\n") and out.strip(), first


@pytest.mark.parametrize("argv", [["verify", "--nmax", "40"], ["euler", "--n", "30", "--poly"]])
def test_closed_stdout_keeps_the_exit_code(argv):
    # stdout is a pipe whose reader is gone, as after `betakit ... | head -c 5`
    # once head exits, so every write to it fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "betakit", *argv],
                           stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert b"Traceback" not in r.stderr, r.stderr.decode()
    assert r.returncode == 0


def test_broken_pipe_points_the_stream_at_devnull():
    # in process: the reader of stdout is gone, so the write fails with
    # EPIPE; _write drops the lines and puts devnull behind the descriptor,
    # so that the flush at close succeeds
    read_end, write_end = os.pipe()
    os.close(read_end)
    stream = os.fdopen(write_end, "w")
    try:
        _write(stream, ["beta(3) = 1/32 pi^3", "0.96894614625937"])
        assert os.path.samestat(os.fstat(write_end), os.stat(os.devnull))
        stream.write("more\n")
        stream.flush()
    finally:
        stream.close()


@pytest.mark.parametrize("argv", [
    ["beta", "even", "--k", "1", "--show-erratum"],
    ["beta", "even", "--k", "1", "--show-erratum", "--format", "csv"],
])
def test_closed_stderr_keeps_the_exit_code(argv):
    # stderr is a pipe whose reader is gone, as after `2>&1 | head -c 1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        r = subprocess.run([sys.executable, "-m", "betakit", *argv],
                           stdout=subprocess.PIPE, stderr=write_end, timeout=120)
    finally:
        os.close(write_end)
    plain = subprocess.run([sys.executable, "-m", "betakit", *argv],
                           capture_output=True, timeout=120)
    assert r.returncode == plain.returncode == 0
    assert r.stdout == plain.stdout != b""  # stdout is written in full


def test_import_loads_no_third_party_module():
    # a fresh process: the test session itself may already hold numpy
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import betakit.cli\n"
        "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
        "print(sorted(new - set(sys.stdlib_module_names) - {'betakit'}))\n"
        "print('numpy' in sys.modules)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.decode().splitlines() == ["[]", "False"]


def test_import_footprint():
    # a fresh process.  `import betakit` loads every submodule, because
    # perfbench/tracing.py wraps only the modules loaded when it installs;
    # it loads nothing that dataclasses would (inspect, ast and dis, about
    # 10 ms of start-up), and a text-format command loads no json
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import betakit\n"
        "new = set(sys.modules) - before\n"
        "print(sorted(m for m in new if m.startswith('betakit.')))\n"
        "print(sorted(new & {'dataclasses', 'inspect', 'ast', 'dis'}))\n"
        "from betakit.cli import run_cli\n"
        "code = run_cli(['beta', 'odd', '--k', '1'])\n"
        "print(code, 'json' in set(sys.modules) - before)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, timeout=60)
    assert r.returncode == 0, r.stderr
    submodules = sorted(f"betakit.{m}" for m in (
        "exact", "highprec", "eulerpoly", "betavalues", "quadrature", "telescope"))
    assert r.stdout.decode().splitlines() == [
        repr(submodules),
        "[]",
        "beta(3) = 1/32 * pi^3 = 0.968946146259",
        "0 False",
    ]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    os.environ.pop("BETAKIT_DIGITS", None)
    cases = json.loads(MATRIX.read_text())
    recorded = {key: _run_captured(key.split()) for key in cases}
    MATRIX.write_text(json.dumps(recorded, indent=1) + "\n")
