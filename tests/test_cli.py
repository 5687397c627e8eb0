import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from hypothesis import HealthCheck, Phase, assume, given, settings
from hypothesis import strategies as st

import gridcuts
from gridcuts import oracle
from gridcuts.board import SVG_FILL_ONE, Board
from gridcuts.cli import _SUBCOMMANDS, _parse_n_values, _parse_strict, build_parser, main
from gridcuts.reference import GALLERY_4X6, REFERENCE_TERMS
from gridcuts.verify import run_criterion


_SVG_RECT = re.compile(r'<rect x="(\d+)" y="(\d+)" width="1" height="1" fill="([^"]+)"')


def svg_boards(text):
    """The boards in the writers' SVG, one per <g class="board"> group."""
    boards = []
    for group in text.split('<g class="board"')[1:]:
        cells = {(int(y), int(x)): fill == SVG_FILL_ONE for x, y, fill in _SVG_RECT.findall(group)}
        m, n = max(i for i, _ in cells) + 1, max(j for _, j in cells) + 1
        boards.append(Board.from_rows([[cells[i, j] for j in range(n)] for i in range(m)]))
    return boards


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fresh_python(code, *argv):
    """Run code in a fresh interpreter that imports this tree's gridcuts.

    This interpreter has imported whatever the other tests needed.
    """
    src = str(Path(gridcuts.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


FRESH_MAIN = "import sys; from gridcuts.cli import main; sys.exit(main(sys.argv[1:]))"


class TestCount:
    def test_single_width(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "6")
        assert code == 0
        assert out == "54\n"

    def test_width_zero(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "0")
        assert code == 0
        assert out == "0\n"

    def test_range(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "1-6")
        assert code == 0
        assert out.splitlines() == [f"{n} {REFERENCE_TERMS[n-1]}" for n in range(1, 7)]

    def test_json_report(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--format", "json")
        data = json.loads(out)
        assert data == {"m": 4, "n": 2, "canonical": 3, "cuts": 4, "orbits": 3}

    def test_json_with_timings(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--n", "2", "--format", "json", "--timings")
        assert "elapsed_ms" in json.loads(out)

    def test_budget_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "count", "--n", "40")
        assert code == 2
        assert "budget" in err

    def test_board_too_big_for_bitboard(self, capsys):
        code, out, err = run_cli(capsys, "count", "--m", "6", "--n", "11", "--budget", "100000000000")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "64" in err

    def test_any_height_within_the_budget(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "7", "--n", "1-8", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [r["cuts"] for r in data] == [0, 7, 0, 151, 0, 2947, 0, 55939]
        assert all(r["canonical_validated"] is False for r in data)
        code, out, err = run_cli(capsys, "count", "--m", "7", "--n", "9")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("gridcuts: ") and "budget" in err

    def test_column_too_tall_for_bitboard(self, capsys):
        code, out, err = run_cli(capsys, "count", "--m", "100", "--n", "0")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("gridcuts: ") and "64" in err

    def test_budget_is_not_read_from_the_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GRIDCUTS_BUDGET", "16")
        code, out, _ = run_cli(capsys, "count", "--n", "4")
        assert code == 0 and out == "14\n"
        for name in ("oracle-agreement", "figures"):
            result = run_criterion(name)
            assert result.ok, "\n".join(result.failures)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.text(st.sampled_from("0159-- \t\n+x٣٤߀𝟘²½"), max_size=8),
        st.builds("{}-{}".format, st.integers(0, 30), st.integers(0, 30)),
    ))
    def test_width_parser_agrees_with_the_regex(self, value):
        # the parser before it dropped re: \d is any Unicode decimal digit (category Nd);
        # superscript two and one half are digits or numerics that are no decimals
        def by_regex(value):
            text = value.strip()
            matched = re.fullmatch(r"(\d+)-(\d+)", text)
            if matched:
                lo, hi = int(matched.group(1)), int(matched.group(2))
                if hi < lo:
                    raise ValueError(f"empty width range {value!r}")
                return range(lo, hi + 1)
            if re.fullmatch(r"\d+", text):
                return range(int(text), int(text) + 1)
            raise ValueError(f"bad width {value!r}; use a number or a range like 1-12")

        def outcome(parse):
            try:
                return parse(value)
            except ValueError as exc:
                return str(exc)

        assert outcome(_parse_n_values) == outcome(by_regex)

    @pytest.mark.parametrize("width", ["99999999999999999999", "9000", "1-99999999999", "1-40"])
    def test_huge_width_fails_before_any_sweep(self, capsys, width):
        oracle._sweep_cache.cache_clear()
        code, out, err = run_cli(capsys, "count", "--n", width)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("gridcuts: ") and "budget" in err
        assert oracle._sweep_cache.cache_info().currsize == 0


class TestEnumerate:
    def test_text_count(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6")
        assert code == 0
        assert len(out.splitlines()) == 54

    def test_svg_has_all_boards(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "6", "--format", "svg")
        boards = svg_boards(out)
        assert len(boards) == 54
        assert boards == oracle.enumerate_canonical(4, 6)
        for board in GALLERY_4X6:
            assert board in boards

    def test_svg_directory_output(self, capsys, tmp_path):
        out_dir = tmp_path / "boards"
        code, _, _ = run_cli(capsys, "enumerate", "--n", "2", "--format", "svg",
                             "--out", str(out_dir))
        assert code == 0
        files = sorted(out_dir.glob("*.svg"))
        assert len(files) == 3

    def test_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--format", "json")
        data = json.loads(out)
        assert data["count"] == 5
        assert all(b["m"] == 4 and b["n"] == 3 for b in data["boards"])
        boards = [Board.from_rows(b["rows"]) for b in data["boards"]]
        assert boards == oracle.enumerate_canonical(4, 3)

    def test_ascii(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "1", "--format", "ascii")
        assert out == "#\n#\n.\n.\n"

    def test_rejects_other_row_counts(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "4", "--m", "3")
        assert code == 2

    def test_rejects_width_range(self, capsys):
        oracle._sweep_cache.cache_clear()
        code, out, err = run_cli(capsys, "enumerate", "--n", "1-3")
        assert code == 2 and out == ""
        assert err == "gridcuts: enumerate takes a single width, not a range\n"
        assert oracle._sweep_cache.cache_info().currsize == 0

    def test_empty_width_zero(self, capsys):
        for fmt in ("text", "ascii", "svg"):
            code, out, _ = run_cli(capsys, "enumerate", "--n", "0", "--format", fmt)
            assert code == 0 and out == ""
        code, out, _ = run_cli(capsys, "enumerate", "--n", "0", "--format", "json")
        assert json.loads(out)["count"] == 0


class TestSeriesCommands:
    def test_terms_text_is_bfile_lines(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "--limit", "30")
        lines = out.splitlines()
        assert lines[0] == "1 1"
        assert lines[-1] == "30 126217718"
        assert out.endswith("\n")

    def test_terms_limit_one(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "--limit", "1")
        assert out == "1 1\n"

    def test_terms_limit_is_capped(self):
        # parsed only: 50,000 general m = 5 terms take about 50 s
        from gridcuts.cli import parse_args

        assert parse_args(["terms", "--limit", "50000"]).limit == 50_000
        with pytest.raises(ValueError) as refused:
            parse_args(["terms", "--mode", "general", "--m", "5", "--limit", "50001"])
        assert str(refused.value) == (
            "--limit must be at most 50000: time and memory grow with the digits of c_n"
        )

    def test_bfile_format_strict(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "--limit", "5", "--format", "bfile")
        assert out == "1 1\n2 3\n3 5\n4 14\n5 22\n"

    def test_gf_json_matches_reference(self, capsys):
        from gridcuts.reference import (
            REFERENCE_GF_DENOMINATOR_FACTORS,
            REFERENCE_GF_NUMERATOR_FACTORS,
        )
        from gridcuts.series import Polynomial, product

        code, out, _ = run_cli(capsys, "gf", "--format", "json")
        data = json.loads(out)
        num = product(Polynomial(c) for c in REFERENCE_GF_NUMERATOR_FACTORS)
        den = product(Polynomial(c) for c in REFERENCE_GF_DENOMINATOR_FACTORS)
        assert data["numerator"] == [int(c) for c in num.coeffs]
        assert data["denominator"] == [int(c) for c in den.coeffs]

    def test_recurrence_json(self, capsys):
        code, out, _ = run_cli(capsys, "recurrence", "--format", "json")
        data = json.loads(out)
        assert data["order"] == 10
        assert data["initial"][:4] == [0, 1, 3, 5]

    def test_general_mode_terms(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "--mode", "general", "--m", "3", "--limit", "4")
        assert out == "1 0\n2 3\n3 0\n4 9\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_terms_past_the_int_digit_limit(self, capsys, fmt):
        from gridcuts.automaton import build_canonical
        from gridcuts.series import format_bfile, generating_function, series_terms

        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run_cli(capsys, "terms", "--limit", "3000", "--format", fmt)
            assert sys.get_int_max_str_digits() == 640  # restored after the output
        finally:
            sys.set_int_max_str_digits(default)
        assert code == 0 and err == ""
        terms = series_terms(generating_function(build_canonical(4)), 3000)
        assert len(str(terms[-1])) > 640
        assert out == (json.dumps(terms, indent=2) + "\n" if fmt == "json" else format_bfile(terms))

    def test_canonical_mode_takes_m3(self, capsys):
        code, out, err = run_cli(capsys, "gf", "--m", "3")
        assert (code, err) == (0, "")
        assert out == "numerator:   -2*x^6 + 3*x^4 - 2*x^2\ndenominator: 2*x^6 - 5*x^4 + 4*x^2 - 1\n"

    @pytest.mark.parametrize("m", ["6", "0", "-1"])
    def test_canonical_mode_refuses_m_outside_1_to_5(self, capsys, m):
        code, out, err = run_cli(capsys, "gf", "--mode", "canonical", "--m", m)
        assert (code, out) == (2, "")
        assert err == "gridcuts: canonical machines are supported for m in 1..5\n"

    def test_failed_certificate_is_one_line(self, capsys, monkeypatch):
        from gridcuts import series

        counts = series._board_counts

        def corrupted(T, count):
            out = counts(T, count)
            out[-1] += 1
            return out

        series.generating_function.cache_clear()  # a cached gf would skip the certificate
        monkeypatch.setattr(series, "_board_counts", corrupted)
        code, out, err = run_cli(capsys, "gf", "--mode", "general", "--m", "3")
        assert code == 2 and out == ""
        assert err.count("\n") == 1
        assert err.startswith("gridcuts: shortest rational fit of the terms exceeds degree ")


class TestAutomatonCommand:
    def test_text_reports_nine_states_and_similarity(self, capsys):
        code, out, _ = run_cli(capsys, "automaton")
        assert code == 0
        assert "9 states" in out
        assert "reference matrix similarity: True" in out
        assert "column 0110: reachable, on accepting paths, never accepting" in out

    def test_dot_output(self, capsys):
        code, out, _ = run_cli(capsys, "automaton", "--format", "dot")
        assert out.count("shape=box") == 3
        assert out.startswith("digraph")

    def test_json_round_trips(self, capsys):
        from gridcuts.automaton import build_canonical, to_json_dict

        code, out, _ = run_cli(capsys, "automaton", "--format", "json")
        data = json.loads(out)
        assert data["reference_similarity"]["similar"] is True
        del data["reference_similarity"]
        del data["always_rejected_columns"]
        assert data == to_json_dict(build_canonical(4))

    def test_general_small(self, capsys):
        code, out, _ = run_cli(capsys, "automaton", "--mode", "general", "--m", "2")
        assert code == 0
        assert "mode general" in out

    def test_state_explosion_is_one_line(self, capsys, monkeypatch):
        from gridcuts import automaton

        automaton.build_general.cache_clear()  # a cached machine would never meet the cap
        monkeypatch.setattr(automaton, "STATE_CAP", 5)
        code, out, err = run_cli(capsys, "automaton", "--mode", "general", "--m", "4")
        assert code == 2 and out == ""
        assert err == "gridcuts: more than 5 states for m=4 mode=general\n"


class TestAsymptoticsCommand:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_limit_past_float_range_is_one_line(self, capsys, fmt):
        code, out, err = run_cli(capsys, "asymptotics", "--limit", "1200", "--format", fmt)
        assert code == 2
        assert out == ""
        assert err == (
            "gridcuts: --limit must be at most 1187: the exact error profile slows with "
            "the digits of c_n, and its errors underflow to 0 from about n = 4500\n"
        )

    def test_max_limit_is_the_last_term_that_fits_a_float(self):
        from gridcuts.automaton import build_canonical
        from gridcuts.cli import ASYMPTOTICS_MAX_LIMIT
        from gridcuts.series import generating_function, series_terms

        terms = series_terms(generating_function(build_canonical(4)), ASYMPTOTICS_MAX_LIMIT + 1)
        float(terms[-2])
        with pytest.raises(OverflowError):
            float(terms[-1])

    def test_max_limit_runs(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--limit", "1187")
        assert code == 0
        assert out.splitlines()[-1].startswith("1187  ")

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, "asymptotics", "--format", "json")
        data = json.loads(out)
        assert abs(data["z_inv"] - 1.817354022) < 1e-8
        assert abs(data["A"] - 1.93104) < 1e-4
        assert abs(data["B"] - 0.08417) < 1e-4
        assert data["exact_check"] is True
        assert data["errors"][-1][0] == 30
        assert data["errors"][-1][1] <= 0.02


class TestFiguresAndDelahaye:
    def test_figures_svg(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "--format", "svg")
        assert len(svg_boards(out)) == 24

    def test_figure_mismatch_is_one_line(self, capsys, monkeypatch):
        from gridcuts import reference

        tampered = list(reference.GALLERY_4X6)
        tampered[0] = Board.from_rows([[0, 1] * 3] * 4)
        monkeypatch.setattr(reference, "GALLERY_4X6", tuple(tampered))
        code, out, err = run_cli(capsys, "figures")
        assert code == 2 and out == ""
        assert err == "gridcuts: 4x6 gallery board 0 is not in the canonical enumeration:\n"

    def test_delahaye_json(self, capsys):
        code, out, _ = run_cli(capsys, "delahaye", "--n", "3", "--format", "json")
        data = json.loads(out)
        assert data["formula"] == 12
        assert data["cuts"] == 23
        assert data["formula_matches_orbits"] is True


    @pytest.mark.parametrize("half_widths", ["1-7", "0-2"])
    def test_delahaye_range_checked_before_sweeping(self, capsys, half_widths):
        oracle._sweep_cache.cache_clear()
        code, out, err = run_cli(capsys, "delahaye", "--n", half_widths)
        assert code == 2 and out == ""
        assert err == "gridcuts: half-width n must be in 1..6\n"
        assert oracle._sweep_cache.cache_info().currsize == 0


class TestVerifyCommand:
    def test_fast_subset_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--only", "terms-30,generating-function,cross-convention"
        )
        assert code == 0
        assert out.count("PASS") == 3
        assert "verification passed" in out

    def test_json_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--only", "terms-30", "--format", "json")
        data = json.loads(out)
        assert data["ok"] is True
        assert data["criteria"][0]["name"] == "terms-30"

    def test_tampered_reference_fails_named_criterion(self, capsys, monkeypatch):
        from gridcuts import reference

        broken = list(reference.REFERENCE_TERMS)
        broken[29] += 1
        monkeypatch.setattr(reference, "REFERENCE_TERMS", tuple(broken))
        code, out, _ = run_cli(capsys, "verify", "--only", "terms-30")
        assert code == 1
        assert "FAIL  terms-30" in out

    def test_unknown_criterion(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--only", "nope")
        assert code == 2

    @pytest.mark.parametrize("only", ["nope", "property-suites,nope", "terms-30, nope"])
    def test_unknown_criterion_refused_before_any_runs(self, capsys, monkeypatch, only):
        from gridcuts import verify

        def never(name):
            raise AssertionError(f"criterion {name} ran before --only was checked")

        monkeypatch.setattr(verify, "run_criterion", never)
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert code == 2 and out == ""
        assert err.startswith("gridcuts: unknown criterion 'nope'; known: ['terms-30', ")
        assert err.count("\n") == 1

    def test_repeated_criterion_runs_once(self, capsys, monkeypatch):
        from gridcuts import verify

        ran = []
        real = verify.run_criterion

        def counted(name):
            ran.append(name)
            return real(name)

        monkeypatch.setattr(verify, "run_criterion", counted)
        code, out, _ = run_cli(capsys, "verify", "--only", "terms-30,generating-function, terms-30")
        assert code == 0
        assert ran == ["terms-30", "generating-function"]
        assert out.count("PASS  terms-30") == 1

    @pytest.mark.parametrize("only", [",", " , ", ""])
    def test_selection_naming_no_criterion(self, capsys, only):
        code, out, err = run_cli(capsys, "verify", "--only", only)
        assert code == 2 and out == ""
        assert err == "gridcuts: --only names no criterion\n"


class TestImportCost:
    def test_cli_import_loads_no_process_pool(self):
        probe = ("import sys, gridcuts.cli; "
                 "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules))")
        assert fresh_python(probe).stdout == "[]\n"

    def test_cli_import_loads_no_acceptance_suite(self):
        # only `verify` needs it: the command and its --only check import it
        probe = "import sys, gridcuts.cli; print('gridcuts.verify' in sys.modules)"
        assert fresh_python(probe).stdout == "False\n"

    def test_verify_imports_the_suite_on_demand(self):
        refused = fresh_python(FRESH_MAIN, "verify", "--only", "bogus")
        assert refused.returncode == 2 and refused.stdout == ""
        assert refused.stderr.startswith("gridcuts: unknown criterion 'bogus'; known: ['terms-30', ")
        assert refused.stderr.count("\n") == 1
        passed = fresh_python(FRESH_MAIN, "verify", "--only", "terms-30")
        assert passed.returncode == 0 and passed.stderr == ""
        assert passed.stdout.startswith("PASS  terms-30") and "verification passed" in passed.stdout


class TestOutputDeterminism:
    @pytest.mark.parametrize("argv", [
        ("count", "--n", "1-6"),
        ("terms", "--limit", "12"),
        ("gf", "--format", "json"),
        ("enumerate", "--n", "4", "--format", "svg"),
        ("automaton", "--format", "dot"),
    ])
    def test_byte_identical_reruns(self, capsys, argv):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout, _ = run_cli(capsys, "terms", "--limit", "5")
        out_file = tmp_path / "terms.txt"
        run_cli(capsys, "terms", "--limit", "5", "--out", str(out_file))
        assert out_file.read_text() == stdout


class TestErrorBase:
    def test_library_errors_share_one_base(self):
        from gridcuts.asymptotics import UnsupportedPoleShape
        from gridcuts.automaton import StateExplosionError

        for error, builtin in [(oracle.BudgetError, RuntimeError), (StateExplosionError, RuntimeError),
                               (oracle.FigureMismatch, RuntimeError), (UnsupportedPoleShape, ValueError)]:
            assert issubclass(error, gridcuts.GridcutsError) and issubclass(error, builtin)

    def test_inexact_series_arithmetic_is_a_library_error(self):
        from gridcuts.series import InexactError, Polynomial

        assert issubclass(InexactError, gridcuts.GridcutsError) and issubclass(InexactError, ArithmeticError)
        with pytest.raises(InexactError, match="is not divisible"):
            Polynomial([1, 0, 1]).divexact(Polynomial([2, 1]))


_ALL_OPTIONS = list(dict.fromkeys(opt for command in _SUBCOMMANDS.values() for opt in command.options))
_VALUES = ["4", "-1", "+3", "\u0663", "x", "", " 5", "1-3", "terms-30", "json", "general", "txt"]


@st.composite
def _argvs(draw):
    """A command, then its options: in half the argvs all spelled exactly,
    in the rest also in the other ways argparse accepts or refuses:
    abbreviated, --name=value, a name another command owns, a missing value,
    help or the end-of-options marker."""
    command = draw(st.sampled_from([*_SUBCOMMANDS, "bogus"]))
    options = _SUBCOMMANDS[command].options if command in _SUBCOMMANDS else _ALL_OPTIONS
    spellings = ["exact"]
    if draw(st.booleans()):
        spellings += ["abbreviated", "equals", "other", "bare", "special"]
    argv = [command]
    for _ in range(draw(st.integers(0, 5))):
        opt = draw(st.sampled_from(options))
        value = draw(st.sampled_from(opt.choices or _VALUES) | st.sampled_from(_VALUES))
        spelling = draw(st.sampled_from(spellings))
        if spelling == "exact":
            argv += [opt.name] if opt.flag else [opt.name, value]
        elif spelling == "abbreviated":
            argv += [opt.name[:draw(st.integers(3, max(3, len(opt.name) - 1)))], value]
        elif spelling == "equals":
            argv.append(f"{opt.name}={value}")
        elif spelling == "other":
            argv += [draw(st.sampled_from(_ALL_OPTIONS)).name, value]
        elif spelling == "bare":
            argv.append(opt.name)
        else:
            argv.append(draw(st.sampled_from(["-h", "--help", "--", value])))
    return argv


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @settings(max_examples=400, deadline=None)
    @given(_argvs())
    def test_strict_parser_agrees_with_argparse(self, argv):
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # help exits after printing
                expected = vars(build_parser().parse_args(argv))
        except (ValueError, SystemExit):
            expected = None
        strict = _parse_strict(argv)
        assert strict is None or vars(strict) == expected

    def test_well_formed_queries_build_no_parser(self):
        # every query of both benchmark workloads, in a process that has built nothing yet
        probe = ("import contextlib, io, sys; sys.path.insert(0, sys.argv[1]); import run; "
                 "from gridcuts.cli import build_parser, main\n"
                 "argvs = [argv for workload in run.WORKLOADS for argv in run.queries(workload, 0)]\n"
                 "with contextlib.redirect_stdout(io.StringIO()):\n"
                 "    codes = {main(argv) for argv in argvs}\n"
                 "print(codes, build_parser.cache_info().misses)")
        bench = Path(__file__).resolve().parent.parent / "bench"
        ran = fresh_python(probe, str(bench))
        assert ran.stdout == "{0} 0\n", ran.stderr

    @pytest.mark.parametrize("argv", [("--help",), ("gf", "--mode", "foo"), ("terms", "--lim", "5")])
    def test_declined_argv_builds_the_parser(self, capsys, argv):
        def calls():
            info = build_parser.cache_info()
            return info.hits + info.misses

        before = calls()
        with contextlib.suppress(SystemExit):
            main(list(argv))
        assert calls() == before + 1

    def test_abbreviation_prints_the_same_bytes(self, capsys):
        assert run_cli(capsys, "terms", "--lim", "5") == run_cli(capsys, "terms", "--limit", "5")

    @pytest.mark.parametrize("argv", [
        ("gf", "--mode", "foo"),
        ("count",),
        ("bogus",),
        (),
        ("count", "--n", "3", "--m", "x"),
        ("verify", "--only"),
        ("terms", "--limit", "5", "--extra"),
        ("delahaye", "--n", "1", "--budget", "1073741824"),
        # declined by the strict parser, refused by argparse or _validate
        ("gf", "--m"),
        ("count", "--n", "3", "--timings", "x"),
        ("terms", "--limit", "-1"),  # argparse reads -1 as a value; _validate refuses it
    ], ids=lambda argv: " ".join(argv) or "no-args")
    def test_usage_error_is_one_line(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("gridcuts: ") and err.count("\n") == 1

    def test_invalid_choice_message(self, capsys):
        _, _, err = run_cli(capsys, "gf", "--mode", "foo")
        assert err.startswith("gridcuts: argument --mode: invalid choice: 'foo'")

    def test_command_help_shows_its_text(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["count", "--help"])
        assert exited.value.code == 0
        assert "unvalidated for m != 4" in " ".join(capsys.readouterr().out.split())


def _whole_suite(argv):
    """argv runs every verify criterion, about 0.5 s; the acceptance tests do that."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):  # help exits after printing
            args = build_parser().parse_args(argv)
    except (ValueError, SystemExit):
        return False
    return args.command == "verify" and args.only is None


class TestCliContract:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_argvs())
    def test_answer_or_one_line_and_exit_2(self, tmp_path, monkeypatch, argv):
        # every drawn value is a relative path, so an --out lands under tmp_path,
        # where --out x names a directory and --format svg --out txt a file
        assert not any(os.path.isabs(value) for value in argv)
        assume(not _whole_suite(argv))
        monkeypatch.chdir(tmp_path)
        (tmp_path / "x").mkdir(exist_ok=True)
        (tmp_path / "txt").touch()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exited:  # help, which argparse prints and exits 0 after
                code = exited.code
        assert code in (0, 2), (argv, code, err.getvalue())
        if code == 2:
            assert err.getvalue().startswith("gridcuts: ") and err.getvalue().count("\n") == 1, err.getvalue()


class TestBadOutputPath:
    COUNT = ("count", "--n", "3")
    SVG = ("enumerate", "--n", "2", "--format", "svg")

    @pytest.mark.parametrize("argv,target", [
        (COUNT, "missing/x"),
        (COUNT, "."),  # a directory
        (COUNT, "file/x"),
        (SVG, "missing/boards.svg"),
        (SVG, "file"),  # the per-board directory would replace a file
        (SVG, "file/boards"),
    ], ids=["missing-dir", "is-dir", "under-file", "svg-missing-dir", "svg-dir-is-file",
            "svg-dir-under-file"])
    def test_one_line_and_exit_2(self, capsys, tmp_path, argv, target):
        (tmp_path / "file").write_text("")
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / target))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("gridcuts: ")


# (argv, byte count, SHA-256) of stdout for outputs the benchmark does not pin,
# recorded before the CLI moved from a config dataclass to the argparse namespace
GOLDEN_STDOUT = [
    (("automaton", "--format", "dot"), 1707,
     "438cf51c76d2435bc0a32a5c1c670900d0e3da842588a231bc204390c2d031a7"),
    (("automaton",), 265,
     "0b095eeadc2879ce9a610dd623ae8016fb6aaac7bd5527184a787c6db58eb709"),
    (("automaton", "--format", "dot", "--mode", "general", "--m", "2"), 571,
     "7729957268ee0de70730b848ba0526a7a2c988309a2d75ac7449f4acd1d93d4c"),
    (("automaton", "--mode", "general", "--m", "2"), 115,
     "21fad4424cb788e8c2aeefa1b7b201373df2bbc7e21dca965cf09dc5d9357e8c"),
    # the largest machine, recorded before the automaton read columns as ints
    (("automaton", "--format", "json", "--mode", "general", "--m", "5"), 31255,
     "a1f6809a49a6f38323a85ee1e6e79835f698732ba18fb2c2d37591928987ba4f"),
    (("automaton", "--format", "dot", "--mode", "general", "--m", "5"), 13254,
     "fdd01df80f60804fdb49fd8a7ffb8f2ed8605d4cad83b852cba6720375374680"),
    (("automaton", "--mode", "general", "--m", "5"), 833,
     "6bc16b0b6ba4d9dd99e875a1c144dd3890413b5492a0f403e681ff6fc8dd9ad1"),
    (("enumerate", "--n", "6"), 1512,
     "fe3c3cf29e1d6036ec37391ab4e9fd4b9c4a83fc3a743649e167fee1c4799b3d"),
    (("enumerate", "--n", "6", "--format", "json"), 24680,
     "a50ae27d01cf3ad823774fdbc408ff37232e7b202f7822198cd91dd9217be728"),
    (("enumerate", "--n", "6", "--format", "ascii"), 1565,
     "20287ee542724318fce21495bf2fb1c6cb109c8dbe8f5744f2d98fc4a3764df7"),
    (("enumerate", "--n", "6", "--format", "svg"), 119520,
     "e6388a68cdaa964a34898395c907b9caeeccc95de15426b5e637bc9a099fc2f4"),
    (("figures", "--format", "json"), 9818,
     "b0397505c8772de0a8ca66f759b98fa1184cef2aa17433ef97764af39bdbecef"),
    # recorded while enumerate and figures each kept their own board writers
    (("figures",), 588,
     "3110327747bfc09032aa3aefc706d2f60fc7d5f1a2a8de4c1894c99ea5ff7afe"),
    (("figures", "--format", "ascii"), 611,
     "bdbcbd0f68f5fd78b1d644f5883a9cf8b54933a2265a31944b07ca009b7e38e0"),
    (("figures", "--format", "svg"), 46676,
     "d42a3ebf39826f3dbd11cd20fde2289137a8a454d06f464e81bc7e2c85c91c2d"),
    (("delahaye", "--n", "1-3", "--format", "json"), 490,
     "fb8afa2b8e9ac1ec5301e1f23bce8bd098ad42f4cd653650318e9c4bd3aad386"),
    (("count", "--n", "1-10"), 51,
     "d31ecc505c796ebb054e26a1175243b3a2ea23d99151cd4cdafd71793c3370b9"),
    # the longest error table, recorded once the estimate was evaluated in
    # decimal instead of floats
    (("asymptotics", "--limit", "1187"), 18006,
     "a27f709574de5c5de63fc3500acbf592c9083bb26e522bda371afa7b7bf7e8fd"),
    (("asymptotics", "--limit", "1187", "--format", "json"), 62295,
     "c93ba28d798d6ed0f9a6dbf65cf80b5a0cfaf96ed4c4db25cdf3d6ab5fe990ad"),
    # the largest gf, recorded while its gcds still ran rational Euclid
    (("gf", "--mode", "general", "--m", "5"), 262,
     "dc926120ee65828e7a612b6c9d8be9494d4161c6ce8ec4ade0d1cf864fc2209c"),
    (("gf", "--mode", "general", "--m", "5", "--format", "json"), 438,
     "9303214341f1942982564746d3ec6fd19e477eee10ba2de5c936dc40807523e1"),
    (("recurrence", "--mode", "general", "--m", "5"), 540,
     "cba7cab8850aaf0eadea952727dd7d9655fdbda341174c94571145c9d564e85a"),
    (("terms", "--mode", "general", "--m", "5", "--limit", "200"), 4827,
     "3b496c53cc684054f71dbd42b2f104456fdcb38c56dd7a73021557b8aa5bcdcd"),
]


class TestGoldenStdout:
    @pytest.mark.parametrize("argv,size,digest", GOLDEN_STDOUT,
                             ids=[" ".join(argv) for argv, _, _ in GOLDEN_STDOUT])
    def test_stdout_unchanged(self, capsys, argv, size, digest):
        # the second answer is served from the per-process machine and gf caches
        for _ in range(2):
            code, out, _ = run_cli(capsys, *argv)
            data = out.encode()
            assert code == 0
            assert (len(data), hashlib.sha256(data).hexdigest()) == (size, digest)


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# an empty table, a row count of 0, widths past the budget (7 x 12 and 4 x 15),
# estimates past the float range of growth^n, and an output directory that
# cannot be made because its parent is a regular file ({tmp} is a fresh
# directory holding the regular file "file")
REFUSED_SCRIPT_ARGS = [
    ("convention_table.py", ("--max-n", "0")),
    ("convention_table.py", ("--m", "0")),
    ("convention_table.py", ("--m", "7")),
    ("convention_table.py", ("--max-n", "15")),
    ("asymptotic_error_table.py", ("--max-n", "1188")),
    ("asymptotic_error_table.py", ("--max-n", "1200")),
    ("render_gallery.py", ("--out", "{tmp}/file/gallery")),
]


# per script, the values drawn for each option: some it answers quickly, some
# it refuses, and some argparse refuses; "file" is a regular file
SCRIPT_OPTIONS = {
    "convention_table.py": {"--m": ["1", "3", "4", "7", "0", "-2", "x", ""],
                            "--max-n": ["1", "6", "8", "15", "0", "x", ""]},
    "asymptotic_error_table.py": {"--max-n": ["1", "30", "1187", "1188", "0", "x", ""]},
    "render_gallery.py": {"--out": ["gallery", "", "file", "file/gallery"]},
}


@st.composite
def _script_argvs(draw, options):
    """Up to three options, each spelled exactly, as --name=value, with its
    value missing, or replaced by an option the script lacks or by -h."""
    argv = []
    for _ in range(draw(st.integers(0, 3))):
        name = draw(st.sampled_from(sorted(options)))
        value = draw(st.sampled_from(options[name]))
        spelling = draw(st.sampled_from(["exact", "equals", "bare", "other"]))
        if spelling == "exact":
            argv += [name, value]
        elif spelling == "equals":
            argv.append(f"{name}={value}")
        elif spelling == "bare":
            argv.append(name)
        else:
            argv += [draw(st.sampled_from(["--bogus", "-h"])), value]
    return argv


class TestExperimentScripts:
    # no shrinking: each shrink step starts three processes, so a failure took
    # about 92 s to report; the same examples are drawn and checked
    @settings(max_examples=3, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture],
              phases=[phase for phase in Phase if phase is not Phase.shrink])
    @given(st.fixed_dictionaries({script: _script_argvs(options) for script, options in SCRIPT_OPTIONS.items()}))
    def test_drawn_arguments_answer_or_give_one_line(self, tmp_path, argvs):
        # the three scripts run side by side, each in its own process, in tmp_path,
        # so a relative --out lands there
        (tmp_path / "file").touch()
        env = {**os.environ, "PYTHONPATH": str(Path(gridcuts.__file__).resolve().parent.parent)}

        def run(script):
            return subprocess.run([sys.executable, str(SCRIPTS / script), *argvs[script]], cwd=tmp_path,
                                  env=env, capture_output=True, text=True, timeout=60)

        with ThreadPoolExecutor(max_workers=len(argvs)) as pool:
            runs = dict(zip(argvs, pool.map(run, argvs)))
        for script, ran in runs.items():
            assert ran.returncode in (0, 2), (script, argvs[script], ran.stderr)
            if ran.returncode == 0:
                assert ran.stderr == "", (script, argvs[script], ran.stderr)
            else:
                assert ran.stderr.startswith(f"{Path(script).stem}: "), (script, argvs[script], ran.stderr)
                assert ran.stderr.count("\n") == 1, (script, argvs[script], ran.stderr)

    @pytest.mark.parametrize("script,argv", REFUSED_SCRIPT_ARGS,
                             ids=[" ".join((script, *argv)) for script, argv in REFUSED_SCRIPT_ARGS])
    def test_refused_arguments_give_one_line(self, tmp_path, script, argv):
        (tmp_path / "file").write_text("")
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(gridcuts.__file__).resolve().parent.parent)}
        refused = subprocess.run([sys.executable, str(SCRIPTS / script), *argv], env=env,
                                 capture_output=True, text=True, timeout=60)
        assert refused.returncode == 2 and refused.stdout == ""
        assert refused.stderr.count("\n") == 1 and "Traceback" not in refused.stderr

    def test_convention_table_past_four_rows_flags_the_canonical_column(self):
        env = {**os.environ, "PYTHONPATH": str(Path(gridcuts.__file__).resolve().parent.parent)}
        table = subprocess.run([sys.executable, str(SCRIPTS / "convention_table.py"), "--m", "7", "--max-n", "8"],
                               env=env, capture_output=True, text=True, timeout=60)
        assert table.returncode == 0 and table.stderr == ""
        header, *rows, note = table.stdout.splitlines()
        assert [row.split() for row in rows][-1] == ["8", "29649", "55939", "27970"] and len(rows) == 8
        assert note == "(canonical column unvalidated for m=7; stipulations assume 4 rows)"
