"""Command-line interface.

Subcommands: count, enumerate, gf, terms, recurrence, automaton,
asymptotics, figures, delahaye, verify.  All outputs are deterministic;
timing fields are only added with --timings so identical invocations give
byte-identical output.  Exit codes: 0 success, 1 verification failure,
2 resource/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from . import oracle, reference
from .asymptotics import dominant_form, error_profile
from .automaton import (
    Automaton,
    always_rejected_columns,
    build_canonical,
    build_general,
    column_bits,
    permutation_similarity_witness,
    to_dot,
    to_json_dict as automaton_json_dict,
    transfer_matrix,
)
from .board import Board, boards_to_svg
from .errors import GridcutsError
from .series import _exact_digits, format_bfile, generating_function, recurrence_of, series_terms

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_RESOURCE = 2

# the longest error profile `asymptotics` prints.  The profile is exact, so
# its cost grows with the digits of c_n (0.07 s at n = 1187, 2.3 s at 4800), and
# the relative errors it prints as floats underflow: subnormal from about
# n = 4500, 0 from n = 4754.  1187, the last n whose c_n fits a float, is
# kept because recorded outputs and the CI ratio check run at it.
ASYMPTOTICS_MAX_LIMIT = 1187

# the longest term list `terms` prints.  Time and memory grow with the digits
# of c_n: general m = 5 takes 3.5 s and 119 MB for 20,000 terms and 49.5 s
# and 582 MB for 50,000, and an unbounded --limit ran until it was killed.
TERMS_MAX_LIMIT = 50_000


# every subcommand's namespace carries every field, so commands read args.X freely
_DEFAULTS = {
    "m": 4, "n": None, "limit": 30, "mode": "canonical", "fmt": "text",
    "budget": oracle.DEFAULT_BUDGET, "out": None, "timings": False, "only": None,
}


class _Option(NamedTuple):
    """One `--name` option of a subcommand; its default is `_DEFAULTS[dest]`."""

    name: str
    dest: str
    type: Callable[[str], object] | None = None  # None keeps the raw string
    choices: tuple[str, ...] | None = None
    required: bool = False
    flag: bool = False  # takes no value; given, it sets True
    help: str | None = None


class _Subcommand(NamedTuple):
    """A subcommand's help and description, its options in help order, and its handler."""

    help: str
    options: tuple[_Option, ...]
    run: Callable[[argparse.Namespace], int]


def _formats(*choices: str) -> _Option:
    return _Option("--format", "fmt", choices=choices)


_OUT = _Option("--out", "out", help="write output to this path")
_M = _Option("--m", "m", int)
_MODE = _Option("--mode", "mode", choices=("canonical", "general"))
_BUDGET = _Option("--budget", "budget", int, help="sweep candidate cap (default %(default)s)")

def _parse_n_values(value: str) -> range:
    # a number or lo-hi, in Unicode decimal digits (category Nd), as int() reads them
    lo, dash, hi = value.strip().partition("-")
    if lo.isdecimal() and (hi.isdecimal() or not dash):
        first, last = int(lo), int(hi or lo)
        if last < first:
            raise ValueError(f"empty width range {value!r}")
        return range(first, last + 1)
    raise ValueError(f"bad width {value!r}; use a number or a range like 1-12")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        # main prints it as one line with exit code 2, not a usage block
        raise ValueError(message)


def _parse_strict(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, or None for any other argv.

    Well-formed: a subcommand, then `--name value` and `--flag` tokens, each
    name spelled in full and each value valid and not starting with "-",
    with every required option given.  A repeated option keeps its last
    value, as in argparse.  Help, usage errors and the other spellings
    argparse accepts (abbreviations, `--name=value`, negative numbers) are
    left to build_parser.
    """
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    options = _SUBCOMMANDS[argv[0]].options
    by_name = {opt.name: opt for opt in options}
    missing = {opt.name for opt in options if opt.required}
    values = dict(_DEFAULTS)
    tokens = iter(argv[1:])
    for token in tokens:
        opt = by_name.get(token)
        if opt is None:
            return None
        if opt.flag:
            values[opt.dest] = True
            continue
        raw = next(tokens, "-")  # a missing value is declined like a dash
        if raw.startswith("-"):
            return None
        try:
            value = raw if opt.type is None else opt.type(raw)
        except ValueError:
            return None
        # choices are checked after conversion, as argparse checks them
        if opt.choices is not None and value not in opt.choices:
            return None
        values[opt.dest] = value
        missing.discard(token)
    if missing:
        return None
    return argparse.Namespace(command=argv[0], **values)


@functools.cache  # built on the first argv _parse_strict declines; parsing does not change it
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridcuts",
        description="Count and enumerate cuts of an m x n grid into two congruent connected pieces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.set_defaults(**_DEFAULTS)  # also the default of each option added below
        for opt in command.options:
            if opt.flag:
                p.add_argument(opt.name, dest=opt.dest, action="store_true", help=opt.help)
            else:
                p.add_argument(opt.name, dest=opt.dest, type=opt.type, choices=opt.choices,
                               required=opt.required, help=opt.help)
    return parser


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The parsed invocation; validated before any computation starts.

    argparse is built only for an argv the strict parser declines, so help
    and every usage message come from argparse alone.
    """
    args = _parse_strict(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    if args.n is not None:
        args.n = _parse_n_values(args.n)
    if args.only is not None:
        # a repeated name runs once, in the order names first appear
        args.only = tuple(dict.fromkeys(name.strip() for name in args.only.split(",") if name.strip()))
    _validate(args)
    return args


def _validate(args: argparse.Namespace) -> None:
    if args.command == "count":
        # the widest width decides whether the whole range fits the budget
        oracle.check_shape(args.m, args.n[-1], args.budget)
    if args.command == "delahaye":
        # checked for the whole range before the first 3 x 2n sweep
        oracle.check_half_width(args.n[0])
        oracle.check_half_width(args.n[-1])
    if args.command == "enumerate" and args.m != 4:
        raise ValueError("canonical enumeration is defined for --m 4")
    if args.command == "enumerate" and len(args.n) != 1:
        raise ValueError("enumerate takes a single width, not a range")
    if args.command in ("terms", "asymptotics") and args.limit < 1:
        raise ValueError("--limit must be at least 1")
    if args.command == "terms" and args.limit > TERMS_MAX_LIMIT:
        raise ValueError(
            f"--limit must be at most {TERMS_MAX_LIMIT}: time and memory grow with the digits of c_n"
        )
    if args.command == "asymptotics" and args.limit > ASYMPTOTICS_MAX_LIMIT:
        raise ValueError(
            f"--limit must be at most {ASYMPTOTICS_MAX_LIMIT}: the exact error profile "
            f"slows with the digits of c_n, and its errors underflow to 0 from about n = 4500"
        )
    if args.only == ():
        raise ValueError("--only names no criterion")
    if args.only is not None:
        from . import verify  # the acceptance suite loads only for `verify`
        known = [name for name, _, _ in verify.CRITERIA]
        for name in args.only:
            if name not in known:
                raise ValueError(f"unknown criterion {name!r}; known: {known}")


def _machine(args: argparse.Namespace) -> Automaton:
    if args.mode == "canonical":
        return build_canonical(args.m)
    return build_general(args.m)


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, data) -> None:
    _emit(args, json.dumps(data, indent=2) + "\n")


# -- commands -----------------------------------------------------------------


def cmd_count(args: argparse.Namespace) -> int:
    reports = oracle.count_reports(args.m, args.n, budget=args.budget)
    if args.fmt == "json":
        data = [r.to_json_dict(timings=args.timings) for r in reports]
        _emit_json(args, data[0] if len(data) == 1 else data)
    else:
        lines = [
            str(r.canonical) if len(reports) == 1 else f"{r.n} {r.canonical}"
            for r in reports
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_enumerate(args: argparse.Namespace) -> int:
    (n,) = args.n
    boards = oracle.enumerate_canonical(args.m, n, budget=args.budget)
    if args.fmt == "json":
        _emit_json(args, {
            "m": args.m, "n": n, "count": len(boards),
            "boards": [b.to_json_dict() for b in boards],
        })
    else:
        _emit_boards(args, boards)
    return EXIT_OK


def _emit_boards(args: argparse.Namespace, boards: list[Board]) -> None:
    """Write boards as text rows, ASCII art or SVG; no boards write nothing."""
    if not boards:
        _emit(args, "")
    elif args.fmt == "ascii":
        _emit(args, "\n\n".join(b.to_ascii() for b in boards) + "\n")
    elif args.fmt == "svg" and args.out and not args.out.endswith(".svg"):
        directory = Path(args.out)
        directory.mkdir(parents=True, exist_ok=True)
        width = len(str(len(boards) - 1))
        for idx, board in enumerate(boards):
            (directory / f"board_{idx:0{width}d}.svg").write_text(boards_to_svg([board]))
    elif args.fmt == "svg":
        _emit(args, boards_to_svg(boards))
    else:
        lines = ["/".join("".join(map(str, row)) for row in b.cells) for b in boards]
        _emit(args, "\n".join(lines) + "\n")


def cmd_gf(args: argparse.Namespace) -> int:
    gf = generating_function(_machine(args))
    if args.fmt == "json":
        _emit_json(args, gf.to_json_dict())
    else:
        _emit(args, f"numerator:   {gf.numerator}\ndenominator: {gf.denominator}\n")
    return EXIT_OK


def cmd_terms(args: argparse.Namespace) -> int:
    terms = series_terms(generating_function(_machine(args)), args.limit)
    if args.fmt == "json":
        with _exact_digits():
            _emit_json(args, terms)
    else:
        # text and b-file agree: "n value" lines, n from 1, newline-terminated
        _emit(args, format_bfile(terms))
    return EXIT_OK


def cmd_recurrence(args: argparse.Namespace) -> int:
    rec = recurrence_of(generating_function(_machine(args)))
    if args.fmt == "json":
        _emit_json(args, rec.to_json_dict())
    else:
        terms = " + ".join(
            f"{-c}*c[n-{i}]" for i, c in enumerate(rec.coefficients[1:], start=1)
        )
        lines = [
            f"order {rec.order}, valid for n >= {rec.valid_from}",
            f"{rec.coefficients[0]}*c[n] = {terms}",
            "initial " + " ".join(f"c{i}={v}" for i, v in enumerate(rec.initial)),
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_automaton(args: argparse.Namespace) -> int:
    machine = _machine(args)
    if args.fmt == "dot":
        _emit(args, to_dot(machine))
        return EXIT_OK
    data = automaton_json_dict(machine)
    data["always_rejected_columns"] = [
        {"column": list(column_bits(machine.m, col)), **facts}
        for col, facts in sorted(always_rejected_columns(machine).items())
    ]
    if machine.mode == "canonical" and machine.m == 4:
        witness = permutation_similarity_witness(
            transfer_matrix(machine).entries, reference.REFERENCE_TRANSFER_MATRIX
        )
        data["reference_similarity"] = {
            "similar": witness is not None,
            "permutation": witness,
        }
    if args.fmt == "json":
        _emit_json(args, data)
    else:
        lines = [
            f"mode {machine.mode}, m={machine.m}, {len(machine.states)} states, "
            f"{len(machine.transitions)} transitions",
            f"start states: {sorted(machine.start)}",
            f"accept even: {sorted(machine.accept_even)}",
            f"accept odd: {sorted(machine.accept_odd)}",
        ]
        for entry in data["always_rejected_columns"]:
            bits = "".join(map(str, entry["column"]))
            lines.append(
                f"column {bits}: reachable, on accepting paths, never accepting"
            )
        if "reference_similarity" in data:
            sim = data["reference_similarity"]
            lines.append(
                f"reference matrix similarity: {sim['similar']}, permutation {sim['permutation']}"
            )
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_asymptotics(args: argparse.Namespace) -> int:
    gf = generating_function(build_canonical(4))
    est = dominant_form(gf, amplitude_reference=reference.reference_amplitudes)
    errors = error_profile(gf, est, args.limit)
    if args.fmt == "json":
        _emit_json(args, est.to_json_dict(errors=errors))
    else:
        lines = [
            f"growth      {est.growth:.10f}",
            f"amplitude A {est.amplitude:.6f}",
            f"alternation B {est.alternation:.6f}",
            f"closed-form amplitude check: {est.exact_check}",
            "n  relative error",
        ]
        lines += [f"{n}  {err:.3e}" for n, err in errors]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_figures(args: argparse.Namespace) -> int:
    galleries = oracle.regenerate_figures()
    if args.fmt == "json":
        _emit_json(args, {
            "three_by_six": [b.to_json_dict() for b in galleries["three_by_six"]],
            "four_by_six": [b.to_json_dict() for b in galleries["four_by_six"]],
        })
    else:
        _emit_boards(args, galleries["three_by_six"] + galleries["four_by_six"])
    return EXIT_OK


def cmd_delahaye(args: argparse.Namespace) -> int:
    reports = [oracle.delahaye_report(n) for n in args.n]
    if args.fmt == "json":
        _emit_json(args, reports[0] if len(reports) == 1 else reports)
    else:
        lines = [
            f"n={r['n']}: formula {r['formula']}, cuts {r['cuts']}, "
            f"orbits {r['orbits']}, canonical {r['canonical']}"
            for r in reports
        ]
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify
    results = verify.run(args.only)
    ok = all(r.ok for r in results)
    if args.fmt == "json":
        _emit_json(args, {
            "ok": ok,
            "criteria": [r.to_json_dict() for r in results],
        })
    else:
        lines = []
        for r in results:
            status = "PASS" if r.ok else "FAIL"
            lines.append(f"{status}  {r.name}  ({r.elapsed_s:.2f}s)")
            lines.extend(f"      {msg}" for msg in r.failures)
        lines.append("verification " + ("passed" if ok else "FAILED"))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


# every subcommand, declared once: the strict parser, build_parser and main read it
_SUBCOMMANDS: dict[str, _Subcommand] = {
    "count": _Subcommand(
        "count boards of the given width(s) by exhaustive sweep; text output is the canonical "
        "column, unvalidated for m != 4 (--format json carries canonical_validated: false)",
        (_formats("json", "text"), _OUT, _M,
         _Option("--n", "n", required=True, help="width, or inclusive range like 1-12"),
         _BUDGET, _Option("--timings", "timings", flag=True)),
        cmd_count,
    ),
    "enumerate": _Subcommand(
        "list every canonical board of one width",
        (_formats("ascii", "json", "svg", "text"), _OUT, _M, _Option("--n", "n", required=True), _BUDGET),
        cmd_enumerate,
    ),
    "gf": _Subcommand(
        "print the generating function of the chosen machine",
        (_formats("json", "text"), _OUT, _M, _MODE),
        cmd_gf,
    ),
    "terms": _Subcommand(
        "series terms of the generating function of the chosen machine",
        (_formats("bfile", "json", "text"), _OUT, _M, _MODE, _Option("--limit", "limit", int)),
        cmd_terms,
    ),
    "recurrence": _Subcommand(
        "linear recurrence satisfied by the terms",
        (_formats("json", "text"), _OUT, _M, _MODE),
        cmd_recurrence,
    ),
    "automaton": _Subcommand(
        "build the column machine and report its structure",
        (_formats("dot", "json", "text"), _OUT, _M, _MODE),
        cmd_automaton,
    ),
    "asymptotics": _Subcommand(
        "dominant-pole growth and amplitudes",
        (_formats("json", "text"), _OUT, _Option("--limit", "limit", int, help="error profile length")),
        cmd_asymptotics,
    ),
    "figures": _Subcommand(
        "verify and emit the two reference galleries",
        (_formats("ascii", "json", "svg", "text"), _OUT),
        cmd_figures,
    ),
    "delahaye": _Subcommand(
        "closed-form 3 x 2n count next to oracle counts",
        (_formats("json", "text"), _OUT, _Option("--n", "n", required=True, help="half-width, 1..6")),
        cmd_delahaye,
    ),
    "verify": _Subcommand(
        "run the acceptance suite",
        (_formats("json", "text"), _OUT,
         _Option("--only", "only", help="comma-separated criterion names (default: all)")),
        cmd_verify,
    ),
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return _SUBCOMMANDS[args.command].run(args)
    except BrokenPipeError:
        # downstream (e.g. `| head`) closed stdout; leave quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (GridcutsError, ValueError, OSError) as exc:
        # OSError: --out names a missing directory, a directory, or an unwritable path;
        # a FigureMismatch lists its offending boards after the first line
        first_line = str(exc).partition("\n")[0]
        print(f"gridcuts: {first_line}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
