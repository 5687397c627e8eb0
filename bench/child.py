"""One measured process of the gridcuts benchmark.

run.py starts a fresh interpreter on this file for every measured pass, so
module-level state in the library (the oracle's sweep cache above all)
never carries over from one pass to the next.

Usage: child.py SPAWN_TIME JOB_JSON

SPAWN_TIME is the parent's time.perf_counter() taken just before the spawn.
On Linux that clock is CLOCK_MONOTONIC, which all processes share, so
IMPORTED - SPAWN_TIME is the set-up time: interpreter start plus the import
of gridcuts.cli.  JOB_JSON is one of

    {"kind": "import"}                        set-up only
    {"kind": "queries", "queries": [argv...]} CLI queries, untraced
    {"kind": "probe", "group": G, "queries": [argv...], "traced": bool}
                                              direct calls into the layers,
                                              one span a call (see PROBES);
                                              untraced, the spans do nothing

The result is one JSON object on the last line of stdout.
"""

import sys
import time

import gridcuts.cli

IMPORTED = time.perf_counter()

import contextlib  # noqa: E402  (imported after the timed import on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402


def _usage() -> tuple[float, float]:
    """(peak RSS in MB, user + system CPU seconds) of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return own.ru_maxrss / 1024.0, cpu


def run_queries(queries: list[list[str]]) -> dict:
    outputs = []
    started = time.perf_counter()
    for argv in queries:
        buf = io.StringIO()
        query_started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = gridcuts.cli.main(argv)
            crash = None
        except Exception as exc:  # a crashing query is a failed answer, not a lost run
            code, crash = None, repr(exc)
        outputs.append((argv, code, buf.getvalue().encode(), crash, time.perf_counter() - query_started))
    wall = time.perf_counter() - started
    rss_mb, cpu = _usage()

    answers = [
        {"argv": argv, "exit": code, "sha256": hashlib.sha256(out).hexdigest(),
         "bytes": len(out), "problem": crash, "wall_s": took}
        for argv, code, out, crash, took in outputs
    ]
    return {"wall_s": wall, "peak_rss_mb": rss_mb, "cpu_s": cpu, "answers": answers}


class Trace:
    """Spans around calls into the library, kept in memory until the end."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, float, float]] = []
        self.counters: dict[str, int] = {}

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((name, tag, start, time.perf_counter()))

    def count(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value


class NullTrace(Trace):
    """The same probe with spans and counters that neither time nor record."""

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        yield

    def count(self, name: str, value: int) -> None:
        pass


def _options(argv: list[str]) -> tuple[str, dict[str, str]]:
    """Subcommand and flag values of a benchmark query (all flags take a value)."""
    return argv[0], dict(zip(argv[1::2], argv[2::2]))


def _widths(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def probe_oracle(trace: Trace, queries: list[list[str]]) -> None:
    """`count` queries as a cold sweep per shape, then the count on the cached sweep."""
    from gridcuts.oracle import count_report, sweep

    for argv in queries:
        command, opts = _options(argv)
        assert command == "count", argv
        m = int(opts.get("--m", 4))
        for n in _widths(opts["--n"]):
            with trace.span("oracle.sweep", f"{m}x{n}"):
                result = sweep(m, n)
            trace.count("oracle.candidates", 1 << (m * ((n + 1) // 2)) if n else 0)
            trace.count("oracle.boards", len(result.graham))
            with trace.span("oracle.count_report", f"{m}x{n}"):
                count_report(m, n)


def probe_algebra(trace: Trace, queries: list[list[str]]) -> None:
    """Algebra queries as the build, gf, terms, recurrence and asymptotics calls they make."""
    from gridcuts import reference
    from gridcuts.asymptotics import dominant_form, error_profile
    from gridcuts.automaton import (
        always_rejected_columns,
        build_canonical,
        build_general,
        permutation_similarity_witness,
        to_json_dict,
        transfer_matrix,
    )
    from gridcuts.series import format_bfile, generating_function, recurrence_of, series_terms

    sized: set[str] = set()
    for argv in queries:
        command, opts = _options(argv)
        mode = opts.get("--mode", "canonical")
        m = int(opts.get("--m", 4))
        tag = f"{mode}{m}"
        if command == "asymptotics":
            mode, tag = "canonical", "canonical4"
        with trace.span("automaton.build", tag):
            machine = build_canonical(m) if mode == "canonical" else build_general(m)
        if command == "automaton":
            with trace.span("automaton.report", tag):
                to_json_dict(machine)
                always_rejected_columns(machine)
                if mode == "canonical":
                    permutation_similarity_witness(
                        transfer_matrix(machine).entries, reference.REFERENCE_TRANSFER_MATRIX
                    )
            continue
        with trace.span("series.gf", tag):
            gf = generating_function(machine)
        if tag not in sized:
            sized.add(tag)
            trace.count("automaton.states", len(machine.states))
            trace.count("automaton.edges", len(machine.transitions))
            trace.count("series.gf_den_degree", gf.denominator.degree)
        if command == "terms":
            with trace.span("series.terms", tag):
                terms = series_terms(gf, int(opts["--limit"]))
            with trace.span("series.format_bfile", tag):
                format_bfile(terms)
        elif command == "recurrence":
            with trace.span("series.recurrence", tag):
                recurrence_of(gf)
        elif command == "asymptotics":
            with trace.span("asymptotics.dominant_form", tag):
                est = dominant_form(gf, amplitude_reference=reference.reference_amplitudes)
            with trace.span("asymptotics.error_profile", tag):
                error_profile(gf, est, int(opts["--limit"]))
        else:
            assert command == "gf", argv


def probe_verify(trace: Trace, queries: list[list[str]]) -> None:
    """The acceptance suite, one span per criterion, in the suite's own order."""
    from gridcuts import verify

    failed = 0
    for name, _, _ in verify.CRITERIA:
        with trace.span("verify.criterion", name):
            result = verify.run_criterion(name)
        failed += not result.ok
    trace.count("verify.failed_criteria", failed)


def probe_baseline(trace: Trace, queries: list[list[str]]) -> None:
    """Layer rows of the ROADMAP baseline table that no workload runs."""
    from gridcuts.automaton import build_canonical, build_general, transfer_matrix
    from gridcuts.series import generating_function, resolvent_denominator_lcm, series_terms

    with trace.span("automaton.build", "general5"):
        machine = build_general(5)
    trace.count("automaton.states_general5", len(machine.states))
    canonical = build_canonical(4)
    with trace.span("series.resolvent_lcm", "canonical4"):
        resolvent_denominator_lcm(transfer_matrix(canonical))
    gf = generating_function(canonical)
    with trace.span("series.terms", "canonical4-1000"):
        series_terms(gf, 1000)


PROBES = {
    "oracle-sweep": probe_oracle,
    "exact-algebra": probe_algebra,
    "verify": probe_verify,
    "baseline": probe_baseline,
}


def main() -> dict:
    spawned = float(sys.argv[1])
    job = json.loads(sys.argv[2])
    result = {"setup_s": IMPORTED - spawned}
    if job["kind"] == "import":
        import numpy

        result["versions"] = {"python": sys.version.split()[0], "numpy": numpy.__version__}
    elif job["kind"] == "queries":
        result.update(run_queries(job["queries"]))
    elif job["kind"] == "probe":
        trace = Trace() if job["traced"] else NullTrace()
        started = time.perf_counter()
        PROBES[job["group"]](trace, job["queries"])
        result["wall_s"] = time.perf_counter() - started
        result["spans"] = trace.spans
        result["counters"] = trace.counters
    else:
        raise ValueError(f"unknown job kind {job['kind']!r}")
    return result


if __name__ == "__main__":
    print(json.dumps(main()))
