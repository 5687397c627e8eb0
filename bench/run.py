"""Benchmark driver for gridcuts: end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it loads the library from the
checkout's `src/` directory.  Every measured pass is a fresh interpreter
running bench/child.py, and only one runs at a time.  So the oracle's
module-level sweep cache never carries over between passes, and no two
passes compete for the machine's cores.

--trace 0 measures what a user sees.  An untimed warm-up process runs first.
Then rounds repeat while a typical round still ends within --seconds; there
is always at least one.  A round is SETUP_REPS import-only processes and
one pass: a fresh process that sends the workload's queries through
gridcuts.cli.main with default flags (so --workers 1).  The metrics are:

    wall_s       sum over the queries of each query's fastest time
    setup_s      fastest time from interpreter start to gridcuts.cli
                 imported, over the import-only processes and the passes
    peak_rss_mb  median peak resident memory of a pass process

Contention from other tenants of a shared machine only ever adds time, in
bursts, so the fastest time is the steadiest estimate of a cost (Chen &
Revels, "Robust benchmarking in noisy environments", 2016).  Every pass is
cold, so each query's fastest time is its cold cost.  The time of every pass
is printed too.  Each answer is compared with bench/expected.json, byte for
byte via SHA-256.  A nonzero exit or any difference counts as a failed
query.

--trace 1 runs one untraced pass of the workload.  Then each group in
PROBES runs in its own fresh process: both workloads' work, the
acceptance suite and the ROADMAP baseline rows, as direct calls into each
layer's public functions with one span a call.  Every per-layer metric is
reported, plus trace_overhead_s: the traced probe of this workload minus
the same probe, in another fresh process, with spans that do nothing.
LAYER_MAP says which end-to-end metric each per-layer metric should move,
and on which workload.

The last line of stdout is the JSON result.  The lines before it give each
metric with its unit, the failed fraction, and a JSON line with machine
information and the per-pass times or the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
EXPECTED = BENCH / "expected.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPS = 2  # import-only processes before each pass
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


# -- workloads ----------------------------------------------------------------

_MACHINES = (
    ["--mode", "canonical", "--m", "4"],
    *(["--mode", "general", "--m", str(m)] for m in range(1, 5)),
)


def queries(workload: str, seed: int) -> list[list[str]]:
    """The workload's CLI queries, in run order.

    All answers are exact and deterministic.  The seed only permutes the
    independent exact-algebra queries; oracle-sweep has a fixed order.
    """
    if workload == "oracle-sweep":
        # 4 x 1..12 is the headline range; 4x11 and 4x12 both have 2^24
        # candidates but only the odd width takes the middle-column filter.
        return [["count", "--n", "1-12", "--format", "json"], ["count", "--m", "6", "--n", "1-7"]]
    if workload == "exact-algebra":
        found = []
        for machine in _MACHINES:
            found += [
                ["gf", *machine],
                ["terms", *machine, "--limit", "2000"],
                ["recurrence", *machine],
                ["automaton", *machine, "--format", "json"],
            ]
        found.append(["asymptotics", "--limit", "30"])
        random.Random(seed).shuffle(found)
        return found
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("oracle-sweep", "exact-algebra")
# traced runs also probe the acceptance suite and the ROADMAP baseline rows
PROBES = (*WORKLOADS, "verify", "baseline")

_ORACLE = (("wall_s",), ("oracle-sweep",))
_ALGEBRA = (("wall_s",), ("exact-algebra",))
_NONE = ((), ())
# per-layer metric -> (end-to-end metrics it should move, workloads it moves
# them on); on every other workload the prediction is no change
LAYER_MAP: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "oracle.sweep_s": (("wall_s", "peak_rss_mb"), ("oracle-sweep",)),
    "oracle.sweep_4x12_s": _ORACLE,
    "oracle.sweep_4x11_s": _ORACLE,
    "oracle.candidates": _ORACLE,
    "oracle.candidates_per_s": _ORACLE,
    "oracle.boards": _ORACLE,
    "oracle.yield": _ORACLE,
    "oracle.convention_s": _ORACLE,
    "automaton.build_s": _ALGEBRA,
    "automaton.report_s": _ALGEBRA,
    "automaton.states": _ALGEBRA,
    "automaton.edges": _ALGEBRA,
    "automaton.build_general5_s": _NONE,
    "automaton.states_general5": _NONE,
    "series.gf_s": _ALGEBRA,
    "series.gf_general4_s": _ALGEBRA,
    "series.terms_s": _ALGEBRA,
    "series.format_bfile_s": _ALGEBRA,
    "series.recurrence_s": _ALGEBRA,
    "series.gf_den_degree": _ALGEBRA,
    "series.resolvent_lcm_s": _NONE,
    "series.terms1000_s": _NONE,
    "asymptotics.dominant_form_s": _ALGEBRA,
    "asymptotics.error_profile_s": _ALGEBRA,
    **{
        f"verify.{name}_s": _NONE
        for name in (
            "terms-30", "generating-function", "oracle-agreement", "machine-structure",
            "resolvent-lcm", "asymptotics", "cross-convention", "general-mode",
            "property-suites", "figures",
        )
    },
    "verify.failed_criteria": _NONE,
    "cpu_s": _NONE,
    "trace_overhead_s": _NONE,
}


# -- processes ----------------------------------------------------------------


def spawn(job: dict) -> dict:
    """Run one job in a fresh interpreter and return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("GRIDCUTS_BUDGET", None)  # the default sweep budget is part of the workload
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(started), json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{job['kind']} process ran over {CHILD_TIMEOUT_S}s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{job['kind']} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def check_answers(answers: list[dict], expected: dict) -> list[str]:
    """One message per failed query: nonzero exit, a problem, or a byte difference."""
    failures = []
    for answer in answers:
        key = " ".join(answer["argv"])
        want = expected.get(key)
        if answer["exit"] != 0:
            failures.append(f"{key}: exit {answer['exit']} {answer['problem'] or ''}")
        elif answer["problem"]:
            failures.append(f"{key}: {answer['problem']}")
        elif want is None:
            failures.append(f"{key}: no recorded answer")
        elif (answer["sha256"], answer["bytes"]) != (want["sha256"], want["bytes"]):
            failures.append(f"{key}: output differs from the recorded answer")
    return failures


# -- measurement --------------------------------------------------------------


def _durations(spans: list, name: str, tag: str | None = None) -> list[float]:
    return [end - start for n, t, start, end in spans if n == name and (tag is None or t == tag)]


def measure(workload: str, seed: int, seconds: int, expected: dict) -> tuple[dict, list[str], int, dict]:
    """End-to-end metrics, failure messages, queries attempted and per-pass detail."""
    work = queries(workload, seed)
    spawn({"kind": "import"})  # warm-up: byte-compile and page in the library
    deadline = time.perf_counter() + seconds
    setups, passes, took = [], [], []
    # start another round only if a typical one still ends before the deadline
    while not passes or time.perf_counter() + statistics.median(took) <= deadline:
        started = time.perf_counter()
        # import-only processes in every round spread the set-up samples over the run
        setups += [spawn({"kind": "import"})["setup_s"] for _ in range(SETUP_REPS)]
        passes.append(spawn({"kind": "queries", "queries": work}))
        took.append(time.perf_counter() - started)
    failures = [msg for p in passes for msg in check_answers(p["answers"], expected)]
    setups += [p["setup_s"] for p in passes]
    fastest = [min(p["answers"][i]["wall_s"] for p in passes) for i in range(len(work))]
    # why the fastest: see the module docstring
    metrics = {
        "wall_s": sum(fastest),
        "setup_s": min(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    walls = [p["wall_s"] for p in passes]
    detail = {"passes": len(walls), "pass_wall_s": walls, "fastest_pass_wall_s": min(walls),
              "setup_samples": len(setups), "median_setup_s": statistics.median(setups)}
    return metrics, failures, len(work) * len(passes), detail


def measure_layers(workload: str, seed: int, expected: dict) -> tuple[dict, list[str], int, dict]:
    """Per-layer metrics, failure messages, operations attempted and the layer map."""
    spawn({"kind": "import"})
    untraced = spawn({"kind": "queries", "queries": queries(workload, seed)})
    failures = check_answers(untraced["answers"], expected)
    probes = {
        group: spawn({
            "kind": "probe", "group": group, "traced": True,
            "queries": queries(group, seed) if group in WORKLOADS else [],
        })
        for group in PROBES
    }
    untraced_probe = spawn({"kind": "probe", "group": workload, "traced": False,
                            "queries": queries(workload, seed)})
    ora = probes["oracle-sweep"]
    alg = probes["exact-algebra"]
    ver = probes["verify"]
    base = probes["baseline"]

    sweep_s = sum(_durations(ora["spans"], "oracle.sweep"))
    candidates = ora["counters"]["oracle.candidates"]
    boards = ora["counters"]["oracle.boards"]
    metrics = {
        "oracle.sweep_s": sweep_s,
        "oracle.sweep_4x12_s": sum(_durations(ora["spans"], "oracle.sweep", "4x12")),
        "oracle.sweep_4x11_s": sum(_durations(ora["spans"], "oracle.sweep", "4x11")),
        "oracle.candidates": candidates,
        "oracle.candidates_per_s": candidates / sweep_s,
        "oracle.boards": boards,
        "oracle.yield": boards / candidates,
        "oracle.convention_s": sum(_durations(ora["spans"], "oracle.count_report")),
        "automaton.build_s": sum(_durations(alg["spans"], "automaton.build")),
        "automaton.report_s": sum(_durations(alg["spans"], "automaton.report")),
        "automaton.states": alg["counters"]["automaton.states"],
        "automaton.edges": alg["counters"]["automaton.edges"],
        "automaton.build_general5_s": sum(_durations(base["spans"], "automaton.build")),
        "automaton.states_general5": base["counters"]["automaton.states_general5"],
        "series.gf_s": sum(_durations(alg["spans"], "series.gf")),
        "series.gf_general4_s": statistics.median(_durations(alg["spans"], "series.gf", "general4")),
        "series.terms_s": sum(_durations(alg["spans"], "series.terms")),
        "series.format_bfile_s": sum(_durations(alg["spans"], "series.format_bfile")),
        "series.recurrence_s": sum(_durations(alg["spans"], "series.recurrence")),
        "series.gf_den_degree": alg["counters"]["series.gf_den_degree"],
        "series.resolvent_lcm_s": sum(_durations(base["spans"], "series.resolvent_lcm")),
        "series.terms1000_s": sum(_durations(base["spans"], "series.terms")),
        "asymptotics.dominant_form_s": sum(_durations(alg["spans"], "asymptotics.dominant_form")),
        "asymptotics.error_profile_s": sum(_durations(alg["spans"], "asymptotics.error_profile")),
    }
    for name, tag, start, end in ver["spans"]:
        metrics[f"verify.{tag}_s"] = end - start
    failed_criteria = ver["counters"]["verify.failed_criteria"]
    metrics["verify.failed_criteria"] = failed_criteria
    failures += ["a verify criterion failed"] * failed_criteria
    metrics["cpu_s"] = untraced["cpu_s"]
    metrics["trace_overhead_s"] = probes[workload]["wall_s"] - untraced_probe["wall_s"]
    attempted = len(untraced["answers"]) + len(ver["spans"])
    layer_map = {name: {"moves": list(moves), "on": list(on)} for name, (moves, on) in LAYER_MAP.items()}
    return metrics, failures, attempted, {"layer_map": layer_map}


# -- reporting ----------------------------------------------------------------


def machine_info(versions: dict) -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": versions["python"],
        "numpy": versions["numpy"],
        "commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git repository."""
    # the ceiling keeps git from reading repositories above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_spec() -> dict:
    if not SPEC.is_file():
        raise BenchError(f"{SPEC.name} not found at the checkout root")
    if not (ROOT / "src" / "gridcuts" / "cli.py").is_file():
        raise BenchError("src/gridcuts is missing: run from a full source checkout")
    if not EXPECTED.is_file():
        raise BenchError(f"{EXPECTED.name} is missing")
    return json.loads(SPEC.read_text())


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        expected = json.loads(EXPECTED.read_text())
        info = machine_info(spawn({"kind": "import"})["versions"])
        if args.trace:
            metrics, failures, attempted, detail = measure_layers(args.workload, args.seed, expected)
            declared = spec["per_layer"]
        else:
            metrics, failures, attempted, detail = measure(args.workload, args.seed, args.seconds, expected)
            declared = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"bench: measured {sorted(metrics)} but BENCHMARK.json declares {sorted(units)}",
              file=sys.stderr)
        return 1
    for msg in failures:
        print(f"FAILED {msg}")
    for name in units:
        print(f"{name:32s} {metrics[name]:.6g} {units[name]}")
    print(f"{'failed_frac':32s} {len(failures) / attempted:.6g} ({len(failures)}/{attempted})")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": info, **detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
