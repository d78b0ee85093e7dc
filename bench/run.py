#!/usr/bin/env python3
"""The llycurv benchmark: one workload per run, timed or traced.

Run from the repository root (the directory holding src/llycurv):

    python3 bench/run.py --workload paley-sharp --seed 1 --seconds 6 --trace 0

Every command goes through `llycurv.cli.main(argv)` in this one process,
with `--threads 1` wherever the command takes it and the BLAS thread pool
pinned to one thread, so nothing runs in a worker pool.  Every llycurv
functools cache is emptied before each command, as in a fresh process, so
memoizing across commands gains nothing here.  A run

1. sets up: a fresh interpreter imports llycurv, then the workload's inputs
   are generated from the seed and written under .bench_work/; this is
   repeated SETUP_REPS times and setup_s is the median;
2. with --trace 0, times the batch command(s) BATCH_REPS times (batch_s is
   the median), each repetition followed by 1/BATCH_REPS of the query
   stream, a closed loop with one client that runs for --seconds seconds
   in all and at least MIN_QUERIES commands;
   with --trace 1, runs the batch twice untraced (the first warms lazy
   imports) and once traced, replays TRACED_QUERIES queries
   traced, then runs the probes;
3. checks every output outside the timed region, and prints a table and,
   as its last line, the JSON result.

The end-to-end metrics come only from --trace 0 runs.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from speed import REFERENCE_S, kernel_seconds, scale
from tracing import Tracer, aggregate, nearest_rank
from workloads import REFERENCE_SHA256, WORKLOADS, Argv, Workload

SETUP_REPS = 15
BATCH_REPS = 9
MIN_QUERIES = 100
TRACED_QUERIES = 60
SEGMENT_S = 0.5  # query-stream stretch between two reference-kernel timings
PROBE_EDGES = 200  # edges the matching probe samples per traced run
WORK = Path(".bench_work")
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("batch_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_p90_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# The public layer calls the traced replay records, with what each span
# tags from its result.
REPLAY_TARGETS = [
    ("graphio", "load_graph", None),
    ("families", "paley_graph", None),
    ("graphs", "decompose_edge", None),
    ("graphs", "all_pairs_distances", None),
    ("graphs", "classify_regularity", None),
    ("matching", "local_perfect_matching", None),
    ("transport", "curvature_spectrum", lambda spectrum: len(spectrum.reports)),
    ("transport", "lly_curvature", None),
    ("spectral", "numerical_lambda2", None),
    ("spectral", "srg_spectrum", None),
    ("certify", "scan_parameters", len),
    ("certify", "certify_curvature", lambda cert: cert.outcome),
    ("certify", "obstruction_quadratic", None),
    ("residues", "verify_corollary", lambda report: report.subsets_tested),
    ("residues", "find_pattern_witness", None),
]

# (name, unit, better, source).  A `.s` metric is self time: the span's
# wall time minus the part covered by traced child spans.  Sources "probe:"
# come from work the CLI does not do.
PER_LAYER = [
    ("graphio.load_graph.calls", "count", "lower", ("calls", "graphio.load_graph")),
    ("graphio.load_graph.s", "s", "lower", ("self", "graphio.load_graph")),
    ("families.paley_graph.calls", "count", "lower", ("calls", "families.paley_graph")),
    ("families.paley_graph.s", "s", "lower", ("self", "families.paley_graph")),
    ("fields.is_nonzero_square.calls", "count", "lower", ("calls", "probe:fields.is_nonzero_square")),
    ("fields.is_nonzero_square.s", "s", "lower", ("self", "probe:fields.is_nonzero_square")),
    ("graphs.decompose_edge.calls", "count", "lower", ("calls", "graphs.decompose_edge")),
    ("graphs.decompose_edge.s", "s", "lower", ("self", "graphs.decompose_edge")),
    ("graphs.all_pairs_distances.s", "s", "lower", ("self", "graphs.all_pairs_distances")),
    ("graphs.classify_regularity.s", "s", "lower", ("self", "graphs.classify_regularity")),
    ("matching.local_perfect_matching.calls", "count", "lower", ("calls", "matching.local_perfect_matching")),
    ("matching.local_perfect_matching.s", "s", "lower", ("self", "matching.local_perfect_matching")),
    ("matching.perfect_ratio", "1", "higher", ("ratio", "probe:matching.local_perfect_matching")),
    ("matching.perfect_ratio.base", "count", "higher", ("calls", "probe:matching.local_perfect_matching")),
    ("transport.curvature_spectrum.calls", "count", "lower", ("calls", "transport.curvature_spectrum")),
    ("transport.curvature_spectrum.s", "s", "lower", ("self", "transport.curvature_spectrum")),
    ("transport.curvature_spectrum.edges", "count", "higher", ("counted", "transport.curvature_spectrum")),
    ("transport.lly_curvature.calls", "count", "lower", ("calls", "transport.lly_curvature")),
    ("transport.lly_curvature.s", "s", "lower", ("self", "transport.lly_curvature")),
    ("spectral.numerical_lambda2.s", "s", "lower", ("self", "spectral.numerical_lambda2")),
    ("spectral.srg_spectrum.calls", "count", "lower", ("calls", "spectral.srg_spectrum")),
    ("spectral.srg_spectrum.s", "s", "lower", ("self", "spectral.srg_spectrum")),
    ("certify.scan_parameters.s", "s", "lower", ("self", "certify.scan_parameters")),
    ("certify.scan_parameters.rows", "count", "higher", ("counted", "certify.scan_parameters")),
    ("certify.certify_curvature.calls", "count", "lower", ("calls", "certify.certify_curvature")),
    ("certify.certify_curvature.s", "s", "lower", ("self", "certify.certify_curvature")),
    ("certify.obstruction_quadratic.calls", "count", "lower", ("calls", "certify.obstruction_quadratic")),
    ("certify.obstruction_quadratic.s", "s", "lower", ("self", "certify.obstruction_quadratic")),
    ("certify.outcome.sharp_by_condition", "count", "higher", ("outcome", "certify.certify_curvature", "sharp_by_condition")),
    ("certify.outcome.sharp_by_sweep", "count", "higher", ("outcome", "certify.certify_curvature", "sharp_by_sweep")),
    ("certify.outcome.inconclusive", "count", "lower", ("outcome", "certify.certify_curvature", "inconclusive")),
    ("residues.verify_corollary.s", "s", "lower", ("self", "residues.verify_corollary")),
    ("residues.subsets", "count", "higher", ("counted", "residues.verify_corollary")),
    ("residues.find_pattern_witness.calls", "count", "lower", ("calls", "residues.find_pattern_witness")),
    ("residues.find_pattern_witness.s", "s", "lower", ("self", "residues.find_pattern_witness")),
    ("cli.main.calls", "count", "higher", ("calls", "cli.main")),
    ("cli.self_s", "s", "lower", ("self", "cli.main")),
    ("trace.spans", "count", "lower", ("spans",)),
    ("trace.overhead_ratio", "1", "lower", ("overhead",)),
]


def clear_llycurv_caches() -> None:
    """Empty every functools cache bound in a loaded llycurv module.

    A user runs each CLI command in a fresh process, so memoized results
    must not carry from one timed command to the next.  The `__wrapped__`
    chain is followed, so a cache behind the tracer's wrapper is found too.
    """
    for name, module in list(sys.modules.items()):
        if name == "llycurv" or name.startswith("llycurv."):
            for value in list(vars(module).values()):
                while callable(value):
                    clear = getattr(value, "cache_clear", None)
                    if callable(clear):
                        clear()
                    value = getattr(value, "__wrapped__", None)


def run_command(main: Callable[[list[str]], int], argv: Argv) -> tuple[int, str, str, float]:
    """One CLI command in-process, starting from empty llycurv caches:
    (exit code, stdout, stderr, wall seconds)."""
    clear_llycurv_caches()
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:  # argparse rejects a command this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


class Ledger:
    """Per distinct command: how often it ran, its exit codes and output digests."""

    def __init__(self) -> None:
        self.entries: dict[Argv, dict[str, Any]] = {}

    def add(self, argv: Argv, rc: int, out: str, err: str) -> None:
        entry = self.entries.setdefault(argv, {"count": 0, "rcs": set(), "digests": set(), "text": out, "err": err})
        entry["count"] += 1
        entry["rcs"].add(rc)
        entry["digests"].add(hashlib.sha256(out.encode()).hexdigest())

    def attempted(self) -> int:
        return sum(e["count"] for e in self.entries.values())

    def problems(self) -> dict[Argv, list[str]]:
        """Exit codes, byte identity across repeats, and the pinned digests."""
        found: dict[Argv, list[str]] = {}
        for argv, entry in self.entries.items():
            problems = []
            if entry["rcs"] != {0}:
                problems.append(f"exit codes {sorted(entry['rcs'])}: {entry['err'][-400:]}")
            if len(entry["digests"]) != 1:
                problems.append(f"{len(entry['digests'])} different outputs over {entry['count']} identical runs")
            pinned = REFERENCE_SHA256.get(" ".join(argv))
            if pinned is not None and entry["digests"] != {pinned}:
                problems.append(f"output sha256 {sorted(entry['digests'])} != reference {pinned}")
            if problems:
                found[argv] = problems
        return found


def check_outputs(workload: Workload, inp: dict[str, Any], batch: Ledger, queries: Ledger) -> tuple[int, list[str]]:
    """(failed command count, problem lines) over both ledgers."""
    problems = batch.problems()
    problems.update(queries.problems())
    batch_texts = {argv: e["text"] for argv, e in batch.entries.items()}
    query_texts = {argv: e["text"] for argv, e in queries.entries.items() if argv not in problems}
    for argv, text in batch_texts.items():
        if argv not in problems:
            found = guarded(lambda: workload.check_batch(inp, argv, text))
            if found:
                problems[argv] = found
    if not any(argv in problems for argv in batch_texts):
        found = guarded(lambda: workload.check_queries(inp, query_texts, batch_texts))
        problems.update(found if isinstance(found, dict) else {("check_queries",): found})
    else:
        problems.update({argv: ["not checked: the batch failed"] for argv in query_texts})
    counts = {**{a: e["count"] for a, e in batch.entries.items()}, **{a: e["count"] for a, e in queries.entries.items()}}
    failed = sum(counts.get(argv, 1) for argv in problems)
    lines = [f"{' '.join(argv)}: {problem}" for argv, found in problems.items() for problem in found]
    return failed, lines


def guarded(check: Callable[[], Any]) -> Any:
    """Run a check; malformed output counts as a problem instead of a crash."""
    try:
        return check()
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def set_up(workload: Workload, seed: int, workdir: Path) -> tuple[dict[str, Any], float, list[float]]:
    """Generate the inputs; setup_s is the median over SETUP_REPS of a fresh
    interpreter's `import llycurv` plus generating and writing the inputs."""
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()), **BLAS_ENV)
    raw, scaled = [], []
    inputs: dict[str, Any] = {}
    before = kernel_seconds()
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import llycurv"], env=env, check=True, timeout=120)
        inputs = workload.generate(seed, workdir)
        raw.append(perf_counter() - start)
        after = kernel_seconds()
        scaled.append(raw[-1] * scale(before, after))
        before = after
    return inputs, statistics.median(scaled), raw


def timed_batch(main: Callable, workload: Workload, inp: dict[str, Any], ledger: Ledger) -> tuple[float, float]:
    """The batch command(s) once: (raw seconds, seconds scaled by the kernel timings around them)."""
    before = kernel_seconds()
    raw = 0.0
    for argv in workload.batch(inp):
        rc, out, err, dt = run_command(main, argv)
        ledger.add(argv, rc, out, err)
        raw += dt
    return raw, raw * scale(before, kernel_seconds())


def timed_run(workload: Workload, inp: dict[str, Any], seconds: float, main: Callable) -> tuple[dict[str, float], Ledger, Ledger, dict[str, Any]]:
    """BATCH_REPS batch repetitions alternating with stretches of the query
    stream, so both sample the whole run rather than one stretch of the
    machine's drift; every wall time is scaled by the reference-kernel
    timings that bracket it (see speed.py)."""
    batch, queries = Ledger(), Ledger()
    cycle = workload.queries(inp)
    raw_batch, scaled_batch = [], []
    raw_latencies: list[float] = []
    latencies: list[float] = []
    for rep in range(BATCH_REPS):
        raw, scaled = timed_batch(main, workload, inp, batch)
        raw_batch.append(raw)
        scaled_batch.append(scaled)
        stretch_end = perf_counter() + seconds / BATCH_REPS
        while perf_counter() < stretch_end or (rep == BATCH_REPS - 1 and len(latencies) < MIN_QUERIES):
            before = kernel_seconds()
            segment: list[float] = []
            segment_end = perf_counter() + SEGMENT_S
            while perf_counter() < segment_end:
                argv = cycle[(len(latencies) + len(segment)) % len(cycle)]
                rc, out, err, dt = run_command(main, argv)
                queries.add(argv, rc, out, err)
                segment.append(dt)
            factor = scale(before, kernel_seconds())
            raw_latencies += segment
            latencies += [dt * factor for dt in segment]
    metrics = {
        "batch_s": statistics.median(scaled_batch),
        "query_p50_ms": nearest_rank(latencies, 50) * 1000,
        "query_p90_ms": nearest_rank(latencies, 90) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "raw_batch_s": raw_batch,
        "scaled_batch_s": scaled_batch,
        "queries": len(latencies),
        "raw_query_p50_ms": nearest_rank(raw_latencies, 50) * 1000,
        "raw_query_p90_ms": nearest_rank(raw_latencies, 90) * 1000,
    }
    return metrics, batch, queries, info


def traced_run(workload: Workload, inp: dict[str, Any], seed: int, main: Callable) -> tuple[dict[str, float], Ledger, Ledger, Tracer, list[str]]:
    from llycurv.families import prime_power_decomposition
    from llycurv.fields import is_nonzero_square, make_field
    from llycurv.matching import local_perfect_matching

    batch, queries = Ledger(), Ledger()
    # The first batch warms what clearing the caches leaves (lazy imports,
    # the allocator) so the untraced and traced batches that follow start
    # from the same state.  Both are scaled by bracketing kernel timings,
    # like the timed run.
    for _ in range(2):
        _, plain_s = timed_batch(main, workload, inp, batch)
    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", main)
    with tracer.patched(REPLAY_TARGETS):
        tracer.command = "batch"
        _, traced_s = timed_batch(traced_main, workload, inp, batch)
        cycle = workload.queries(inp)
        for i in range(TRACED_QUERIES):
            tracer.command = f"query:{i}"
            argv = cycle[i % len(cycle)]
            rc, out, err, _ = run_command(traced_main, argv)
            queries.add(argv, rc, out, err)

    probe_problems = []
    tracer.command = "probe:fields"
    square = tracer.wrap("probe:fields.is_nonzero_square", is_nonzero_square, tag=bool)
    for q in workload.field_orders(inp):
        field = make_field(*prime_power_decomposition(q))
        squares = sum(square(field, e) for e in field.elements())
        if squares != (q - 1) // 2:
            probe_problems.append(f"fields probe: GF({q}) has {squares} nonzero squares, not {(q - 1) // 2}")
    tracer.command = "probe:matching"
    graphs = workload.probe_graphs(inp)
    edges = [(g, x, y) for g in graphs for x, y in g.edges()]
    perfect = tracer.wrap("probe:matching.local_perfect_matching", local_perfect_matching, tag=lambda r: r[1].perfect)
    for g, x, y in random.Random(f"probe:{workload.name}:{seed}").sample(edges, min(PROBE_EDGES, len(edges))):
        perfect(g, x, y)

    stats = aggregate(tracer.spans)
    metrics: dict[str, float] = {}
    for name, _unit, _better, source in PER_LAYER:
        kind, span = source[0], (stats.get(source[1]) if len(source) > 1 else None)
        if kind == "spans":
            value: float = len(tracer.spans)
        elif kind == "overhead":
            value = traced_s / plain_s
        elif span is None:
            value = 0 if kind in ("calls", "counted", "outcome", "ratio") else 0.0
        elif kind == "calls":
            value = span.calls
        elif kind == "self":
            value = span.self_s
        elif kind == "counted":
            value = span.counted
        elif kind == "outcome":
            value = span.outcomes[source[2]]
        else:  # ratio of True tags
            value = span.outcomes[True] / span.calls
        metrics[name] = value
    return metrics, batch, queries, tracer, probe_problems


def meta(root: Path, args: argparse.Namespace) -> dict[str, Any]:
    import numpy

    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            git_sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "llycurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "llycurv" / "__init__.py").is_file():
        sys.stderr.write("bench: src/llycurv not found; run from the repository root\n")
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{workload.name}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)

    inp, setup_s, raw_setup = set_up(workload, args.seed, workdir)
    import llycurv
    from llycurv import cli

    if Path(llycurv.__file__).resolve().parent != (root / "src" / "llycurv").resolve():
        sys.stderr.write(f"bench: imported llycurv from {llycurv.__file__}, not from src/\n")
        return 2
    record: dict[str, Any] = {"meta": meta(root, args)}
    print(f"# llycurv benchmark: {workload.name} — {workload.why}")
    print("# meta " + json.dumps(record["meta"], sort_keys=True))

    if args.trace:
        metrics, batch, queries, tracer, extra_problems = traced_run(workload, inp, args.seed, cli.main)
        declared = PER_LAYER
        spans_path = workdir / "spans.jsonl"
        tracer.write(str(spans_path))
        record["spans"] = str(spans_path)
    else:
        metrics, batch, queries, record["run"] = timed_run(workload, inp, args.seconds, cli.main)
        record["run"]["raw_setup_s"] = raw_setup
        metrics = {"setup_s": setup_s, **metrics}
        declared = END_TO_END
        extra_problems = []
    failed, problems = check_outputs(workload, inp, batch, queries)
    problems += extra_problems
    attempted = batch.attempted() + queries.attempted()

    for name, unit, *_ in declared:
        print(f"{name:40s} {metrics[name]!r:>24} {unit}")
    print(f"{'failed_ratio':40s} {failed / attempted!r:>24} 1   ({failed} of {attempted} commands)")
    print("# no wait-time metric: no layer has a queue or a second process")
    if args.trace:
        print(f"# fields.* and matching.perfect_ratio come from probes, work the CLI does not do;"
              f" the matching probe samples {PROBE_EDGES} edges (base 0: the workload has no graph)")
    else:
        print(f"# times are wall times scaled to a machine where the reference kernel takes"
              f" {REFERENCE_S} s (speed.py); raw times are in {workdir}/record-trace0.json")
    for line in problems[:50]:
        print(f"# problem: {line}")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, *_ in declared},
    }
    record.update(result=result, problems=problems)
    (workdir / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
