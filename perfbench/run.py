"""perfbench: the lietrace benchmark.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Run from the root of a lietrace checkout; the library is imported from
./src.  The workloads (deep, sweep) are described in
perfbench/NOTES.md.  Each is a closed loop, one report at a time from this
process: whole rounds over the seeded inputs run for about --seconds (at
least two rounds), and every result is checked.  Spread through the loop, a
CLI probe runs the seeded command-line documents as `python -m lietrace.cli`
processes.  The end-to-end times are speed-corrected (speed.py): scaled to a
fixed machine speed that a probe samples every 2 ms while they run, so that
they describe the code rather than how busy the shared machine was.

--trace 0 prints the end-to-end metrics; --trace 1 runs half the time
untraced and half traced, then one counting round, and prints per-layer
metrics (per round of the workload plus one probe pass), the tracing
overhead and the largest self times.  The last line of stdout is always one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MODULES = ["ratlin", "liealg", "repn", "cecomplex", "lefschetz", "nilshadow",
           "torus_oracle", "catalog", "documents", "cli"]
WORKLOADS = {"deep": workloads.build_deep, "sweep": workloads.build_sweep}
SETUPS = 7              # set-ups per run; setup_s is their median
MIN_ROUNDS = 2          # rounds per loop, however long a round takes
PROBE_PASSES = 4        # passes over the CLI documents
IMPORT_PROBES = 5       # import-only processes behind cli.import_ms
PROBE_REPORT_BASE = 1_000_000
PROCESS_TIMEOUT_S = 120
SHOW_FAILURES = 5


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def import_library() -> SimpleNamespace:
    """Import lietrace afresh, so every set-up pays the import."""
    for name in [m for m in sys.modules
                 if m == "lietrace" or m.startswith("lietrace.")]:
        del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module(f"lietrace.{m}")
                              for m in MODULES})


def setup(workload, seed, tiny, docs_dir, clock):
    start = clock.mark()
    lib = import_library()
    with open(HERE / "reference.json") as fh:
        ref = json.load(fh)
    docs = workloads.build_cli_docs(lib, seed, ref, str(docs_dir), tiny)
    ops = WORKLOADS[workload](lib, seed, ref, tiny)
    return clock.since(start), lib, ops, docs


def cli_op(lib, doc):
    """In-process `main(argv)` with stdout captured, checked byte for byte."""
    cli = lib.cli

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(doc.argv))
        return code, buf.getvalue().encode()

    def check(result):
        code, out = result
        workloads.expect(code == 0, f"{doc.key}: exit code {code}")
        workloads.expect(hashlib.sha256(out).hexdigest() == doc.expected_sha256,
                         f"{doc.key}: stdout differs from the reference")
    return workloads.Op(doc.key, call, check)


def process_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("LEFSCHETZ_CATALOG_DIR", None)
    return env


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

@dataclass
class Loop:
    report_s: list = field(default_factory=list)
    cli_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    verified: int = 0
    failed: int = 0
    elapsed: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def attempted(self):
        return self.verified + self.failed

    def record(self, ok, message):
        if ok:
            self.verified += 1
        else:
            self.failed += 1
            if len(self.failures) < SHOW_FAILURES:
                self.failures.append(message)


def run_op(op, loop, clock):
    start = clock.mark()
    try:
        op.check(op.call())
        ok, message = True, ""
    except Exception as exc:  # a raise is a failed operation, not a crash
        ok, message = False, f"{op.label}: {type(exc).__name__}: {exc}"
    loop.report_s.append(clock.since(start))
    loop.record(ok, message)


def run_process(doc, loop, env, clock):
    argv = [sys.executable, "-m", "lietrace.cli", *doc.argv]
    start = clock.mark()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        loop.cli_s.append(clock.since(start))
        loop.record(False, f"{doc.key}: process timed out")
        return
    loop.cli_s.append(clock.since(start))
    ok = (proc.returncode == 0 and
          hashlib.sha256(proc.stdout).hexdigest() == doc.expected_sha256)
    loop.record(ok, f"{doc.key}: exit {proc.returncode}, stdout "
                    f"{'matches' if ok else 'differs from'} the reference")


class SideTasks:
    """Work spread evenly over a loop's time and run between its reports.

    The CLI probe runs this way so that its samples meet the same machine
    conditions as the reports, not only those of a few seconds.  Time spent
    here is left out of the round it interrupts and out of the
    loop's budget.
    """

    def __init__(self, tasks, seconds):
        self.tasks = list(tasks)
        self.seconds = seconds
        self.done = 0
        self.spent = 0.0
        self.start = time.perf_counter()

    def _due(self):
        if self.done >= len(self.tasks):
            return False
        busy = time.perf_counter() - self.start - self.spent
        return busy >= self.seconds * (self.done + 0.5) / len(self.tasks)

    def run_due(self, finish=False):
        """Run the tasks that are due (all of them with `finish`); return the
        time they took."""
        start = time.perf_counter()
        while self.done < len(self.tasks) and (finish or self._due()):
            self.tasks[self.done]()
            self.done += 1
        spent = time.perf_counter() - start
        self.spent += spent
        return spent


def closed_loop(ops, seconds, loop=None, tracer=None, report_base=0,
                side=None, min_rounds=MIN_ROUNDS, clock=speed.WallClock()):
    """Whole rounds over `ops` for about `seconds`: at least `min_rounds`, and
    another only while more than half a round's time is left.  `side` runs
    between reports.
    """
    loop = loop or Loop()
    start = time.perf_counter()
    deadline = start + seconds
    report = report_base
    rounds = 0
    while True:
        round_start = time.perf_counter()
        paused = 0.0
        for op in ops:
            if tracer is not None:
                tracer.report = report
            report += 1
            run_op(op, loop, clock)
            if side is not None:
                paused += side.run_due()
        now = time.perf_counter()
        rounds += 1
        deadline += paused
        loop.round_s.append(now - round_start - paused)
        if rounds >= min_rounds and deadline - now < loop.round_s[-1] / 2:
            break
    if side is not None:
        side.run_due(finish=True)
    loop.elapsed += time.perf_counter() - start - (side.spent if side else 0.0)
    return loop


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile, beyond): the highest percentile with at least 10
    samples beyond it.  Up to 20 samples that percentile would sit under the
    median, so the maximum is reported instead (0 samples beyond)."""
    s = sorted(values)
    n = len(s)
    i = n - 11 if n > 20 else n - 1
    return s[i], 100.0 * (i + 1) / n, n - 1 - i


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(setups, main, cli_loop, attempted, failed):
    """`main` holds the library reports, `cli_loop` the CLI processes; all
    times in them are speed-corrected."""
    reports, clis = main.report_s, cli_loop.cli_s
    report_tail, cli_tail = tail(reports), tail(clis)
    rows = [
        ("setup_s", statistics.median(setups), "s",
         f"median of {len(setups)} set-ups"),
        ("reports_per_s", len(reports) / sum(reports), "1/s",
         f"{len(reports)} reports in {len(main.round_s)} rounds; "
         f"{main.elapsed:.2f} s of wall time"),
        ("report_ms.p50", 1000 * statistics.median(reports), "ms",
         f"n={len(reports)}"),
        ("report_ms.tail", 1000 * report_tail[0], "ms",
         f"p{report_tail[1]:.1f} of n={len(reports)}, {report_tail[2]} beyond"),
        ("cli_ms.p50", 1000 * statistics.median(clis), "ms", f"n={len(clis)}"),
        ("cli_ms.tail", 1000 * cli_tail[0], "ms",
         f"p{cli_tail[1]:.1f} of n={len(clis)}, {cli_tail[2]} beyond"),
        ("failed_frac", failed / attempted, "ratio",
         f"{failed} of {attempted}; in the result line as failed/attempted"),
        ("peak_rss_mb", peak_rss_mb(), "MB", "ru_maxrss of this process"),
    ]
    # failed_frac is 0 on a healthy run, and a metric that reads 0 cannot be
    # bounded as a share of its median; the result line carries it instead.
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _ in rows if name != "failed_frac"}
    return rows, metrics


def _per_round(total, rounds):
    """Every round does the same work, so counts divide exactly."""
    if isinstance(total, int) and total % rounds == 0:
        return total // rounds
    return total / rounds


def layer_metrics(tracer, rounds, import_ms, overhead_s):
    main, main_under, _ = tracer.summarize(lambda r: 0 <= r < PROBE_REPORT_BASE)
    probe, probe_under, _ = tracer.summarize(lambda r: r >= PROBE_REPORT_BASE)

    def span(layer, key):
        return (_per_round(main.get(layer, {}).get(key, 0), rounds)
                + probe.get(layer, {}).get(key, 0))

    def count(layer, what):
        return (_per_round(tracer.counts[("main", layer, what)], rounds)
                + tracer.counts[("probe", layer, what)])

    def tally(layer):
        """From the counting round: one round plus one probe pass."""
        return (tracer.counts[("count", layer, "calls")]
                + tracer.counts[("count-probe", layer, "calls")])

    classes = count("cecomplex.cohomology", "classes")
    under = _per_round(main_under, rounds) + probe_under
    fixed_s = span("torus_oracle.count_fixed_points", "s")
    points = count("torus_oracle.count_fixed_points", "points")
    rows = [
        ("cecomplex.cohomology.self_s", span("cecomplex.cohomology", "self_s"), "s"),
        ("cecomplex.induced_cohomology_map.self_s",
         span("cecomplex.induced_cohomology_map", "self_s"), "s"),
        ("cecomplex.build_complex.self_s", span("cecomplex.build_complex", "self_s"), "s"),
        ("cecomplex.induced_chain_map.self_s",
         span("cecomplex.induced_chain_map", "self_s"), "s"),
        ("ratlin.rref.calls", span("ratlin.rref", "calls"), "count"),
        ("ratlin.rref.s", span("ratlin.rref", "s"), "s"),
        ("ratlin.rref.cells", count("ratlin.rref", "cells"), "count"),
        ("ratlin.rref.calls_per_class", under / classes if classes else 0.0, "ratio"),
        ("ratlin.determinant.calls", span("ratlin.determinant", "calls"), "count"),
        ("ratlin.determinant.s", span("ratlin.determinant", "s"), "s"),
        ("ratlin.as_fraction.calls", tally("ratlin.as_fraction"), "count"),
        ("ratlin.max_entry_bits", tracer.max_entry_bits, "bits"),
        ("liealg.validate.s", span("liealg.validate", "s"), "s"),
        ("liealg.check_morphism.s", span("liealg.check_morphism", "s"), "s"),
        ("repn.validate_rep.s", span("repn.validate_rep", "s"), "s"),
        ("repn.validate_intertwiner.s", span("repn.validate_intertwiner", "s"), "s"),
        ("lefschetz.twisted_lefschetz.self_s",
         span("lefschetz.twisted_lefschetz", "self_s"), "s"),
        ("lefschetz.linearization.s", span("lefschetz.linearization", "s"), "s"),
        ("nilshadow.build_shadow.s", span("nilshadow.build_shadow", "s"), "s"),
        ("nilshadow.induced_shadow_map.s", span("nilshadow.induced_shadow_map", "s"), "s"),
        ("ratlin.jordan_chevalley.calls", span("ratlin.jordan_chevalley", "calls"), "count"),
        ("torus_oracle.count_fixed_points.s", fixed_s, "s"),
        ("torus_oracle.ms_per_point", 1000 * fixed_s / points if points else 0.0, "ms"),
        ("cli.import_ms", import_ms, "ms"),
        ("cli.main.s", span("cli.main", "s"), "s"),
        ("documents.task_from_doc.s", span("documents.task_from_doc", "s"), "s"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
    return rows


def import_only_ms(env):
    """Median wall time of a process that only imports lietrace.cli."""
    times = []
    for _ in range(IMPORT_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import lietrace.cli"], cwd=ROOT,
                       env=env, check=True, capture_output=True,
                       timeout=PROCESS_TIMEOUT_S)
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def e2e_run(seconds, setups, ops, docs, env, clock):
    probe = Loop()
    side = SideTasks([lambda doc=doc: run_process(doc, probe, env, clock)
                      for _ in range(PROBE_PASSES) for doc in docs], seconds)
    main = closed_loop(ops, seconds, side=side, clock=clock)
    loops = (main, probe)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    rows, metrics = e2e_metrics(setups, main, probe, attempted, failed)
    for name, value, unit, note in rows:
        print(f"{name:<16} {value:>14.6g} {unit:<6} {note}")
    return metrics, attempted, failed, [f for lp in loops for f in lp.failures]


def traced_run(seconds, lib, ops, docs, env, spans_path):
    """Untraced rounds, traced rounds and a traced probe pass, then one
    counting round (with its own probe pass) whose times are not used.
    One round of each is enough: counts repeat exactly, and a second `deep`
    round would take a traced run from about 70 s to about 120 s."""
    untraced = closed_loop(ops, seconds / 2, min_rounds=1)
    tracer = tracing.Tracer()
    probe, counted = Loop(), Loop()

    def probe_pass(loop, phase):
        tracer.set_phase(phase)
        probe_ops = [cli_op(lib, doc) for doc in docs]
        closed_loop(probe_ops, 0, loop=loop, tracer=tracer,
                    report_base=PROBE_REPORT_BASE, min_rounds=1)

    tracer.install(vars(lib))
    try:
        traced = closed_loop(ops, seconds / 2, tracer=tracer, min_rounds=1)
        probe_pass(probe, "probe")
    finally:
        tracer.uninstall()
    tracer.install(vars(lib), counting=True)
    try:
        tracer.set_phase("count")
        closed_loop(ops, 0, loop=counted, tracer=tracer, min_rounds=1)
        probe_pass(counted, "count-probe")
    finally:
        tracer.uninstall()
    for name in tracer.missing:
        print(f"trace: hook target missing: {name}")
    overhead_s = statistics.median(traced.round_s) - statistics.median(untraced.round_s)
    rows = layer_metrics(tracer, len(traced.round_s), import_only_ms(env), overhead_s)
    for name, value, unit in rows:
        print(f"{name:<40} {value:>14.6g} {unit}")
    _, _, by_stage = tracer.summarize(lambda r: 0 <= r < PROBE_REPORT_BASE)
    print("largest self times (layer under stage, all traced rounds):")
    for (layer, stage), seconds_ in by_stage.most_common(8):
        print(f"  {seconds_:10.4f} s  {layer} under {stage}")
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(spans_path)
    print(f"spans: {len(tracer.span_name)} written to "
          f"{spans_path.relative_to(ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit in rows}
    loops = (untraced, traced, probe, counted)
    return (metrics, sum(lp.attempted for lp in loops),
            sum(lp.failed for lp in loops),
            [f for lp in loops for f in lp.failures])


def measure(workload, seed, seconds, trace, tiny=False, after_setup=None):
    """One benchmark run; returns the result line as a dict.

    `after_setup(lib, ops, docs)` lets a test tamper with the set-up before
    the timed loop starts."""
    docs_dir = OUT / f"docs-{os.getpid()}"
    env = process_env()
    # the traced run reports raw times: a probe inside a span would count
    # as the span's own time
    clock = speed.WallClock() if trace else speed.SpeedClock()
    with clock:
        try:
            setups = []
            for _ in range(SETUPS):
                shutil.rmtree(docs_dir, ignore_errors=True)
                docs_dir.mkdir(parents=True)
                elapsed, lib, ops, docs = setup(workload, seed, tiny, docs_dir,
                                                clock)
                setups.append(elapsed)
            if after_setup is not None:
                after_setup(lib, ops, docs)
            print(f"perfbench {workload} seed={seed} seconds={seconds} "
                  f"trace={trace}: {len(ops)} reports per round, "
                  f"{len(docs)} CLI documents")
            if trace:
                spans_path = OUT / f"spans-{workload}.tsv"
                metrics, attempted, failed, failures = traced_run(
                    seconds, lib, ops, docs, env, spans_path)
            else:
                metrics, attempted, failed, failures = e2e_run(
                    seconds, setups, ops, docs, env, clock)
        finally:
            shutil.rmtree(docs_dir, ignore_errors=True)
    for message in failures:
        print(f"FAILED {message}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few inputs per workload, for smoke tests")
    args = parser.parse_args(argv)
    if not (SRC / "lietrace" / "__init__.py").is_file():
        print(f"perfbench: no lietrace sources at {SRC}; run from the root "
              "of a lietrace checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    speed.pin_to_one_cpu()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
