"""Benchmark harness for lissbraid (stdlib only).

    python3 perfbench/run.py --workload {sweep,ladder,verify,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its `src/`.  One process, one thread, a closed loop with one caller:
each operation starts when the previous one returns.

--trace 0 runs one whole pass over the workload's operations, then
repeats the operations that still fit until S seconds have passed, and
reports the end-to-end metrics.  Their times are scaled to a host of
nominal speed by reference work timed beside the operations
(bench_calib); the raw times are in the run's details.
--trace 1 runs one plain pass, one pass with a span per public call,
and a pass over `memory_ops` that also records tracemalloc peaks, and
reports the per-layer metrics.  Spans go to .perfbench/ when the run ends.

Standard output ends with two JSON lines: the run's details
(environment, op counts, median op latency, tail percentile, known
defects, ...) and the result {"correct", "attempted", "failed", "metrics"}.
The run fails (exit 2, no result) outside a source checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 11
# Every workload reports every end-to-end metric.  The median op latency
# is in each run's details only: on ladder and verify (4 and 6 unlike ops)
# it is the mean of two short ops and too unsteady between runs to bound.
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB"}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric and its unit, in BENCHMARK.json order."""
    from bench_workloads import CLI_COMMANDS, DEFECT_PROBES, LADDER_BANDS, LADDER_COUNTS, \
        LADDER_STAGES, VERIFY_SUITES, COUNT_LAYER

    names = {}
    for n in ("lissajous.normalize_s", "lissajous.reduce_to_p0_s", "lissajous.epsilon_seq_s",
              "lissajous.build_H_s", "lissajous.build_W_s", "lissajous.H_letters",
              "algebra.W_s", "algebra.frieze_to_matrix_s", "algebra.ab_to_frieze_s",
              "algebra.matrix_bits", "algebra.W_letters",
              "surd.dilatation_s", "surd.far_endpoint_s", "surd.cf_expand_s", "surd.approx_s",
              "surd.cf_period_len",
              "words.christoffel_s", "words.palindromic_conjugate_s",
              "classify.level_slope_of_s", "classify.type_of_s", "classify.clusters_of_s",
              "classify.enumerate_p0_s",
              "syzygy.omega_s", "syzygy.syzygy_sequence_s", "syzygy.syzygy_letters",
              "shapetrace.epsilon_oracle_s", "shapetrace.collision_scan_s",
              "shapetrace.syzygy_oracle_s", "shapetrace.svg_shape_s", "shapetrace.svg_halfplane_s",
              "report.build_report_s", "report.to_json_s", "report.overhead_s"):
        names[n] = "s" if n.endswith("_s") else "count"
    for suite in VERIFY_SUITES:
        names[f"verify.{suite}_s"] = "s"
    names["verify.cases"] = "count"
    names["verify.failed_cases"] = "count"
    names["cli.import_s"] = "s"
    names["cli.import_numpy_s"] = "s"
    for cmd in sorted(CLI_COMMANDS) + sorted(DEFECT_PROBES):
        names[f"cli.process_s.{cmd}"] = "s"
    names["cli.defect_probes_failed"] = "count"
    names["trace.overhead_s"] = "s"
    for band, _, _ in LADDER_BANDS:
        for stage, _ in LADDER_STAGES:
            names[f"{stage}.{band}"] = "s"
        for c in LADDER_COUNTS:
            names[f"{COUNT_LAYER[c]}.{c}.{band}"] = "count"
    return names


# -- environment ---------------------------------------------------------------

def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "git_commit": commit,
            "src_sha256": src.hexdigest()}


# -- timing --------------------------------------------------------------------

def setup_times(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Seconds to import the entry module and build the inputs, each in a
    fresh interpreter, and before each the start and exit time of a bare
    interpreter (bench_calib.process_start_s); the first pair
    (bytecode-cache warm-up) is dropped."""
    from bench_workloads import child_env

    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--setup-probe"]
    out, refs = [], []
    for _ in range(SETUP_REPEATS + 1):
        refs.append(bench_calib.process_start_s())
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120)
        if proc.returncode != 0:
            fail(f"set-up probe failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out[1:], refs[1:]


class Tally:
    """Operations attempted and failed, and every problem the checks found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []


def run_pass(w, order, tally, tracer=None, whole=True, fits=None, clock=None):
    """Time each op of one pass, then check the outputs (untimed).

    An op for which `fits(op)` is false is skipped.  `whole` is False for
    a pass that may skip ops; it leaves out the whole-pass checks.  A
    `clock` (bench_calib.Clock) may sample host speed between ops.
    Returns (pass seconds, latency by op, output by op, (start, end) by op).
    """
    outputs, latencies, spans = {}, {}, {}
    t_pass = time.perf_counter()
    for i, item in enumerate(order):
        if fits is not None and not fits(item):
            continue
        if clock is not None:
            clock.between()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                outputs[item] = w.call(item)
            else:
                outputs[item] = tracer.run_op(i, "op:" + w.op_name(item), w.call, item)
        except Exception as err:  # an op that raises counts as failed
            tally.attempted += 1
            tally.failed += 1
            tally.problems.append(f"{w.op_name(item)}: {type(err).__name__}: {err}")
        t1 = time.perf_counter()
        latencies[item] = t1 - t0
        spans[item] = (t0, t1)
    wall = time.perf_counter() - t_pass
    for item, out in outputs.items():
        attempted, failed, problems = w.check(item, out)
        tally.attempted += attempted
        tally.failed += failed
        tally.problems += problems
    if whole:
        tally.problems += w.finish_pass(outputs)
    return wall, latencies, outputs, spans


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten ops beyond it,
    and that percentile; the maximum when there are ten ops or fewer."""
    xs = sorted(latencies)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


# -- per-layer metrics -----------------------------------------------------------

def layer_metrics(name, w, spans, outputs, untraced, traced_wall):
    import bench_trace as bt
    from bench_workloads import LADDER_COUNTS, LADDER_STAGES, COUNT_LAYER

    metrics = dict.fromkeys(per_layer_names(), 0)
    ftimes = bt.function_times(spans)
    for fn, secs in ftimes.items():
        key = fn + "_s"
        if key in metrics:
            metrics[key] = secs
    metrics["algebra.W_s"] = bt.w_time(spans)
    selfs = bt.self_times(spans)
    metrics["report.overhead_s"] = sum(st for s, st in zip(spans, selfs)
                                       if s[bt.NAME] == "report.build_report")
    for c, v in bt.counts(spans).items():
        metrics[f"{COUNT_LAYER[c]}.{c}"] = v
    untraced_wall, latencies = untraced
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    roots = {i: s for i, s in enumerate(spans) if s[bt.PARENT] < 0}
    if name == "ladder":
        for root, s in roots.items():
            band = s[bt.NAME][3:]
            under = lambda i, root=root: spans[i][bt.PARENT] == root
            for stage, fns in LADDER_STAGES:
                if stage == "algebra.W_s":
                    metrics[f"{stage}.{band}"] = bt.w_time(spans, under)
                    continue
                metrics[f"{stage}.{band}"] = sum(
                    (x[bt.END] - x[bt.START]) / 1e9 for i, x in enumerate(spans)
                    if x[bt.NAME] in fns and under(i))
            for c, v in bt.counts(spans, under).items():
                metrics[f"{COUNT_LAYER[c]}.{c}.{band}"] = v
    if name == "verify":
        for s in roots.values():
            metrics[f"verify.{s[bt.NAME][3:]}_s"] = (s[bt.END] - s[bt.START]) / 1e9
        metrics["verify.cases"] = sum(len(c) for c in outputs.values())
        metrics["verify.failed_cases"] = sum(1 for c in outputs.values() for _, ok, _ in c if not ok)
    if name == "cli":
        metrics["cli.import_s"] = statistics.median(w.import_s)
        metrics["cli.import_numpy_s"] = import_numpy_s()
        for cmd, secs in latencies.items():
            metrics[f"cli.process_s.{cmd}"] = secs
        for cmd, (secs, problems) in w.probes.items():
            metrics[f"cli.process_s.{cmd}"] = secs
        metrics["cli.defect_probes_failed"] = sum(1 for _, p in w.probes.values() if p)
    return metrics


def check_counts(name, w, metrics) -> list[str]:
    """Exact counts must repeat: against the recorded values, or for the
    seed-dependent ladder against the sizes of the plain pass's outputs."""
    from bench_workloads import COUNT_LAYER, EXPECTED

    if name == "ladder":
        want = {f"{COUNT_LAYER[c]}.{c}.{band}": v
                for band, sizes in w.seen_counts.items() for c, v in sizes.items()}
    else:
        want = EXPECTED["trace_counts"].get(name, {})
    got = {k: metrics[k] for k in want}
    return [] if got == want else [f"exact counts {got} differ from {want}"]


def import_numpy_s() -> float:
    """Cumulative import time of numpy under `import lissbraid.cli`, from
    `python -X importtime` in a fresh interpreter (0 if not imported)."""
    from bench_workloads import child_env

    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import lissbraid.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120)
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*numpy\s*$", line)
        if m:
            return int(m.group(2)) / 1e6
    return 0.0


# -- main --------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "ladder", "verify", "cli"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (SRC / "lissbraid" / "__init__.py").is_file():
        fail(f"no lissbraid package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bench_workloads as bw

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if {m["name"]: m["unit"] for m in declared["end_to_end"]} != END_TO_END \
            or {m["name"]: m["unit"] for m in declared["per_layer"]} != per_layer_names():
        fail("metric names in BENCHMARK.json differ from the ones this harness reports")

    if args.setup_probe:
        t0 = time.perf_counter()
        bw.WORKLOADS[args.workload](args.seed)
        print(time.perf_counter() - t0)
        return 0

    setup, setup_refs = setup_times(args.workload, args.seed)
    w = bw.WORKLOADS[args.workload](args.seed)
    import lissbraid

    if Path(lissbraid.__file__).resolve().parent != (SRC / "lissbraid").resolve():
        fail(f"imported lissbraid from {lissbraid.__file__}, not from {SRC}")
    rng = random.Random(args.seed)
    tally = Tally()
    OUT.mkdir(exist_ok=True)
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "setup_samples_s": setup,
            "setup_reference_s": setup_refs}
    if args.trace == 0:
        metrics, units = measure(args, w, rng, tally, info), END_TO_END
        metrics["setup_s"] = bench_calib.scaled_once(statistics.median(setup), setup_refs)
    else:
        metrics, units = trace(args, w, rng, tally, info), per_layer_names()
    if w.probes:
        info["known_defects"] = {k: p for k, (_, p) in w.probes.items()}
    w.cleanup()
    info["problems"] = tally.problems[:50]
    correct = not tally.problems
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0 if correct else 1


def measure(args, w, rng, tally, info) -> dict:
    """One whole pass, then rounds in fresh orders until --seconds are up,
    running an op again only while its last latency still fits.

    Times are scaled seconds (bench_calib): on a shared host the speed of
    a core drifts by 20-30% for minutes at a time, far past what raw
    times of the same code could be bounded by.  An op's latency is the
    median of its scaled samples, so that a garbage-collection pause in
    one sample does not carry it into the tail.  op_p50_s and op_tail_s
    are percentiles over the ops; wall_s, the time of one pass, is the
    sum over the ops.  op_p50_s and the raw (unscaled) pass time go to
    the run's details.
    Peak RSS is read after the first pass."""
    deadline = time.perf_counter() + args.seconds
    spans: dict = {}
    last: dict = {}  # each op's latest raw latency
    fits = None
    clock = bench_calib.Clock(w.reference)
    try:
        while True:
            _, latencies, _, times = run_pass(w, w.ops(rng), tally, whole=fits is None,
                                              fits=fits, clock=clock)
            if not latencies:
                break
            if fits is None:
                # later rounds vary with timing, and so does the heap they leave
                rss_kib = w.peak_rss_kib()
            for item, t in times.items():
                spans.setdefault(item, []).append(t)
            last.update(latencies)
            fits = lambda item: time.perf_counter() + last[item] <= deadline  # noqa: E731
    finally:
        clock.close()
    w.run_probes()
    per_op = {w.op_name(item): statistics.median(clock.scaled(*t) for t in v)
              for item, v in spans.items()}
    tail_s, pct = tail(list(per_op.values()))
    info.update(ops=len(per_op), samples=sum(map(len, spans.values())),
                op_p50_s=statistics.median(per_op.values()), op_tail_percentile=pct,
                raw_wall_s=sum(statistics.fmean(clock.raw(*t) for t in v) for v in spans.values()),
                reference_runs=len(clock.refs),
                reference_s_quartiles=statistics.quantiles(clock.refs, n=4))
    if len(per_op) <= 20:
        info["op_mean_s"] = per_op
        info["op_samples"] = {w.op_name(item): len(v) for item, v in spans.items()}
    return {"wall_s": sum(per_op.values()), "op_tail_s": tail_s, "peak_rss_mb": rss_kib / 1024}


def trace(args, w, rng, tally, info) -> dict:
    """A plain pass, a traced pass, then a traced pass with tracemalloc."""
    import bench_trace as bt

    order = w.ops(rng)
    untraced_wall, lat, _, _ = run_pass(w, order, tally)
    passes = {}
    for memory in (False, True):
        ops = w.memory_ops(order) if memory else order
        w.tracer = bt.Tracer(memory=memory)
        w.tracer.install()
        try:
            passes[memory] = run_pass(w, ops, tally, w.tracer, whole=not memory)[:3] \
                + (w.tracer.spans,)
        finally:
            w.tracer.uninstall()
            w.tracer = None
    w.run_probes()
    traced_wall, _, outputs, spans = passes[False]
    metrics = layer_metrics(args.workload, w, spans, outputs, (untraced_wall, lat),
                            traced_wall)
    tally.problems += check_counts(args.workload, w, metrics)

    path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
    bt.write_spans(path, spans)
    module_self = {}
    for s, st in zip(spans, bt.self_times(spans)):
        mod = "harness" if s[bt.NAME].startswith("op:") else s[bt.NAME].split(".")[0]
        module_self[mod] = module_self.get(mod, 0.0) + st
    info.update(spans_file=str(path.relative_to(ROOT)), spans=len(spans),
                module_self_s=module_self, untraced_wall_s=untraced_wall,
                traced_wall_s=traced_wall, memory_pass_wall_s=passes[True][0],
                memory_pass_ops=len(passes[True][2]),
                alloc_peak_kib={k: v / 1024 for k, v in bt.peaks(passes[True][3]).items()})
    return metrics


if __name__ == "__main__":
    sys.exit(main())
