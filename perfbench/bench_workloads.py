"""The four workloads: their inputs, one operation, and its output check.

Each workload class builds its inputs in `__init__` (that work, with
the import of its entry module, is what `setup_s` times), lists one
pass of operations with `ops` (and the part of it that the slow
tracemalloc pass runs with `memory_ops`), runs one operation with
`call`, and checks outputs with `check` (one operation) and
`finish_pass` (a whole pass).  Checks return a list of problems; an
empty list means correct.  Calls go through module attributes so that
the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

from bench_trace import mat_bits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"  # spans and scratch files of a run
GOLDEN = ROOT / "tests" / "data" / "golden_classify_4_-5.json"
EXPECTED = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))

# Report fields that are exact (no floats, no echo of the input).
EXACT_FIELDS = ("level", "slope", "friezeH", "friezeW", "matrix", "cf", "omega", "syzygyPeriod")


def exact_digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(json.dumps({k: row[k] for k in EXACT_FIELDS}, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Workload:
    """Defaults shared by the workloads."""

    tracer = None  # set during traced passes, for ops that run child processes
    reference = "loop"  # the bench_calib reference that times the host's speed
    probes: dict = {}

    def memory_ops(self, order):
        return order

    def check(self, item, output):
        """(ops or cases attempted, failed, problems) for one op's output."""
        return 1, 0, []

    def finish_pass(self, outputs):
        return []

    def run_probes(self):
        pass

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def cleanup(self):
        pass


class Sweep(Workload):
    """build_report + JSON for every primitive type with |m| <= 200."""

    def __init__(self, seed: int):
        from lissbraid import classify, report

        self.report = report
        self.types = classify.enumerate_p0(200)
        self.first: dict = {}

    def ops(self, rng):
        return rng.sample(self.types, len(self.types))

    def op_name(self, t) -> str:
        return f"{t[0]},{t[1]}"

    def memory_ops(self, order):
        # every 8th type: tracemalloc makes small-object work ~7x slower
        return order[::8]

    def call(self, t):
        d = self.report.build_report(*t).to_json_dict()
        json.dumps(d)
        return d

    def check(self, t, d):
        if self.first.setdefault(t, d) != d:
            return 1, 1, [f"report of {t} changed between passes"]
        return 1, 0, []

    def finish_pass(self, outputs):
        problems = []
        if len(outputs) != len(self.types):
            return [f"{len(self.types) - len(outputs)} types gave no report"]
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        if outputs[(4, -5)] != golden:
            problems.append("report of (4,-5) differs from the golden JSON")
        digest = exact_digest(outputs[t] for t in self.types)
        if digest != EXPECTED["sweep"]["digest"]:
            problems.append(f"exact-field digest {digest} differs from the recorded one")
        return problems


# Size bands of the ladder: (suffix, level, p + q).  Seed 0 picks q = 1,
# i.e. the labels (1, 1/100), (1, 1/1000), (50, 1/100) and (1, 1/10000).
# The slow one is last, so the rest of a timed run repeats the others.
LADDER_BANDS = (("m1e2", 1, 101), ("m1e3", 1, 1001), ("n50", 50, 101), ("m1e4", 1, 10001))

# The stages of build_report in its order, with the traced functions
# that make up each one.
LADDER_STAGES = (
    ("lissajous.normalize_s", ("lissajous.normalize",)),
    ("lissajous.reduce_to_p0_s", ("lissajous.reduce_to_p0",)),
    ("classify.level_slope_of_s", ("classify.level_slope_of",)),
    ("lissajous.build_H_s", ("lissajous.build_H",)),
    ("algebra.W_s", ("algebra.second_half", "algebra.reduce_frieze")),
    ("algebra.frieze_to_matrix_s", ("algebra.frieze_to_matrix",)),
    ("surd.dilatation_s", ("surd.dilatation",)),
    ("surd.far_endpoint_s", ("surd.far_endpoint",)),
    ("surd.cf_expand_s", ("surd.cf_expand",)),
    ("syzygy.omega_s", ("syzygy.omega",)),
    ("syzygy.syzygy_sequence_s", ("syzygy.syzygy_sequence",)),
    ("classify.clusters_of_s", ("classify.clusters_of",)),
)
LADDER_COUNTS = ("H_letters", "W_letters", "matrix_bits", "cf_period_len", "syzygy_letters")
COUNT_LAYER = {"H_letters": "lissajous", "W_letters": "algebra", "matrix_bits": "algebra",
               "cf_period_len": "surd", "syzygy_letters": "syzygy"}


def ladder_labels(seed: int, level_slope):
    """One label per band; the seed picks q among the first few values
    coprime to p + q, so |m| stays within 0.3% of the band size."""
    out = []
    for band, level, s in LADDER_BANDS:
        cands = [q for q in range(1, max(3, s // 1000) + 1) if gcd(q, s) == 1]
        q = cands[seed % len(cands)]
        out.append((band, level_slope(level, s - q, q)))
    return out


def exact_stages(mods, m: int, n: int) -> dict:
    """build_report's exact stages, called one by one (no float approx)."""
    lissajous, algebra, surd, syzygy, classify = mods
    nt = lissajous.normalize(m, n)
    p0 = lissajous.reduce_to_p0(nt)
    label = classify.level_slope_of(*p0)
    h = lissajous.build_H(lissajous.normalize(*p0))
    w = algebra.reduce_frieze(h + algebra.second_half(h))
    mat = algebra.frieze_to_matrix(w)
    surd.dilatation(mat)
    cf = surd.cf_expand(surd.far_endpoint(mat))
    om = syzygy.omega(label)
    syz = syzygy.syzygy_sequence(*p0, periods=1)
    clusters = classify.clusters_of(label)
    return {"p0": p0, "label": label, "H": h, "W": w, "matrix": mat, "cf": cf,
            "omega": om, "syzygy": syz, "clusters": clusters}


class Ladder(Workload):
    """The exact stages of build_report at |m| ~ 1e2, 1e3, 1e4 and level 50."""

    reference = "bigint"

    def __init__(self, seed: int):
        from lissbraid import algebra, classify, lissajous, surd, syzygy

        self.mods = (lissajous, algebra, surd, syzygy, classify)
        self.surd = surd
        self.items = [(band, label, classify.type_of(label))
                      for band, label in ladder_labels(seed, classify.LevelSlope)]
        self.seed = seed
        self.seen_counts: dict[str, dict] = {}

    def ops(self, rng):
        return list(self.items)

    def op_name(self, item) -> str:
        return item[0]

    def call(self, item):
        return exact_stages(self.mods, *item[2])

    @staticmethod
    def sizes(r) -> dict:
        return {"H_letters": len(r["H"]), "W_letters": len(r["W"]),
                "matrix_bits": mat_bits(r["matrix"]), "cf_period_len": len(r["cf"].period),
                "syzygy_letters": len(r["syzygy"])}

    def check(self, item, r):
        band, label, mn = item
        problems = []
        letters = label.p * (2 * label.level - 1) + label.q * (2 * label.level + 1)
        if r["p0"] != mn or r["label"] != label:
            problems.append(f"{band}: label does not round-trip")
        if r["clusters"].letters != r["H"]:
            problems.append(f"{band}: clusters_of(label).letters != H")
        if not self.surd.matches_cluster_period(r["cf"], r["clusters"].radii):
            problems.append(f"{band}: CF period does not match the cluster radii")
        sizes = self.sizes(r)
        if sizes["H_letters"] != letters or len(r["omega"]) != letters \
                or sizes["syzygy_letters"] != 6 * letters:
            problems.append(f"{band}: word lengths differ from p(2N-1)+q(2N+1) = {letters}")
        known = self.seen_counts.setdefault(band, sizes)
        if known != sizes:
            problems.append(f"{band}: exact counts changed between passes")
        return 1, int(bool(problems)), problems

    def finish_pass(self, outputs):
        if self.seed != 0:
            return []
        got = {band: self.seen_counts.get(band) for band, _, _ in self.items}
        if got != EXPECTED["ladder_seed0"]:
            return [f"seed-0 exact counts {got} differ from the recorded ones"]
        return []


VERIFY_SUITES = ("epsilon", "collision", "bijection", "cf", "syzygy", "cluster")
# At its default max_m of 200 the cluster suite is one 9-15 s call, timed
# once or twice a run; on a shared host its run-to-run spread reached 0.33.
# At 120 (725 of the 2042 types, ~2 s) a run times it about ten times.
VERIFY_ARGS = {"cluster": {"max_m": 120}}


class Verify(Workload):
    """The six verify suites at their CLI defaults, but cluster at max_m 120."""

    def __init__(self, seed: int):
        from lissbraid import verify

        self.verify = verify
        self.seed = seed

    def ops(self, rng):
        return list(VERIFY_SUITES)

    def op_name(self, suite) -> str:
        return suite

    def call(self, suite):
        return self.verify.SUITES[suite](seed=self.seed, **VERIFY_ARGS.get(suite, {}))

    def check(self, suite, cases):
        bad = [name for name, ok, _ in cases if not ok]
        problems = [f"{suite}: case {name} fails" for name in bad[:5]]
        if len(cases) != EXPECTED["verify_cases"][suite]:
            problems.append(f"{suite}: {len(cases)} cases, recorded "
                            f"{EXPECTED['verify_cases'][suite]}")
        return len(cases), len(bad), problems


# name -> (arguments, expected exit code), per the CLI's documented exit
# codes.  DEFECT_PROBES lists two commands that end in a traceback today.
CLI_COMMANDS = {
    "classify_json": (["classify", "--type", "4,-5", "--json"], 0),
    "classify_text": (["classify", "--type", "-11,16"], 0),
    "from_label_json": (["from-label", "--level", "1", "--slope", "2/3", "--json"], 0),
    "cf_json": (["cf", "--type", "4,-5", "--json"], 0),
    "classify_collision": (["classify", "--type", "7,1", "--json"], 2),
    "classify_domain_error": (["classify", "--type", "3,5"], 1),
    "enumerate": (["enumerate", "--max-m", "60"], 0),
    "plot_shape": (["plot", "--type", "4,-5", "--kind", "shape", "--out", "{tmp}/shape.svg"], 0),
    "plot_halfplane": (["plot", "--type", "4,-5", "--kind", "halfplane",
                        "--out", "{tmp}/halfplane.svg"], 0),
}
# Known defects: run once per run after the timed passes, checked against
# the correct output, and reported, but not counted as operations.
DEFECT_PROBES = {
    "syzygy_json": (["syzygy", "--type", "4,-5", "--periods", "2", "--json"], 0),
    "classify_big_json": (["classify", "--type", "-740,1477", "--json"], 0),
}


CHILD_TIMEOUT_S = 120


def _timeout(signum, frame):
    raise TimeoutError("CLI process did not end in time")


class Cli(Workload):
    """`python -m lissbraid.cli` processes, one at a time."""

    reference = "process"

    def __init__(self, seed: int):
        import lissbraid.cli  # noqa: F401  (the import is part of set-up)

        self.names = sorted(CLI_COMMANDS)
        self.env = child_env()
        self.tmp = OUT / f"tmp-{os.getpid()}"
        self.import_s: list[float] = []
        self.rss_kib = 0
        self._ref = None
        self._n = 0

    def ops(self, rng):
        return rng.sample(self.names, len(self.names))

    def op_name(self, name) -> str:
        return name

    def run_command(self, args, expected):
        self._n += 1
        tmp = self.tmp / str(self._n)
        tmp.mkdir(parents=True)
        args = [a.replace("{tmp}", str(tmp)) for a in args]
        argv = [sys.executable, "-m", "lissbraid.cli", *args]
        if self.tracer is not None:
            spans = tmp / "spans.json"
            argv = [sys.executable, str(HERE / "bench_child.py"), str(spans),
                    str(int(self.tracer.memory)), *args]
        with open(tmp / "stdout", "w+b") as out, open(tmp / "stderr", "w+b") as err:
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err)
            # wait4, unlike Popen.wait, gives this child's own peak RSS
            signal.signal(signal.SIGALRM, _timeout)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except TimeoutError:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.alarm(0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read().decode(), err.read().decode()
        self.rss_kib = max(self.rss_kib, usage.ru_maxrss)
        if self.tracer is not None:
            import_ns = self.tracer.merge_child(spans)
            if not self.tracer.memory:
                self.import_s.append(import_ns / 1e9)
        return {"args": args, "expected": expected, "code": proc.returncode,
                "stdout": stdout, "stderr": stderr}

    def call(self, name):
        return self.run_command(*CLI_COMMANDS[name])

    def references(self):
        """In-process results that the processes must reproduce."""
        if self._ref is None:
            from lissbraid import classify, lissajous, report, shapetrace

            r45 = report.build_report(4, -5)
            from_label = classify.type_of(classify.LevelSlope(1, 3, 2))
            ref = {
                "classify_json": r45.to_json_dict(),
                "classify_text": report.build_report(-11, 16).to_text() + "\n",
                "from_label_json": report.build_report(*from_label).to_json_dict(),
                "cf_json": {"farEndpoint": str(r45.far_endpoint), "cf": r45.cf.to_json_dict()},
                "classify_collision": report.collision_report_dict(7, 1, lissajous.normalize(7, 1)),
                "enumerate": "".join(
                    json.dumps({"m": m, "n": n, "level": lab.level, "slope": lab.slope_str}) + "\n"
                    for m, n in classify.enumerate_p0(60)
                    for lab in [classify.level_slope_of(m, n)]),
            }
            tmp = self.tmp / "ref"
            tmp.mkdir(parents=True)
            ref["plot_shape"] = Path(shapetrace.svg_shape(
                lissajous.normalize(4, -5), 0.05, 6000, str(tmp / "shape.svg"))).read_bytes()
            ref["plot_halfplane"] = Path(shapetrace.svg_halfplane(
                r45.matrix, 8, str(tmp / "halfplane.svg"))).read_bytes()
            self._ref = ref
        return self._ref

    def _check_output(self, name, out):
        stdout, stderr = out["stdout"], out["stderr"]
        problems = []
        if out["code"] != out["expected"]:
            problems.append(f"{name}: exit {out['code']}, expected {out['expected']}")
        if "Traceback" in stdout or "Traceback" in stderr:
            tail = stderr.strip().splitlines()[-1:] or [""]
            problems.append(f"{name}: traceback ({tail[0]})")
        if problems:
            return problems
        args = out["args"]
        if name == "classify_domain_error":
            ok = stdout == "" and stderr.startswith("error: DivisibleByThree")
        elif name.startswith("plot_"):
            path = Path(args[args.index("--out") + 1])
            ok = stdout == f"{path}\n" and path.read_bytes() == self.references()[name]
        elif name in ("classify_text", "enumerate"):
            ok = stdout == self.references()[name]
        elif name in DEFECT_PROBES:
            ok = self._probe_ok(name, json.loads(stdout))
        else:
            ok = json.loads(stdout) == self.references()[name]
        return [] if ok else [f"{name}: output differs from the in-process result"]

    def _probe_ok(self, name, body) -> bool:
        from lissbraid import algebra, classify, lissajous, surd, syzygy

        mods = (lissajous, algebra, surd, syzygy, classify)
        if name == "syzygy_json":
            return body == {"omega": syzygy.omega(classify.level_slope_of(4, -5)),
                            "syzygy": syzygy.syzygy_sequence(4, -5, periods=2), "periods": 2}
        r = exact_stages(mods, -740, 1477)
        want = {"level": r["label"].level, "slope": r["label"].slope_str, "friezeH": r["H"],
                "friezeW": r["W"], "matrix": r["matrix"].to_rows(), "cf": r["cf"].to_json_dict(),
                "omega": r["omega"], "syzygyPeriod": r["syzygy"]}
        return all(body.get(k) == v for k, v in want.items())

    def check(self, name, out):
        problems = self._check_output(name, out)
        return 1, int(bool(problems)), problems

    def run_probes(self):
        """Run each known-defect command once: name -> (seconds, problems)."""
        self.probes = {}
        for name, (args, expected) in DEFECT_PROBES.items():
            t0 = time.perf_counter()
            out = self.run_command(args, expected)
            self.probes[name] = (time.perf_counter() - t0, self._check_output(name, out))

    def peak_rss_kib(self) -> int:
        """The largest CLI process so far."""
        return self.rss_kib

    def cleanup(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


WORKLOADS = {"sweep": Sweep, "ladder": Ladder, "verify": Verify, "cli": Cli}
