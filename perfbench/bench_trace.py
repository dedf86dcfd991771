"""Span recorder that times lissbraid's public functions from outside.

`Tracer.install()` replaces each function in `TARGETS` by a wrapper in
every loaded `lissbraid` module that holds a reference to it, so calls
between modules are traced too. Each call becomes one span
`[name, op, parent, start_ns, end_ns, size, alloc_peak]`; spans stay in
memory until the caller writes them out. With `memory=True` every span
also records its `tracemalloc` peak above the memory in use when it
started (slow; used only for the allocation figures).
"""

from __future__ import annotations

import json
import sys
import time
import tracemalloc


def mat_bits(mat) -> int:
    """Bit length of the largest entry of a 2x2 matrix."""
    return max(abs(mat.a), abs(mat.b), abs(mat.c), abs(mat.d)).bit_length()


# (span name, module, attribute, size of the call or None).  A dotted
# attribute is a method.  Sizes are the exact counts the per-layer
# metrics sum.
TARGETS = [
    ("lissajous.normalize", "lissbraid.lissajous", "normalize", None),
    ("lissajous.reduce_to_p0", "lissbraid.lissajous", "reduce_to_p0", None),
    ("lissajous.epsilon_seq", "lissbraid.lissajous", "epsilon_seq", None),
    ("lissajous.build_H", "lissbraid.lissajous", "build_H", lambda a, r: len(r)),
    ("lissajous.build_W", "lissbraid.lissajous", "build_W", None),
    ("algebra.second_half", "lissbraid.algebra", "second_half", None),
    ("algebra.reduce_frieze", "lissbraid.algebra", "reduce_frieze", None),
    ("algebra.frieze_to_matrix", "lissbraid.algebra", "frieze_to_matrix",
     lambda a, r: (len(a[0]), mat_bits(r))),
    ("algebra.ab_to_frieze", "lissbraid.algebra", "ab_to_frieze", None),
    ("surd.dilatation", "lissbraid.surd", "dilatation", None),
    ("surd.far_endpoint", "lissbraid.surd", "far_endpoint", None),
    ("surd.cf_expand", "lissbraid.surd", "cf_expand", lambda a, r: len(r.period)),
    ("surd.approx", "lissbraid.surd", "QuadSurd.approx", None),
    ("words.christoffel", "lissbraid.words", "christoffel", None),
    ("words.palindromic_conjugate", "lissbraid.words", "palindromic_conjugate", None),
    ("classify.level_slope_of", "lissbraid.classify", "level_slope_of", None),
    ("classify.type_of", "lissbraid.classify", "type_of", None),
    ("classify.clusters_of", "lissbraid.classify", "clusters_of", None),
    ("classify.enumerate_p0", "lissbraid.classify", "enumerate_p0", None),
    ("syzygy.omega", "lissbraid.syzygy", "omega", None),
    ("syzygy.syzygy_sequence", "lissbraid.syzygy", "syzygy_sequence", lambda a, r: len(r)),
    ("shapetrace.epsilon_oracle", "lissbraid.shapetrace", "epsilon_oracle", None),
    ("shapetrace.collision_scan", "lissbraid.shapetrace", "collision_scan", None),
    ("shapetrace.syzygy_oracle", "lissbraid.shapetrace", "syzygy_oracle", None),
    ("shapetrace.svg_shape", "lissbraid.shapetrace", "svg_shape", None),
    ("shapetrace.svg_halfplane", "lissbraid.shapetrace", "svg_halfplane", None),
    ("report.build_report", "lissbraid.report", "build_report", None),
    ("report.to_json", "lissbraid.report", "Report.to_json_dict", None),
]

NAME, OP, PARENT, START, END, SIZE, PEAK = range(7)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._acc_peak: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.op, parent, 0, 0, None, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        if self.memory:
            cur, peak = tracemalloc.get_traced_memory()
            if self._acc_peak:
                self._acc_peak[-1] = max(self._acc_peak[-1], peak)
            self._acc_peak.append(0)
            span[PEAK] = cur
            tracemalloc.reset_peak()
        span[START] = time.perf_counter_ns()
        return span

    def _exit(self, span: list) -> None:
        span[END] = time.perf_counter_ns()
        self._stack.pop()
        if self.memory:
            peak = max(self._acc_peak.pop(), tracemalloc.get_traced_memory()[1])
            span[PEAK] = peak - span[PEAK]

    def _wrap(self, name, fn, size):
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if size is not None:
                span[SIZE] = size(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op: int, name: str, fn, *args):
        """Call fn(*args) as the root span of operation `op`."""
        self.op = op
        span = self._enter(name)
        try:
            return fn(*args)
        finally:
            self._exit(span)

    def merge_child(self, path) -> int:
        """Adopt the spans a traced child process wrote, under the current
        span; returns the child's import time in nanoseconds."""
        with open(path, encoding="utf-8") as fh:
            child = json.load(fh)
        base, root = len(self.spans), self._stack[-1]
        for s in child["spans"]:
            s[OP] = self.op
            s[PARENT] = root if s[PARENT] < 0 else s[PARENT] + base
            if isinstance(s[SIZE], list):
                s[SIZE] = tuple(s[SIZE])
            self.spans.append(s)
        return child["import_ns"]

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self.memory:
            tracemalloc.start()
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "lissbraid" or k.startswith("lissbraid."))]
        for name, modname, attr, size in TARGETS:
            home = sys.modules.get(modname)
            if home is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                orig = cls.__dict__[meth]
                self._restore.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(name, orig, size))
                continue
            orig = getattr(home, attr)
            wrapper = self._wrap(name, orig, size)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()
        if self.memory:
            tracemalloc.stop()


# -- summaries ---------------------------------------------------------------

def _has_ancestor(spans, i, names) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] in names:
            return True
        p = spans[p][PARENT]
    return False


def function_times(spans) -> dict[str, float]:
    """Seconds inside each traced function, counting nested calls of the
    same function once."""
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        if not _has_ancestor(spans, i, (s[NAME],)):
            out[s[NAME]] = out.get(s[NAME], 0.0) + (s[END] - s[START]) / 1e9
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) / 1e9 for s, c in zip(spans, child)]


def w_time(spans, keep=lambda i: True) -> float:
    """Seconds building W from H: second_half and reduce_frieze calls that
    are not part of ab_to_frieze's own reduction."""
    total = 0
    for i, s in enumerate(spans):
        if s[NAME] in ("algebra.second_half", "algebra.reduce_frieze") and keep(i) \
                and not _has_ancestor(spans, i, ("algebra.ab_to_frieze",)):
            total += s[END] - s[START]
    return total / 1e9


def counts(spans, keep=lambda i: True) -> dict[str, int]:
    """Exact sizes summed over the spans that carry them."""
    out = {"H_letters": 0, "W_letters": 0, "matrix_bits": 0, "cf_period_len": 0,
           "syzygy_letters": 0}
    for i, s in enumerate(spans):
        if s[SIZE] is None or not keep(i):
            continue
        name = s[NAME]
        if name == "lissajous.build_H":
            out["H_letters"] += s[SIZE]
        elif name == "algebra.frieze_to_matrix":
            if not _has_ancestor(spans, i, ("algebra.ab_to_frieze",)):
                out["W_letters"] += s[SIZE][0]
                out["matrix_bits"] += s[SIZE][1]
        elif name == "surd.cf_expand":
            out["cf_period_len"] += s[SIZE]
        elif name == "syzygy.syzygy_sequence":
            out["syzygy_letters"] += s[SIZE]
    return out


def peaks(spans) -> dict[str, int]:
    """Largest tracemalloc peak, in bytes, of any call of each function."""
    out: dict[str, int] = {}
    for s in spans:
        out[s[NAME]] = max(out.get(s[NAME], 0), s[PEAK])
    return out


def write_spans(path, spans) -> None:
    """One tab-separated line per span, with its self time."""
    selfs = self_times(spans)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\top\tparent\tname\tstart_ns\tend_ns\tself_s\tsize\n")
        for i, (s, st) in enumerate(zip(spans, selfs)):
            size = "" if s[SIZE] is None else s[SIZE]
            fh.write(f"{i}\t{s[OP]}\t{s[PARENT]}\t{s[NAME]}\t{s[START]}\t{s[END]}\t{st!r}\t{size}\n")
