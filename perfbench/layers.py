"""Per-layer tracing for the benchmark: spans around the program's public calls.

``Tracer.install`` replaces each public function named in ``LAYERS`` with a
wrapper wherever the package binds it: in its own module, in every module that
imported it by name, and on the class for methods.  A wrapper records one span
per call (name, start, end, thread CPU seconds, parent span, thread) and the
span's self time, its duration minus the time its child spans cover.  Work a
survey hands to its pool threads gets the survey span as parent.  Spans stay
in memory; ``summary`` turns them into the per-layer metrics and ``save``
writes them out.  The benchmark installs the wrappers only around the
program's calls of a traced run (``--trace 1``); the timed runs never do.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
import time

import numpy as np

# module -> public functions; "Class.method" entries are wrapped on the class
LAYERS = {
    "polynomials": ("Polynomial.evaluate", "Polynomial.translate_truncated",
                    "Polynomial.mul_truncated", "PolyMatrix.det"),
    "linalg": ("det_is_nonzero", "bareiss_det"),
    "maps": ("random_map", "jdet", "ray_multiplicity", "eligibility_gate"),
    "morin": ("morin_tower", "jet_tower_values", "classify",
              "classify_from_values", "corank_at"),
    "properness": ("macaulay_matrix", "macaulay_resultant_certificate",
                   "sphere_falsifier", "properness_verdict"),
    "census": ("census", "chern_values"),
    "sampler": ("univariate_roots", "critical_points_on_lines",
                "plane_section_solutions", "cusp_points", "survey"),
}

SPAN_NAMES = tuple(f"{module}.{entry.rsplit('.', 1)[-1]}"
                   for module, entries in LAYERS.items() for entry in entries)

COUNTERS = (
    ("sampler.univariate_roots.bad_roots", "count"),
    ("sampler.univariate_roots.convergence_errors", "count"),
    ("sampler.critical_points_on_lines.yield", "ratio"),
    ("sampler.cusp_points.yield", "ratio"),
    ("sampler.survey.concurrency", "ratio"),
    ("properness.macaulay_resultant_certificate.retries", "count"),
    ("census.census.integrality_errors", "count"),
    ("trace.overhead_s", "s"),
)

BAD_ROOT_TOL = 1e-8


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def _ascending(p) -> np.ndarray:
    """Ascending coefficients of a univariate_roots argument."""
    terms = getattr(p, "terms", None)
    if terms is None:
        return np.asarray(list(p), dtype=complex)
    out = np.zeros(max(e[0] for e in terms) + 1, dtype=complex)
    for exps, c in terms.items():
        out[exps[0]] = complex(c)
    return out


def bad_root_count(p, roots) -> int:
    """Roots with |p(z)| above BAD_ROOT_TOL * sum_k |a_k| |z|^k."""
    desc = _ascending(p)[::-1]
    z = np.asarray(roots, dtype=complex)
    vals = np.abs(np.polyval(desc, z))
    envelope = np.polyval(np.abs(desc), np.abs(z))
    return int(np.sum(vals > BAD_ROOT_TOL * envelope))


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, package):
        self.package = package
        self.main_thread = threading.get_ident()
        self.index = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.ids = itertools.count()
        self.local = threading.local()
        self.buffers: list[list[tuple]] = []       # one span list per thread
        self.buffers_lock = threading.Lock()
        self.main_stack: list[list] = []
        self.patches: list[tuple[object, str, object]] = []
        self.counts = dict.fromkeys(
            ("bad_roots", "convergence_errors", "integrality_errors",
             "line_points", "line_slots", "plane_solutions", "cusps_kept"), 0)
        self.counts_lock = threading.Lock()

    # ------------------------------------------------------------ recording
    def _state(self):
        state = getattr(self.local, "state", None)
        if state is None:
            spans: list[tuple] = []
            stack: list[list] = []      # frames: [span id, name index, child seconds]
            with self.buffers_lock:
                self.buffers.append(spans)
                if threading.get_ident() == self.main_thread:
                    self.main_stack = stack
            state = self.local.state = (spans, stack, [0] * len(SPAN_NAMES))
        return state

    def _count(self, key: str, amount: int):
        with self.counts_lock:
            self.counts[key] += amount

    def _wrap(self, name: str, fn):
        idx = self.index[name]
        observe = getattr(self, "_observe_" + name.replace(".", "_"), None)
        thread_id = threading.get_ident
        clock, cpu_clock = time.perf_counter, time.thread_time

        def wrapper(*args, **kwargs):
            spans, stack, depth = self._state()
            span_id = next(self.ids)
            if stack:
                parent = stack[-1][0]
            elif thread_id() != self.main_thread and self.main_stack:
                parent = self.main_stack[-1][0]     # work handed to a pool thread
            else:
                parent = -1
            frame = [span_id, idx, 0.0]
            stack.append(frame)
            depth[idx] += 1
            cpu = cpu_clock()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                end = clock()
                if observe is not None:
                    observe(args, kwargs, None, err)
                raise
            else:
                end = clock()
                if observe is not None:
                    observe(args, kwargs, result, None)
                return result
            finally:
                cpu = cpu_clock() - cpu
                stack.pop()
                depth[idx] -= 1
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                # outermost: not nested inside a span of the same name
                spans.append((span_id, idx, start, end, duration - frame[2], cpu,
                              parent, thread_id(), depth[idx] == 0))

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------ counters
    def _observe_sampler_univariate_roots(self, args, kwargs, result, err):
        if err is not None:
            if type(err).__name__ == "RootConvergenceError":
                self._count("convergence_errors", 1)
            return
        self._count("bad_roots", bad_root_count(args[0], result))

    def _observe_sampler_critical_points_on_lines(self, args, kwargs, result, err):
        if err is None:
            F, lines = args[0], kwargs.get("lines", args[1] if len(args) > 1 else None)
            self._count("line_points", len(result))
            self._count("line_slots", lines * sum(d - 1 for d in F.degrees))

    def _observe_sampler_plane_section_solutions(self, args, kwargs, result, err):
        if err is None:
            self._count("plane_solutions", len(result))

    def _observe_sampler_cusp_points(self, args, kwargs, result, err):
        if err is None:
            self._count("cusps_kept", len(result))

    def _observe_census_census(self, args, kwargs, result, err):
        if type(err).__name__ == "IntegralityError":
            self._count("integrality_errors", 1)

    # ------------------------------------------------------------ patching
    def install(self):
        """Wrap every function of LAYERS wherever the package binds it."""
        modules = [m for key, m in sys.modules.items()
                   if key == self.package or key.startswith(self.package + ".")]
        for module_name, entries in LAYERS.items():
            module = sys.modules[f"{self.package}.{module_name}"]
            for entry in entries:
                name = f"{module_name}.{entry.rsplit('.', 1)[-1]}"
                if "." in entry:
                    cls_name, attr = entry.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[attr]
                    self._patch(cls, attr, original, self._wrap(name, original))
                    continue
                original = getattr(module, entry)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self.patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    # ------------------------------------------------------------ results
    def spans(self) -> dict[str, np.ndarray]:
        """All spans as columns, ordered by id."""
        rows = sorted(row for buf in self.buffers for row in buf)
        keys = ("id", "name", "start", "end", "self", "cpu", "parent", "thread", "outermost")
        dtypes = (np.int64, np.int32, np.float64, np.float64, np.float64, np.float64,
                  np.int64, np.int64, np.bool_)
        cols = list(zip(*rows)) if rows else [()] * len(keys)
        spans = {k: np.asarray(c, dtype=t) for k, c, t in zip(keys, cols, dtypes)}
        self._cross_thread_self(spans)
        return spans

    @staticmethod
    def _cross_thread_self(spans):
        """Self time of spans with children in other threads.

        Such children can overlap each other, so the parent's self time is its
        duration minus the length of the union of its children's intervals.
        """
        row = {int(i): k for k, i in enumerate(spans["id"])}
        parents = {row[int(p)] for p, t in zip(spans["parent"], spans["thread"])
                   if p >= 0 and t != spans["thread"][row[int(p)]]}
        for k in parents:
            mine = spans["parent"] == spans["id"][k]
            covered, reach = 0.0, -math.inf
            for a, b in sorted(zip(spans["start"][mine], spans["end"][mine])):
                a = max(a, reach)
                if b > a:
                    covered += b - a
                    reach = b
            spans["self"][k] = spans["end"][k] - spans["start"][k] - covered

    def summary(self, spans: dict[str, np.ndarray], rounds: int,
                overhead_s: float) -> dict[str, float]:
        """Per-layer metrics, each per traced round."""
        out = {}
        names = spans["name"]
        duration = spans["end"] - spans["start"]
        for i, name in enumerate(SPAN_NAMES):
            mine = names == i
            out[f"{name}.calls"] = int(np.sum(mine)) / rounds
            out[f"{name}.s"] = float(np.sum(duration[mine & spans["outermost"]])) / rounds
            out[f"{name}.self_s"] = float(np.sum(spans["self"][mine])) / rounds
        c = self.counts
        out["sampler.univariate_roots.bad_roots"] = c["bad_roots"] / rounds
        out["sampler.univariate_roots.convergence_errors"] = c["convergence_errors"] / rounds
        out["sampler.critical_points_on_lines.yield"] = (
            c["line_points"] / c["line_slots"] if c["line_slots"] else 0.0)
        out["sampler.cusp_points.yield"] = (
            c["cusps_kept"] / c["plane_solutions"] if c["plane_solutions"] else 0.0)
        out["sampler.survey.concurrency"] = self._concurrency(spans, duration)
        out["properness.macaulay_resultant_certificate.retries"] = \
            self._retries(spans) / rounds
        out["census.census.integrality_errors"] = c["integrality_errors"] / rounds
        out["trace.overhead_s"] = overhead_s
        return out

    def _concurrency(self, spans, duration) -> float:
        """CPU time of a survey's direct children, in any thread, over its wall time.

        CPU time, not span time: under the interpreter lock the pool threads'
        spans overlap in wall time without running at once.
        """
        survey = spans["name"] == self.index["sampler.survey"]
        wall = float(np.sum(duration[survey]))
        if wall == 0.0:
            return 0.0
        under = np.isin(spans["parent"], spans["id"][survey])
        return float(np.sum(spans["cpu"][under])) / wall

    def _retries(self, spans) -> int:
        """Macaulay matrices built inside certificates beyond the first per call."""
        cert = spans["name"] == self.index["properness.macaulay_resultant_certificate"]
        built = (spans["name"] == self.index["properness.macaulay_matrix"]) & \
            np.isin(spans["parent"], spans["id"][cert])
        return int(np.sum(built)) - int(np.sum(cert))

    def save(self, path, spans: dict[str, np.ndarray]):
        np.savez(path, names=np.asarray(SPAN_NAMES), **spans)


__all__ = ["LAYERS", "SPAN_NAMES", "Tracer", "bad_root_count", "metric_units"]
