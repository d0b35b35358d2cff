"""Benchmark of morin_census: three workloads, checked outputs, per-layer tracing.

Run from the root of a checkout:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke

A run sets up (imports the package from ``src/`` and builds round 0's inputs)
several times and keeps the median.  Then it runs whole rounds of its
workload for as long as another round fits in ``--seconds``, and checks every
round's outputs with numpy computations made apart from the program.  Every
timed region runs under ``reference.Gauge``, and its time is reported at the
reference speed, so that the host's own swings in speed cancel.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones.  With ``--trace 1`` they are the per-layer ones, from pairs of untraced
and traced rounds on the same inputs.  ``--smoke`` runs every workload at a
small size, traced and untraced, with all checks.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = "morin_census"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 15

sys.path.insert(0, str(HERE))

import layers  # noqa: E402  (the benchmark's own modules sit next to this file)
import reference  # noqa: E402
import workloads  # noqa: E402


def fresh_import():
    """Import the package from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


class Run:
    """Checked outcomes of a run's rounds: operations, results, problems."""

    def __init__(self, workload, mc, seed: int):
        self.workload = workload
        self.mc = mc
        self.seed = seed
        self.results: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tally: Counter = Counter()
        self.walls: list[float] = []
        self.gauges: list[list[float]] = []

    def round(self, r: int, inputs=None, tracer=None) -> float:
        """One round, checked; returns the time of the program's calls alone at
        the reference speed, and keeps the wall time in `walls`.

        Only those calls run under the tracer, if one is given.
        """
        if inputs is None:
            inputs = self.workload.make(self.mc, self.seed, r)
        out = workloads.Outcome()
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            with reference.Gauge() as timed:
                produced = self.workload.run(self.mc, inputs, out)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.walls.append(timed.wall)
        self.gauges.append(timed.gauges)
        self.workload.check(self.mc, inputs, produced, out)
        self.results.append(out.results)
        self.attempted += out.attempted
        self.failed += out.failed
        self.problems += out.problems
        self.tally += out.tally
        return timed.rescaled

    def all_problems(self) -> list[str]:
        return self.problems + self.workload.finish(self.tally)


def rounds_within(seconds: float, step) -> int:
    """Call step(0), step(1), ... while the next call, as long as the last, ends in time.

    The first call always runs; the number of calls made is returned.
    """
    start = time.perf_counter()
    r = 0
    while True:
        began = time.perf_counter()
        step(r)
        r += 1
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            return r


def setup(workload, seed: int):
    """Median over SETUP_REPEATS of a fresh import plus round 0's inputs,
    each at the reference speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with reference.Gauge() as timed:
            mc = fresh_import()
            inputs = workload.make(mc, seed, 0)
        times.append(timed.rescaled)
    return mc, inputs, statistics.median(times)


def measure(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    workload = workloads.WORKLOADS[name](smoke)
    mc, inputs, setup_s = setup(workload, seed)
    run = Run(workload, mc, seed)
    rescaled: list[float] = []
    rounds_within(seconds, lambda r: rescaled.append(run.round(r, inputs if r == 0 else None)))
    wall_s = statistics.median(rescaled)
    results = statistics.median(run.results)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "results": (results, "count"),
        "results_per_s": (results / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return report(run, metrics, {"rescaled": rescaled, "walls": run.walls,
                                 "gauges": run.gauges, "results": run.results,
                                 "tally": dict(run.tally)})


def measure_traced(name: str, seed: int, seconds: float, smoke: bool = False) -> dict:
    """Pairs of rounds on the same inputs, untraced then traced, while time remains."""
    workload = workloads.WORKLOADS[name](smoke)
    mc, inputs, _ = setup(workload, seed)
    run = Run(workload, mc, seed)
    tracer = layers.Tracer(PACKAGE)
    overheads: list[float] = []

    def pair(r: int):
        untraced = run.round(r, inputs if r == 0 else None)
        overheads.append(run.round(r, workload.make(mc, seed, r), tracer) - untraced)

    pairs = rounds_within(seconds, pair)
    spans = tracer.spans()
    layer = tracer.summary(spans, pairs, statistics.median(overheads))
    metrics = {k: (layer[k], unit) for k, unit in layers.metric_units().items()}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.save(OUT_DIR / f"{name}-seed{seed}.spans.npz", spans)
    return report(run, metrics, {"overheads": overheads, "results": run.results,
                                 "spans": int(spans["id"].size)})


def report(run: Run, metrics: dict, detail: dict) -> dict:
    problems = run.all_problems()
    for line in problems[:20]:
        print("perfbench: check failed:", line, file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": detail,
    }


def smoke() -> int:
    status = 0
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            start = time.perf_counter()
            measure_fn = measure_traced if traced else measure
            result = measure_fn(name, seed=1, seconds=0.0, smoke=True)
            ok = result["correct"] and result["failed"] == 0
            status = status or (0 if ok else 1)
            print(f"smoke {name} trace={int(traced)}: "
                  f"{'ok' if ok else 'FAILED'} in {time.perf_counter() - start:.1f} s, "
                  f"{result['attempted']} operations")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload small, traced and untraced, and check it")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no src/{PACKAGE} under {ROOT}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required without --smoke")
    measure_fn = measure_traced if args.trace else measure
    result = measure_fn(args.workload, args.seed, args.seconds)
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1) + "\n")
    del result["detail"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
