"""Benchmark of hwsep's four usage patterns: scan, verify, optimize, multipartite.

Run from the repository root:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 25 --trace 0

The run sets up its inputs from the seed, then repeats passes over the same
input list until ``--seconds`` have gone by, setting up again after every
pass; ``setup_s`` is taken from those repetitions.  Each pass
times every operation.  Outside the timed region, the first pass's outputs
are checked and every later pass must reproduce them exactly.  ``attempted``
and ``failed`` count each input once, so they depend on the seed alone.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and reports per-layer metrics from the
traced ones, plus the tracing overhead.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it give the same figures under the workload's own names.

``--workload all`` runs the four workloads one after another in one process
and reports the eleven named end-to-end metrics.  README.md in this
directory says what each workload and metric is for.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads: the matrices are small, and a
# thread pool on a two-core machine only adds scheduling noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("scan", "verify", "optimize", "multipartite")
SETUP_REPEATS = 7  # at least; a run sets up once more after every pass
IMPORTS_PER_SETUP = 3
MIN_TRACED_PASSES = 2  # two traced passes over the same inputs must count alike
EXPORT_OPS = 16  # operations whose raw spans are written out

# Per-layer metrics of the traced run, each per workload operation.  The
# third field of a layer's totals is its work count: array elements
# computed from shapes ("elems") or scan evaluations ("evaluations").
LAYER_FIELDS = (
    ("linalg.DensityMatrix", ("calls", "self_ms")),
    ("states.mix", ("calls", "self_ms")),
    ("bloch.decompose_bipartite", ("calls", "self_ms")),
    ("linalg.trace_norm", ("calls", "self_ms", "elems")),
    ("criteria.build_S", ("calls", "self_ms", "elems")),
    ("bloch.build_W", ("calls", "self_ms", "elems")),
    ("criteria.matricize", ("calls", "self_ms")),
    ("linalg.eig_hermitian", ("calls", "self_ms")),
    ("linalg.partial_transpose", ("calls", "self_ms")),
    ("criteria.check", ("self_ms",)),
    ("analysis.scan_threshold", ("self_ms", "evaluations")),
    ("analysis.optimize_params", ("self_ms",)),
    ("cli.run", ("self_ms",)),
    ("cli.parse_state_json", ("self_ms",)),
    ("op", ("self_ms",)),
)
FIELD_UNITS = {"calls": "count", "self_ms": "ms", "elems": "count", "evaluations": "count"}


@dataclass
class Pass:
    traced: bool
    wall: float
    latencies: list
    summary: dict | None = None  # per-layer totals of a traced pass


@dataclass
class Result:
    workload: str
    setup_s: float = 0.0
    e2e: dict = field(default_factory=dict)  # metric -> (value, unit)
    named: dict = field(default_factory=dict)  # the same figures under the workload's own names
    layers: dict = field(default_factory=dict)  # per-layer metric -> (value, unit)
    outcomes: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)  # reasons the run is not correct
    notes: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(self.outcomes.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.outcomes["ok"]

    @property
    def correct(self) -> bool:
        return not self.problems and self.outcomes["fail"] == 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np

    env = {
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


# Run in a fresh interpreter: prints how long importing the benchmark's
# workloads module (numpy and hwsep with it) takes.
IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:]
start = time.perf_counter()
import workloads
print(time.perf_counter() - start)
"""


def import_time() -> float:
    """Seconds to import numpy and hwsep, timed inside a fresh interpreter."""
    probe = [sys.executable, "-c", IMPORT_PROBE, str(HERE), str(SRC)]
    out = subprocess.run(probe, capture_output=True, text=True, check=True, timeout=60).stdout
    return float(out.split()[-1])


def setup(wl, seed: int, workdir: str) -> tuple[list, float]:
    """Set the workload up in this process; return its inputs and the time it took.

    Set-up empties the basis cache, warms it for the workload's dimensions,
    generates the inputs and runs the first operation once.
    """
    from workloads import clear_caches, warm_basis

    start = perf_counter()
    clear_caches()
    warm_basis(wl.dims)
    items = wl.generate(seed, workdir)
    wl.op(items[0])
    return items, perf_counter() - start


def _attempt(op, item, raised: list):
    """Run one operation; one that raises is a failed operation, not a failed run."""
    try:
        return op(item)
    except Exception:
        if not raised:
            traceback.print_exc(file=sys.stderr)
        raised.append(item)
        return None


def measure(wl, items, seconds: float, trace: bool, result: Result, between=None):
    """Repeat passes over ``items`` for ``seconds``; return the passes and the first traced spans.

    ``between``, if given, is called after every pass, outside the timed regions.
    """
    from tracing import ROOT, Tracer, summarize

    tracer = Tracer()
    passes: list[Pass] = []
    reference = outcomes = first_spans = None
    raised: list = []
    mismatches = 0
    deadline = perf_counter() + seconds
    while True:
        traced = trace and len(passes) % 2 == 1
        outs, lat = [], []
        if traced:
            with tracer:
                start = perf_counter()
                for item in items:
                    t = perf_counter()
                    outs.append(tracer.call(ROOT, _attempt, (wl.op, item, raised)))
                    lat.append(perf_counter() - t)
                wall = perf_counter() - start
            spans = tracer.take()
            passes.append(Pass(True, wall, lat, summarize(spans)))
            first_spans = first_spans or spans
        else:
            start = perf_counter()
            for item in items:
                t = perf_counter()
                outs.append(_attempt(wl.op, item, raised))
                lat.append(perf_counter() - t)
            passes.append(Pass(False, perf_counter() - start, lat))

        # Checks, outside every timed region.  The first pass is checked in
        # full; every later pass, traced or not, must reproduce its outputs,
        # and an input whose output differs in any pass has failed.
        if reference is None:
            reference, outcomes = outs, [wl.check(i, o) if o is not None else "fail" for i, o in zip(items, outs)]
        else:
            for k, out in enumerate(outs):
                if out != reference[k]:
                    outcomes[k] = "fail"
                    mismatches += 1

        if between is not None:
            between()
        if perf_counter() >= deadline and (not trace or sum(p.traced for p in passes) >= MIN_TRACED_PASSES):
            break
    # Each input counts once, however many passes fit in ``seconds``, so the
    # attempted and failed counts depend on the seed alone.
    result.outcomes.update(outcomes)
    if raised:
        result.problems.append(f"{len(raised)} operations raised")
    if mismatches:
        result.problems.append(f"{mismatches} outputs differ from those of the first pass")
    return passes, first_spans


def end_to_end(wl, passes, result: Result) -> None:
    import numpy as np

    untraced = [p for p in passes if not p.traced]
    lat = [x for p in untraced for x in p.latencies]
    pct = dict(zip((50, 90, 99), (float(v) * 1e3 for v in np.percentile(lat, (50, 90, 99)))))
    # The median is printed under the workload's name but not reported for the
    # bound: the host's speed drifts between regimes, which moves it between
    # runs far more than the tail (see README.md, Steadiness).
    result.e2e["op_ms_p90"] = (pct[90], "ms")
    for q in wl.tails:
        result.named[f"{wl.op_name}_p{q}"] = (pct[q] * wl.op_scale, wl.op_unit)
    if wl.name == "verify":
        rate = statistics.median(len(p.latencies) / p.wall for p in untraced)
        result.named["verdicts_per_s"] = (rate * wl.verdicts_per_op, "1/s")
    result.notes.append(f"{len(lat)} timed operations in {len(untraced)} untraced passes")


def per_layer(passes, result: Result) -> None:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    n = len(traced[0].latencies)

    def counts(summary):
        return {layer: (row[0], row[2]) for layer, row in summary.items()}

    if any(counts(p.summary) != counts(traced[0].summary) for p in traced[1:]):
        result.problems.append("computed counts differ between traced passes over the same inputs")

    def total(layer, index):
        return traced[0].summary.get(layer, (0, 0.0, 0))[index]

    for layer, fields in LAYER_FIELDS:
        for f in fields:
            if f == "self_ms":
                value = statistics.median(p.summary.get(layer, (0, 0.0, 0))[1] * 1e3 / n for p in traced)
            else:
                value = total(layer, 0 if f == "calls" else 2) / n
            result.layers[f"{layer}.{f}"] = (value, FIELD_UNITS[f])

    states = total("linalg.DensityMatrix", 0)
    evaluations = total("analysis.scan_threshold", 2)
    decompose_per_state = total("bloch.decompose_bipartite", 0) / states if states else 0.0
    result.layers["bloch.decompose_per_state"] = (decompose_per_state, "ratio")
    result.layers["linalg.validations_per_evaluation"] = (states / evaluations if evaluations else 0.0, "ratio")

    plain = statistics.median(p.wall / n for p in untraced) * 1e3
    with_spans = statistics.median(p.wall / n for p in traced) * 1e3
    result.layers["trace.op_ms_untraced"] = (plain, "ms")
    result.layers["trace.op_ms_traced"] = (with_spans, "ms")
    result.layers["trace.overhead_pct"] = ((with_spans / plain - 1.0) * 100.0, "%")
    for layer, _ in LAYER_FIELDS:
        share = result.layers[f"{layer}.self_ms"][0] / with_spans
        if share >= 0.005:
            result.notes.append(f"share of traced op time  {layer:<28} {share:6.1%}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str):
    """Set up and measure one workload; return its result and the first traced pass's spans."""
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    result = Result(name)
    # Set-up is repeated between passes, so that its medians sample the
    # host's speed over the whole run, as the latencies do.  The import is
    # the noisier part and the cheaper one, so it is sampled more often.
    imports, setups = [], []

    def set_up():
        imports.extend(import_time() for _ in range(IMPORTS_PER_SETUP))
        items, took = setup(wl, seed, workdir)
        setups.append(took)
        return items

    items = set_up()
    passes, spans = measure(wl, items, seconds, trace, result, set_up)
    while len(setups) < SETUP_REPEATS:
        set_up()
    result.setup_s = statistics.median(imports) + statistics.median(setups)
    end_to_end(wl, passes, result)
    if trace:
        per_layer(passes, result)
    known = result.outcomes["known-defect"]
    if known:
        result.notes.append(f"{known} failed operations are the known false certificate at extreme weights")
    return result, spans


def write_trace(seed: int, env: dict, result: Result, spans) -> Path:
    from tracing import export

    path = OUT / f"trace-{result.workload}-seed{seed}.json"
    doc = {
        "workload": result.workload,
        "seed": seed,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.layers.items()},
        "span_fields": ["index", "parent", "op", "name", "start_us", "duration_us", "work"],
        "work": "elements computed from array shapes, or scan evaluations",
        "spans": export(spans, EXPORT_OPS),
    }
    path.write_text(json.dumps(doc))
    return path


def _lines(workload: str, metrics: dict) -> None:
    for k, (value, unit) in metrics.items():
        print(f"{workload:<13} {k:<36} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hwsep" / "__init__.py").is_file():
        print(f"hwsep sources not found at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all" and args.trace:
        print("--trace 1 takes a single workload", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print("env " + json.dumps(env))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="inputs-", dir=OUT) as workdir:
        for name in names:
            result, spans = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
            results.append(result)
            if args.trace:
                path = write_trace(args.seed, env, result, spans)
                result.notes.append(f"spans of the first {EXPORT_OPS} traced operations: {path.relative_to(HERE.parent)}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    common = {"setup_s": (sum(r.setup_s for r in results), "s"), "peak_rss_mb": (peak_rss_mb, "MB")}

    for r in results:
        _lines(r.workload, r.named)
        for note in r.notes + r.problems:
            print(f"{r.workload:<13} # {note}")
        print(f"{r.workload:<13} # failed {r.failed} of {r.attempted} operations")
    if args.trace:
        metrics = results[0].layers
    elif args.workload == "all":
        metrics = {**common, **{k: v for r in results for k, v in r.named.items()}}
    else:
        metrics = {**common, **results[0].e2e}
    _lines(args.workload, metrics)
    print(
        json.dumps(
            {
                "correct": all(r.correct for r in results),
                "attempted": sum(r.attempted for r in results),
                "failed": sum(r.failed for r in results),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
