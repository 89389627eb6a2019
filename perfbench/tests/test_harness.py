"""Self-test of the benchmark harness.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
REPO = BENCH.parent
sys.path[:0] = [str(BENCH), str(REPO / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

import hwsep  # noqa: E402
from hwsep import analysis, criteria, linalg  # noqa: E402

TINY = {"scan": 2, "verify": 20, "optimize": 2, "multipartite": 3}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("inputs"))
    return {name: wl.generate(7, workdir)[: TINY[name]] for name, wl in workloads.WORKLOADS.items()}


def _bindings():
    mods = [m for name, m in sys.modules.items() if name == "hwsep" or name.startswith("hwsep.")]
    found = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    found[("DensityMatrix", "__post_init__")] = linalg.DensityMatrix.__dict__["__post_init__"]
    return found


@pytest.mark.parametrize("name", list(TINY))
def test_traced_outputs_match_untraced(name, inputs):
    wl = workloads.WORKLOADS[name]
    plain = [wl.op(item) for item in inputs[name]]
    with tracing.Tracer() as tracer:
        traced = [tracer.call(tracing.ROOT, wl.op, (item,)) for item in inputs[name]]
    assert traced == plain
    layers = tracing.summarize(tracer.take())
    assert layers[tracing.ROOT][0] == len(plain)
    assert len(layers) > 2


def test_wrappers_rebind_by_value_imports_and_are_restored():
    before = _bindings()
    originals = (linalg.trace_norm, linalg.partial_transpose, linalg.eig_hermitian)
    with tracing.Tracer():
        assert criteria.trace_norm is not originals[0]
        assert analysis.trace_norm is not originals[0]
        assert criteria.partial_transpose is not originals[1]
        assert criteria.eig_hermitian is not originals[2]
        assert hwsep.check_theorem1 is criteria.check_theorem1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tiny_pass_of_each_workload_has_no_unexpected_failure(inputs):
    for name, items in inputs.items():
        result = run.Result(name)
        passes, spans = run.measure(workloads.WORKLOADS[name], items, 0.0, True, result)
        run.end_to_end(workloads.WORKLOADS[name], passes, result)
        run.per_layer(passes, result)
        assert result.outcomes["fail"] == 0, name
        assert result.correct, (name, result.problems)
        assert len(passes) >= 2
        assert result.attempted == len(items)
        assert spans


def test_computed_counts_repeat_for_a_fixed_seed(tmp_path):
    def counts():
        items = workloads.WORKLOADS["verify"].generate(3, str(tmp_path))[:10]
        result = run.Result("verify")
        passes, _ = run.measure(workloads.WORKLOADS["verify"], items, 0.0, True, result)
        run.per_layer(passes, result)
        return {k: v for k, v in result.layers.items() if not k.endswith("_ms") and not k.startswith("trace.")}

    first = counts()
    assert first == counts()
    assert first["bloch.decompose_per_state"] == (5.0, "ratio")


def test_run_sets_up_between_passes_and_at_least_the_minimum(tmp_path, monkeypatch):
    calls = []
    real = run.setup
    monkeypatch.setattr(run, "setup", lambda *args: calls.append(args) or real(*args))
    result, _ = run.run_workload("multipartite", 1, 0.0, False, str(tmp_path))
    assert len(calls) == run.SETUP_REPEATS
    assert result.setup_s > 0
    assert result.correct, result.problems


def test_benchmark_json_names_every_reported_metric(inputs):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    result = run.Result("multipartite")
    wl = workloads.WORKLOADS["multipartite"]
    passes, _ = run.measure(wl, inputs["multipartite"][:1], 0.0, True, result)
    run.end_to_end(wl, passes, result)
    run.per_layer(passes, result)
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "peak_rss_mb", *result.e2e]
    assert [m["name"] for m in spec["per_layer"]] == list(result.layers)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
