"""Tests of the benchmark harness itself: span attribution, the percentile
rule, the service plan generator, and the catalog in BENCHMARK.json."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench.metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from perfbench.stats import percentile, reportable, tail_percentile  # noqa: E402
from perfbench.tracing import Span, Tracer, covered_length, layer_of, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SERVICE_MIX,
    SERVICE_TENANTS,
    planned_trainings,
    service_plan,
)


def _span(name, start, end, parent=None, layer="api", thread=0):
    return Span(name, layer, parent, start=start, end=end, thread=thread)


# -- self-time arithmetic ------------------------------------------------------


def test_nested_spans_subtract_their_children():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root)
    b = _span("b", 5.0, 9.0, root)
    c = _span("c", 6.0, 7.0, b)
    assert self_times([root, a, b, c]) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_children_on_other_threads_count_once_where_they_overlap():
    root = _span("root", 0.0, 10.0, thread=1)
    left = _span("job", 1.0, 6.0, root, thread=2)
    right = _span("job", 4.0, 8.0, root, thread=3)
    late = _span("job", 9.0, 12.0, root, thread=2)  # outlives its parent
    own = self_times([root, left, right, late])
    # covered: [1, 8] and [9, 10] -> 8 of the parent's 10 seconds
    assert own[0] == pytest.approx(2.0)
    assert own[1:] == pytest.approx([5.0, 4.0, 3.0])


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(2.0, 3.0)], 0.0, 1.0) == 0.0
    assert covered_length([(0.5, 2.0), (-1.0, 0.25), (0.6, 0.7)], 0.0, 1.0) == (
        pytest.approx(0.75)
    )


def test_layer_self_times_sum_to_the_root_duration():
    root = _span("root", 0.0, 10.0, layer="api")
    opt = _span("opt", 1.0, 9.0, root, layer="optimizers")
    sim = _span("sim", 2.0, 4.0, opt, layer="simulators")
    metrics = layer_metrics([root, opt, sim])
    assert metrics["api.self_s"] == pytest.approx(2.0)
    assert metrics["optimizers.self_s"] == pytest.approx(6.0)
    assert metrics["simulators.self_s"] == pytest.approx(2.0)
    assert sum(v for k, v in metrics.items() if k.endswith(".self_s")) == (
        pytest.approx(root.duration)
    )


def test_layers_own_their_modules():
    assert layer_of("repro.api") == "api"
    assert layer_of("repro.simulators.compiled") == "simulators"
    assert layer_of("repro.parallel.jobs") == "core.runtime"
    assert layer_of("repro.parallel.async_executor") == "parallel"
    assert layer_of("repro.graphs.generators") is None


# -- the tracer's wrappers -------------------------------------------------------


def test_wrapped_calls_link_parents_and_skip_same_layer_helpers():
    tracer = Tracer()
    helper = tracer._wrap_function(lambda: 1, "m.helper", "optimizers")
    engine = tracer._wrap_function(lambda: 2, "m.engine", "simulators")

    def body():
        return helper() + engine()

    outer = tracer._wrap_function(body, "m.outer", "optimizers")
    tracer.set_sweep("s-1")
    assert outer() == 3
    names = {span.name: span for span in tracer.spans}
    assert set(names) == {"m.outer", "m.engine"}  # same-layer helper folded in
    assert names["m.engine"].parent is names["m.outer"]
    assert names["m.engine"].sweep == "s-1"


def test_generator_spans_close_between_items():
    tracer = Tracer()

    def produce():
        yield 1
        yield 2

    gen = tracer._wrap_generator(produce, "m.produce", "core.runtime")
    assert list(gen()) == [1, 2]
    segments = [s for s in tracer.spans if s.name == "m.produce"]
    assert len(segments) == 3  # two items and the final StopIteration
    assert [s.counted for s in segments] == [True, False, False]
    assert [s.call for s in segments] == [None, segments[0], segments[0]]


def test_generator_segments_share_their_children():
    first = _span("gen", 0.0, 2.0, layer="core.runtime")
    later = _span("gen", 5.0, 9.0, layer="core.runtime")
    later.call = first
    job = _span("job", 1.0, 8.0, first, layer="parallel", thread=2)
    # the job submitted in the first segment still runs through the later one
    assert self_times([first, later, job]) == pytest.approx([1.0, 1.0, 7.0])


def test_async_executor_jobs_carry_the_submitting_span():
    from repro.parallel.async_executor import AsyncExecutor

    tracer = Tracer()
    main_thread = threading.get_ident()
    original = AsyncExecutor.__dict__["submit"]
    with tracer:
        executor = AsyncExecutor(2)
        try:
            def submit_all():
                return [executor.submit(threading.get_ident) for _ in range(3)]

            traced_submit = tracer._wrap_function(submit_all, "t.submit", "api")
            futures = traced_submit()
            worker_threads = {f.result(timeout=30) for f in futures}
        finally:
            executor.close()
    assert main_thread not in worker_threads
    jobs = [s for s in tracer.spans if s.name.endswith("AsyncExecutor.job")]
    assert len(jobs) == 3
    assert all(job.parent is not None and job.parent.name == "t.submit" for job in jobs)
    assert all(job.attrs["wait"] >= 0.0 for job in jobs)
    assert AsyncExecutor.__dict__["submit"] is original  # uninstalled


# -- the percentile rule ---------------------------------------------------------


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(10) is None
    assert tail_percentile(20) == pytest.approx(0.5)
    assert tail_percentile(100) == pytest.approx(0.9)
    assert tail_percentile(120) == pytest.approx(1 - 10 / 120)
    assert reportable(0.9, 100)
    assert not reportable(0.9, 99)
    assert reportable(0.5, 20) and not reportable(0.5, 19)


def test_percentile_interpolates_between_order_statistics():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        percentile([], 0.5)


# -- the service plan --------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 17, 12345])
def test_plan_does_the_same_training_work_for_every_seed(seed):
    plan = service_plan(seed)
    reference = service_plan(0)
    assert Counter(r.spec for r in plan) == Counter(r.spec for r in reference)
    assert planned_trainings(plan) == planned_trainings(reference)
    assert len(plan) == len(SERVICE_TENANTS) * sum(c for _, _, c in SERVICE_MIX)


def test_tenants_submit_one_sequence_in_a_seeded_order():
    plan = service_plan(5)
    sequences = [[r.spec for r in plan if r.tenant == t] for t in SERVICE_TENANTS]
    assert all(sequence == sequences[0] for sequence in sequences)
    assert service_plan(5) == plan
    assert service_plan(6) != plan


def test_mix_keeps_both_percentiles_off_the_class_boundary():
    # each spec's first sweep trains while the other tenant's copy waits on
    # it: the slow share must leave p50 among the cache-served sweeps and
    # p90 among the slow ones
    plan = service_plan(0)
    slow = len(SERVICE_TENANTS) * len({r.spec for r in plan}) / len(plan)
    assert 0.15 <= slow <= 0.4


# -- the catalog -------------------------------------------------------------------


def test_benchmark_json_matches_the_catalog():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == [
        "sweep_cobyla", "sweep_adam", "service_tenants"
    ]


def test_runner_refuses_a_tree_without_the_package(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_adam",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
