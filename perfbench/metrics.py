"""The metric catalog and the per-layer numbers read off a trace.

:data:`END_TO_END` and :data:`PER_LAYER` are the single source of the
metric names, units and directions; ``BENCHMARK.json`` lists the same
entries (a harness test keeps the two in step).
"""

from __future__ import annotations

from collections.abc import Sequence

from perfbench.tracing import LAYERS, OPERATIONS, Span, self_times

__all__ = [
    "END_TO_END",
    "EXACT_COUNTS",
    "PER_LAYER",
    "distinct_trainings",
    "has_ancestor",
    "layer_metrics",
]

#: name -> (unit, better, bound): what a user of the system sees
#: The timing bounds are wide: on a shared 2-vCPU host, ten seeded runs
#: per workload spread by 0.03 to 0.11 (IQR over median) even after
#: normalisation (README.md).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "sweep_s": ("s", "lower", 0.25),
    "candidates_per_s": ("1/s", "higher", 0.25),
    "best_ratio": ("1", "higher", 0.1),
    "latency_s.p50": ("s", "lower", 0.25),
    "latency_s.p90": ("s", "lower", 0.25),
    "sweeps_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.1),
}

_COUNT = ("count", "lower")
_SECONDS = ("s", "lower")

#: name -> (unit, better): single layers, from the traced run
PER_LAYER: dict[str, tuple[str, str]] = {
    **{f"{layer}.self_s": _SECONDS for layer in LAYERS},
    "optimizers.calls": _COUNT,
    "optimizers.nfev": _COUNT,
    "simulators.energy.calls": _COUNT,
    "simulators.energy_s": _SECONDS,
    "simulators.gradients.calls": _COUNT,
    "simulators.gradients.rows": _COUNT,
    "simulators.gradients_s": _SECONDS,
    "simulators.energies.calls": _COUNT,
    "simulators.energies.rows": _COUNT,
    "simulators.energies_s": _SECONDS,
    "simulators.energies.training_share": ("1", "lower"),
    "simulators.compile.calls": _COUNT,
    "simulators.compile_s": _SECONDS,
    "core.qbuilder.calls": _COUNT,
    "core.qbuilder.busy_s": _SECONDS,
    "core.evaluator.calls": _COUNT,
    "core.evaluator.busy_s": _SECONDS,
    "core.runtime.jobs.retried": _COUNT,
    "core.runtime.jobs.failed": _COUNT,
    "core.cache.get.calls": _COUNT,
    "core.cache.get_s": _SECONDS,
    "core.cache.hits": ("count", "higher"),
    "core.cache.misses": _COUNT,
    "core.cache.lookups": ("count", "higher"),
    "core.cache.hit_ratio": ("1", "higher"),
    "core.cache.put.calls": _COUNT,
    "core.cache.flush_s": _SECONDS,
    "core.cache.claims_lost": _COUNT,
    "core.cache.wait_for_s": _SECONDS,
    "core.cache.duplicate_trainings": _COUNT,
    "parallel.executor.jobs": _COUNT,
    "parallel.executor.wait_s": _SECONDS,
    "parallel.executor.busy_s": _SECONDS,
    "service.submit_s": _SECONDS,
    "service.queue_wait_s": _SECONDS,
    "service.run_s": _SECONDS,
    "service.http.requests": _COUNT,
    "service.rejected": _COUNT,
    "service.queue.retries": _COUNT,
    "workloads.oracle_s": _SECONDS,
    "failed_share": ("1", "lower"),
    "trace.sweep_s": _SECONDS,
    "trace.untraced_sweep_s": _SECONDS,
    "trace.overhead_s": _SECONDS,
    "trace.coverage": ("1", "higher"),
    "trace.spans": _COUNT,
    "trace.count_mismatches": _COUNT,
    "trace.prediction_ok": ("1", "higher"),
}

#: the counts that must repeat exactly between two runs of one seed
EXACT_COUNTS = (
    "core.evaluator.calls",
    "optimizers.calls",
    "optimizers.nfev",
    "simulators.energy.calls",
    "simulators.gradients.calls",
    "simulators.gradients.rows",
    "simulators.energies.calls",
    "simulators.energies.rows",
    "simulators.compile.calls",
    "core.qbuilder.calls",
)

_OP_OF = {name: op for op, names in OPERATIONS.items() for name in names}


def has_ancestor(span: Span, match) -> bool:
    """Whether any span on ``span``'s parent chain satisfies ``match``."""
    parent = span.parent
    while parent is not None:
        if match(parent):
            return True
        parent = parent.parent
    return False


def layer_metrics(spans: Sequence[Span], units: int = 1) -> dict[str, float]:
    """Per-layer self times, busy times, and operation counts/seconds of
    ``spans``, divided by ``units`` (the sweeps or passes they cover).

    An operation counts once per outermost call: a span of an operation
    nested inside a span of the same operation (``compile_circuit`` inside
    ``compile_ansatz``) is part of the outer call. A layer's busy time is
    the summed duration of its outermost spans.
    """
    totals: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for span, own in zip(spans, self_times(spans)):
        totals[f"{span.layer}.self_s"] += own

    ops: dict[str, list[Span]] = {op: [] for op in OPERATIONS}
    busy: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    training_runs = nfev = 0
    for span in spans:
        op = _OP_OF.get(span.name)
        if op is not None and span.counted and not has_ancestor(
            span, lambda a, op=op: _OP_OF.get(a.name) == op
        ):
            ops[op].append(span)
        if not has_ancestor(span, lambda a, layer=span.layer: a.layer == layer):
            busy[span.layer] += span.duration
            if span.layer == "optimizers" and span.attrs and "nfev" in span.attrs:
                training_runs += 1
                nfev += span.attrs["nfev"]

    def seconds(op: str) -> float:
        return sum(s.duration for s in ops[op])

    def rows(op: str) -> int:
        return sum((s.attrs or {}).get("rows", 0) for s in ops[op])

    candidates = ops["core.evaluator.candidate"]
    totals.update({
        "optimizers.calls": training_runs,
        "optimizers.nfev": nfev,
        "simulators.energy.calls": len(ops["simulators.energy"]),
        "simulators.energy_s": seconds("simulators.energy"),
        "simulators.gradients.calls": len(ops["simulators.gradients"]),
        "simulators.gradients.rows": rows("simulators.gradients"),
        "simulators.gradients_s": seconds("simulators.gradients"),
        "simulators.energies.calls": len(ops["simulators.energies"]),
        "simulators.energies.rows": rows("simulators.energies"),
        "simulators.energies_s": seconds("simulators.energies"),
        "simulators.compile.calls": len(ops["simulators.compile"]),
        "simulators.compile_s": seconds("simulators.compile"),
        "core.qbuilder.calls": len(ops["core.qbuilder.build"]),
        "core.qbuilder.busy_s": busy["core.qbuilder"],
        "core.evaluator.calls": len(candidates),
        "core.evaluator.busy_s": busy["core.evaluator"],
        "core.runtime.jobs.failed": sum(
            1 for s in candidates if s.attrs and "error" in s.attrs
        ),
        "core.cache.get.calls": len(ops["core.cache.get"]),
        "core.cache.get_s": seconds("core.cache.get"),
        "core.cache.put.calls": len(ops["core.cache.put"]),
        "core.cache.flush_s": seconds("core.cache.flush"),
        "core.cache.claims_lost": sum(
            1 for s in ops["core.cache.claim"] if (s.attrs or {}).get("lost")
        ),
        "core.cache.wait_for_s": seconds("core.cache.wait_for"),
        "parallel.executor.jobs": len(ops["parallel.job"]),
        "parallel.executor.wait_s": sum(
            (s.attrs or {}).get("wait", 0.0) for s in ops["parallel.job"]
        ),
        "parallel.executor.busy_s": seconds("parallel.job"),
        "service.submit_s": seconds("service.submit"),
        "service.http.requests": len(ops["service.http"]),
        "workloads.oracle_s": seconds("workloads.oracle"),
        "trace.training_s": seconds("core.evaluator.candidate"),
        "trace.spans": len(spans),
    })
    scaled = {name: value / units for name, value in totals.items()}
    training = totals["trace.training_s"]
    scaled["simulators.energies.training_share"] = (
        totals["simulators.energies_s"] / training if training else 0.0
    )
    return scaled


def distinct_trainings(spans: Sequence[Span]) -> tuple[int, int]:
    """``(trainings, distinct keys)`` among the candidate-evaluation spans."""
    keys = [
        s.attrs["key"] for s in spans
        if s.name in OPERATIONS["core.evaluator.candidate"] and s.attrs
        and "key" in s.attrs
    ]
    return len(keys), len(set(keys))
