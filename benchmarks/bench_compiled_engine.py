"""Compiled engine vs dense statevector on the paper's training workload.

Not a paper figure: this bench guards the tentpole perf claim of the
compiled evaluation engine. The workload is the acceptance scenario — a
10-qubit ER graph, the winning ``('rx', 'ry')`` mixer at depth p=4, and a
200-step COBYLA training run (the Evaluator's §2.1 inner loop) — timed
per energy call and end-to-end per training, once per engine. The claim:
``engine="compiled"`` evaluates the identical objective (equivalence is
pinned to 1e-10 by tests/simulators/test_compiled.py) at least 5x faster
than ``engine="statevector"``.

The compiled engine is additionally timed **per array backend** (every
name in :func:`repro.simulators.backends.available_array_backends`):
``numpy`` is the gated default, ``mock_gpu`` pins the dispatch seam's
equivalence and overhead on CPU-only CI, and when a ``cupy`` install
registers itself its row appears with no bench change — the per-backend
axis ``BENCH_evaluator.json`` tracks GPU trajectories on. Only the
default numpy backend is speed-gated; the mock backend *models* device
cost, so its wall-clock is meaningless by design.

Runs standalone (``python benchmarks/bench_compiled_engine.py``) or under
pytest-benchmark via the shared ``once`` fixture. The workload is pinned
at paper scale regardless of ``QARCH_BENCH_SCALE`` — it is a single
candidate, cheap enough for CI — so the committed numbers stay comparable
across machines.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import (
    measure_array_backends,
    paper_probe_workload,
    seconds_per_eval,
)
from repro.qaoa.energy import AnsatzEnergy

MAX_STEPS = 200
TIMED_EVALS = 200
MIN_SPEEDUP = 5.0
#: end-to-end floor: a 200-step training also pays COBYLA's own
#: trust-region linear algebra (~0.2ms/step with the package's PRIMA
#: transcription, ~1.3ms/step on SciPy's; engine-independent), which
#: bounds the best possible end-to-end ratio below the per-eval one — and
#: on a throttled shared CI runner that fixed share grows, so the gate is
#: deliberately loose (measured on an idle box: ~5.5x with SciPy's COBYLA,
#: ~14x with the package's)
MIN_TRAIN_SPEEDUP = 2.0


def _per_eval_seconds(energy: AnsatzEnergy, x: np.ndarray) -> float:
    return seconds_per_eval(energy, x, TIMED_EVALS)


def run_bench() -> dict:
    graph, ansatz, x = paper_probe_workload()

    # Fixed-x equivalence gate: identical objective or the timing is moot.
    # (Trained *endpoints* may drift ~1e-2 between engines — COBYLA's
    # accept/reject path amplifies last-bit differences — so the pin
    # belongs here, not on the training result.)
    reference = {
        engine: AnsatzEnergy(ansatz, engine=engine).value(x)
        for engine in ("statevector", "compiled")
    }
    drift = abs(reference["compiled"] - reference["statevector"])
    assert drift < 1e-10, (
        f"engines disagree at fixed parameters (|delta|={drift:.3g}) — "
        "equivalence broken, timing is meaningless"
    )

    measured: dict = {}
    for engine in ("statevector", "compiled"):
        eval_seconds = _per_eval_seconds(AnsatzEnergy(ansatz, engine=engine), x)
        config = EvaluationConfig(max_steps=MAX_STEPS, seed=0, engine=engine)
        start = time.perf_counter()
        evaluation = Evaluator([graph], config).evaluate(ansatz.mixer_tokens, ansatz.p)
        train_seconds = time.perf_counter() - start
        measured[engine] = {
            "seconds_per_eval": eval_seconds,
            "evals_per_sec": 1.0 / eval_seconds,
            "train_seconds": train_seconds,
            "train_nfev": evaluation.nfev,
            "energy": evaluation.energy,
        }

    eval_speedup = (
        measured["statevector"]["seconds_per_eval"]
        / measured["compiled"]["seconds_per_eval"]
    )
    train_speedup = (
        measured["statevector"]["train_seconds"]
        / measured["compiled"]["train_seconds"]
    )

    # Per-array-backend axis (the GPU trajectory): shared harness asserts
    # every registered backend reproduces the probe energy to 1e-10.
    array_backends = measure_array_backends(ansatz, x, TIMED_EVALS)

    print("\n=== Compiled engine vs statevector (10 qubits, p=4, rx-ry) ===")
    for engine, row in measured.items():
        print(
            f"{engine:>12}: {row['seconds_per_eval'] * 1e6:8.0f} us/eval "
            f"({row['evals_per_sec']:8.0f} evals/s)  "
            f"200-step COBYLA train: {row['train_seconds']:6.2f}s"
        )
    print(f"per-eval speedup: {eval_speedup:.1f}x   train speedup: {train_speedup:.1f}x")
    for name, row in array_backends.items():
        extra = ""
        device_seconds = row["stats"].get("device_seconds")
        if device_seconds:
            extra = f"  (modeled device: {device_seconds * 1e3:.1f} ms total)"
        print(
            f"  compiled[{name}]: {row['seconds_per_eval'] * 1e6:8.0f} us/eval"
            f"{extra}"
        )

    assert eval_speedup >= MIN_SPEEDUP, (
        f"compiled engine only {eval_speedup:.1f}x faster per evaluation "
        f"(required: {MIN_SPEEDUP:.0f}x)"
    )
    assert train_speedup >= MIN_TRAIN_SPEEDUP, (
        f"compiled engine only {train_speedup:.1f}x faster per training "
        f"(required: {MIN_TRAIN_SPEEDUP:.0f}x)"
    )

    ExperimentRecord(
        experiment="compiled_engine",
        paper_claim=(
            "the Evaluator inner loop dominates search cost; compiling the "
            "candidate once makes every COBYLA step >=5x cheaper"
        ),
        parameters={
            "num_nodes": graph.num_nodes,
            "p": ansatz.p,
            "tokens": list(ansatz.mixer_tokens),
            "max_steps": MAX_STEPS,
            "timed_evals": TIMED_EVALS,
        },
        measured={
            "engines": measured,
            "array_backends": array_backends,
            "eval_speedup": eval_speedup,
            "train_speedup": train_speedup,
        },
        verdict=(
            f"compiled engine is {eval_speedup:.1f}x faster per evaluation "
            f"and {train_speedup:.1f}x per 200-step training"
        ),
    ).save()
    return {"eval_speedup": eval_speedup, "train_speedup": train_speedup}


def bench_compiled_engine(once):
    once(run_bench)


if __name__ == "__main__":
    run_bench()
