"""Ablation — the Evaluator's classical optimizer.

The paper trains every candidate with COBYLA (200 steps). This bench gives
each optimizer the same evaluation budget on the same p=1 training problem
and reports the trained approximation ratio and wall time — quantifying how
much the search's ranking signal depends on the optimizer choice, and what
gradient-based training (exact-gradient Adam) buys.
"""

from __future__ import annotations

import time

from repro.core.evaluator import EvaluationConfig, Evaluator
from repro.experiments.figures import render_table
from repro.experiments.records import ExperimentRecord
from repro.experiments.scale import get_scale
from repro.graphs.datasets import paper_er_dataset

OPTIMIZERS = ("cobyla", "nelder_mead", "spsa", "adam")


def bench_ablation_optimizers(once):
    scale = get_scale()
    graphs = paper_er_dataset(min(scale.num_graphs, 3))
    budget = scale.max_steps

    def run():
        rows = []
        for name in OPTIMIZERS:
            # Adam's budget is iterations of full gradients, each charged
            # at its parameter-shift-equivalent evaluation count (the
            # compiled engine's adjoint pass costs about three energies,
            # but the accounting keeps the shift-rule count); give it the
            # equivalent in *iterations* scaled down by that count so total
            # sims stay comparable.
            steps = max(3, budget // 10) if name == "adam" else budget
            config = EvaluationConfig(
                optimizer=name, max_steps=steps, restarts=1, seed=0
            )
            start = time.perf_counter()
            result = Evaluator(graphs, config).evaluate(("rx",), 1)
            elapsed = time.perf_counter() - start
            rows.append([name, result.ratio, result.nfev, elapsed])
        return rows

    rows = once(run)

    print("\n=== Ablation: optimizer -> trained p=1 ratio (same budget) ===")
    print(render_table(["optimizer", "ratio", "nfev", "seconds"], rows))

    ratios = {row[0]: row[1] for row in rows}
    # every optimizer must clear the untrained baseline (ratio of |+>^n,
    # which yields half the edges); the strong ones should be near-optimal
    for name, ratio in ratios.items():
        assert ratio > 0.55, f"{name} failed to train at all"
    assert max(ratios.values()) > 0.75

    ExperimentRecord(
        experiment="ablation_optimizers",
        paper_claim="COBYLA/200 is the training procedure; alternatives trade robustness vs cost",
        parameters={"budget": budget, "graphs": len(graphs)},
        measured={"rows": [[r[0], float(r[1]), int(r[2]), float(r[3])] for r in rows]},
        verdict=f"best optimizer this run: {max(ratios, key=ratios.get)}",
    ).save()
