"""Warm-started depth sweeps and noise-aware candidate scoring.

Two evaluator extensions a production search needs:

* :func:`warm_started_sweep` — train one mixer at p = 1..p_max where each
  depth starts from the INTERP lift of the previous depth's optimum (Zhou
  et al. 2020). Energies are then monotone in p by construction of the
  warm start, which the plain per-depth random-restart protocol cannot
  guarantee. With ``restarts > 1`` the warm start seeds the *first* row of
  a restart population and the remaining rows are random ramps, all
  trained as one batch by :class:`~repro.optimizers.MultiRestart` — a
  batch-native optimizer then evaluates every restart's per-step proposals
  in a single vectorized energy call.
* :func:`noisy_score` — re-score a *trained* candidate under a Kraus noise
  model with the exact density-matrix engine. Short mixers lose less energy
  to noise, so this is the metric under which the paper's "lower resource
  usage" argument (§3.2) becomes quantitative.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.qbuilder import QBuilder
from repro.graphs.generators import Graph
from repro.optimizers import MultiRestart, Optimizer, training_optimizer
from repro.qaoa.energy import AnsatzEnergy
from repro.qaoa.initialization import interp_init, ramp_init
from repro.simulators.expectation import cut_values
from repro.simulators.noise import DensityMatrixSimulator, NoiseModel
from repro.utils.rng import as_rng, stable_seed
from repro.utils.validation import check_positive

__all__ = ["DepthPoint", "noisy_score", "warm_started_sweep"]


@dataclass(frozen=True)
class DepthPoint:
    """One depth of a warm-started sweep."""

    p: int
    energy: float
    params: tuple[float, ...]
    nfev: int


def _sweep_optimizer(name: str, max_steps: int, seed: int) -> Optimizer:
    """Shared budget rules via :func:`repro.optimizers.training_optimizer`;
    the sweep builds its optimizer once for all depths, so the
    per-objective gradient closures adam needs are not available here."""
    if name not in ("cobyla", "nelder_mead", "spsa"):
        raise ValueError(
            f"unknown sweep optimizer {name!r}; options: cobyla, nelder_mead, spsa"
        )
    return training_optimizer(name, max_steps=max_steps, seed=seed)


def warm_started_sweep(
    graph: Graph,
    tokens: Sequence[str],
    p_max: int,
    *,
    max_steps: int = 200,
    seed: int = 0,
    builder: QBuilder | None = None,
    restarts: int = 1,
    optimizer: str = "cobyla",
) -> list[DepthPoint]:
    """Train ``tokens`` at p = 1..p_max with INTERP warm starts.

    Depth 1 starts from a ramp; depth p+1 starts from the INTERP lift of
    depth p's optimum and additionally keeps the lifted point itself as a
    fallback, so the reported energy never decreases with depth (up to
    optimizer wobble, which the fallback absorbs). ``restarts`` widens each
    depth into a population whose first row is the warm start (the other
    rows are jittered ramps), trained as one batch when ``optimizer`` is
    batch-native (``"spsa"``/``"nelder_mead"``).
    """
    check_positive(p_max, "p_max")
    check_positive(restarts, "restarts")
    builder = builder or QBuilder()
    tokens = tuple(tokens)
    points: list[DepthPoint] = []
    previous: np.ndarray | None = None
    meta = MultiRestart(_sweep_optimizer(optimizer, max_steps, seed))
    for p in range(1, p_max + 1):
        ansatz = builder.build_qaoa(graph, tokens, p)
        energy = AnsatzEnergy(ansatz)
        if previous is None:
            rng = as_rng(stable_seed(seed, "sweep", p, *tokens))
            x0 = ramp_init(p, rng=rng, jitter=0.05)
        else:
            x0 = interp_init(previous)
        # The warm start seeds restart 0; extra restarts draw fresh ramps.
        population = [np.asarray(x0, dtype=float)]
        for restart in range(1, restarts):
            rng = as_rng(stable_seed(seed, "sweep", p, restart, *tokens))
            population.append(ramp_init(p, rng=rng, jitter=0.05))
        negated = energy.negative_objective()
        result = meta.minimize_population(
            negated, np.stack(population), batch_fn=negated.values
        )
        best_x, best_e, nfev = result.x, -result.fun, result.nfev
        # warm-start fallback: the lifted previous optimum is feasible at
        # depth p, so depth p can never report worse than depth p-1
        if previous is not None:
            lifted_energy = energy.value(x0)
            if lifted_energy > best_e:
                best_x, best_e = x0, lifted_energy
        points.append(DepthPoint(p, float(best_e), tuple(best_x), nfev))
        previous = np.asarray(best_x)
    return points


def noisy_score(
    graph: Graph,
    tokens: Sequence[str],
    p: int,
    params: Sequence[float],
    noise_model: NoiseModel,
    *,
    builder: QBuilder | None = None,
) -> float:
    """``<C>`` of the trained candidate under ``noise_model`` (exact
    density-matrix evolution; cost ``4^n``, fine for the 10-node datasets).
    """
    builder = builder or QBuilder()
    ansatz = builder.build_qaoa(graph, tuple(tokens), p)
    bound = ansatz.bind(list(params))
    rho = DensityMatrixSimulator(noise_model).run(bound)
    return DensityMatrixSimulator.expectation(rho, cut_values(graph))
