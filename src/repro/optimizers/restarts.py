"""Multi-restart meta-optimization: K seeds trained as one batch.

Independent restarts are the standard defence against bad initial angles
in variational training (the Evaluator's ``restarts`` knob), but running
them one after another leaves the compiled engine's batched evaluation on
the floor: every restart is the *same* objective, so their per-step
proposals can ride one :meth:`~repro.simulators.compiled.CompiledProgram.energies`
call. :class:`MultiRestart` wraps any :class:`~repro.optimizers.base.Optimizer`
and trains a whole population of start points through the base's
:meth:`~repro.optimizers.base.Optimizer.minimize_batch` — in lockstep when
the base optimizer is batch-native, through the base class's per-row
:meth:`~repro.optimizers.base.Optimizer.minimize` fallback otherwise
(COBYLA) — then returns the best result with population-wide ``nfev``
accounting.

The lockstep path is pinned to the per-row ``minimize`` loop point for
point (property tests in ``tests/optimizers/test_batched.py``), and the
batched population is exactly the wide ``energies(X)`` call that a device
array backend (:mod:`repro.simulators.backends`) accelerates — K
restarts' probes ride one kernel launch instead of K.

.. seealso::

   :class:`~repro.optimizers.base.BatchObjective`
       the protocol (``values(X)``, ``value_and_gradient``) a batchable
       objective implements; :class:`~repro.qaoa.energy.NegatedEnergy`
       is the production instance.
   ``benchmarks/bench_batched_optimizers.py``
       the CI gate: >=3x multi-restart SPSA at K=8 against the per-row
       ``minimize`` loop.
   ``docs/architecture.md``
       the evaluator layer this meta-optimizer lives in.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.optimizers.base import BatchFn, Objective, Optimizer, OptimizeResult

__all__ = ["MultiRestart"]


class MultiRestart(Optimizer):
    """Train every row of a start-point population, return the best.

    The population result keeps the winning restart's ``x``/``fun``/
    ``history`` but sums ``nfev`` over all restarts (the total points the
    objective paid for) and exposes the per-restart results via
    ``sub_results``.
    """

    name = "multi_restart"

    def __init__(self, base: Optimizer) -> None:
        self.base = base

    @property
    def supports_batch(self) -> bool:  # type: ignore[override]
        return self.base.supports_batch

    def minimize_population(
        self,
        fn: Objective,
        X0: np.ndarray,
        batch_fn: BatchFn | None = None,
    ) -> OptimizeResult:
        """Minimize from every row of ``X0``; aggregate to the best."""
        X0 = np.atleast_2d(np.asarray(X0, dtype=float))
        if X0.shape[0] == 0:
            raise ValueError("restart population is empty")
        results = self.base.minimize_batch(fn, X0, batch_fn=batch_fn)
        best = min(results, key=lambda r: r.fun)
        return OptimizeResult(
            x=best.x,
            fun=best.fun,
            nfev=sum(r.nfev for r in results),
            nit=max(r.nit for r in results),
            converged=best.converged,
            message=(
                f"best of {len(results)} restart(s): {best.message}"
            ),
            history=best.history,
            sub_results=results,
        )

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        """A single-seed population (satisfies the Optimizer interface)."""
        return self.minimize_population(fn, np.atleast_2d(np.asarray(x0, float)))

    def minimize_batch(
        self,
        fn: Objective,
        X0: np.ndarray,
        batch_fn: BatchFn | None = None,
    ) -> list[OptimizeResult]:
        """Delegate to the base optimizer (population-per-row semantics
        collapse to the base's own batch behaviour)."""
        return self.base.minimize_batch(fn, X0, batch_fn=batch_fn)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MultiRestart({self.base!r})"
