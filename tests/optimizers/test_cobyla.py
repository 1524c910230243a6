"""The in-repo COBYLA against SciPy's, point for point.

SciPy >= 1.16 runs PRIMA's COBYLA through its Python translation
(``scipy/_lib/pyprima``); ``repro.optimizers.cobyla`` transcribes the
unconstrained part of it. These tests pin the two together: the same
evaluated points in the same order (``array_equal``), the same exit status
and the same returned x, over synthetic, edge-case and QAOA objectives.
SciPy is only the oracle here; the package never imports it.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Config, resolve_workload, search
from repro.core.alphabet import GateAlphabet, enumerate_search_space
from repro.optimizers import Cobyla, ObjectiveTracer, OptimizeResult
from repro.optimizers.cobyla import _minimize
from repro.qaoa.ansatz import build_qaoa_ansatz
from repro.qaoa.energy import AnsatzEnergy

needs_pyprima = pytest.mark.skipif(
    importlib.util.find_spec("scipy") is None
    or importlib.util.find_spec("scipy._lib.pyprima") is None,
    reason="SciPy < 1.16 runs Powell's Fortran COBYLA, not PRIMA's; no oracle",
)


def _recorder(fn):
    points = []

    def record(x):
        points.append(np.array(x, copy=True))
        return float(fn(x))

    return points, record


def scipy_run(fn, x0, rhobeg, tol, maxiter):
    """(points, status, x) of ``scipy.optimize.minimize(method="COBYLA")``."""
    from scipy.optimize import minimize

    points, record = _recorder(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = minimize(
            record,
            np.asarray(x0, dtype=float),
            method="COBYLA",
            options={"maxiter": maxiter, "rhobeg": rhobeg, "tol": tol},
        )
    return points, int(result.status), np.asarray(result.x)


def port_run(fn, x0, rhobeg, tol, maxiter):
    """(points, status, x) of the in-repo transcription."""
    points, record = _recorder(fn)
    with np.errstate(all="ignore"):
        x, _, info = _minimize(record, np.asarray(x0, dtype=float), rhobeg, tol, maxiter)
    return points, info, np.asarray(x)


def assert_identical(fn, x0, rhobeg=0.5, tol=1e-6, maxiter=60):
    ref_points, ref_status, ref_x = scipy_run(fn, x0, rhobeg, tol, maxiter)
    points, status, x = port_run(fn, x0, rhobeg, tol, maxiter)
    assert len(points) == len(ref_points), (len(points), len(ref_points))
    for i, (ours, theirs) in enumerate(zip(points, ref_points)):
        assert np.array_equal(ours, theirs), f"evaluation {i}: {ours} != {theirs}"
    assert status == ref_status
    assert np.array_equal(x, ref_x)


# -- synthetic families --------------------------------------------------------


def rosenbrock(x):
    if x.size == 1:
        return (1.0 - x[0]) ** 2
    return float(np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2))


def quadratic(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + 0.1 * np.eye(n)
    b = rng.normal(size=n)
    return lambda x: float(x @ a @ x + b @ x)


def trig(x):
    return float(np.sum(np.sin(3.0 * x) + 0.1 * x * x) + np.prod(np.cos(x)))


OPTIONS = [(0.5, 1e-6), (1.0, 1e-4), (0.1, 1e-8)]


@needs_pyprima
@pytest.mark.parametrize("n", range(1, 11))
def test_synthetic_matches_scipy(n):
    rng = np.random.default_rng(100 + n)
    fn = (rosenbrock, quadratic(n, n), trig)[n % 3]
    budgets = [n + 2, 60, 200] + ([1000] if n == 1 else [])
    for i, budget in enumerate(budgets):
        rhobeg, tol = OPTIONS[(n + i) % len(OPTIONS)]
        assert_identical(fn, rng.normal(size=n), rhobeg, tol, budget)


# -- edge objectives -----------------------------------------------------------

_Q = quadratic(3, 3)

EDGE_OBJECTIVES = {
    "flat": lambda x: 1.0,
    "zero": lambda x: 0.0,
    "negative_zero": lambda x: -0.0 if _Q(x) < 1.0 else _Q(x),
    "nan_region": lambda x: float("nan") if x[0] > 0.3 else _Q(x),
    "inf_region": lambda x: float("inf") if float(x @ x) > 2.0 else _Q(x),
    "neg_inf_region": lambda x: float("-inf") if x[0] > 1.5 else _Q(x),
    "above_funcmax": lambda x: _Q(x) + 1e35,
    "scaled_1e40": lambda x: _Q(x) * 1e40,
    "scaled_1e13": lambda x: _Q(x) * 1e13,
    "scaled_1e-40": lambda x: _Q(x) * 1e-40,
    "floor_steps": lambda x: float(np.floor(_Q(x) * 10.0) / 10.0),
    "rounded_ties": lambda x: float(np.round(np.sum(np.abs(x)), 1)),
    "kink": lambda x: float(np.sum(np.abs(x - 0.3))),
    "unbounded_linear": lambda x: float(-np.sum(x)),
    "tiny_linear": lambda x: float(-1e-30 * np.sum(x)),
    "stretched_x": lambda x: _Q(x * 1e6),
}

#: rhobeg/tol pairs, including the ones PRIMA's preprocessing rewrites
EDGE_OPTIONS = [
    (1e-3, 1e-6), (0.01, 1e-6), (0.5, 1e-6), (1.0, 1e-3),
    (0.5, 0.5), (0.5, 2.0), (0.5, 0.0), (0.0, 1e-6),
]


@needs_pyprima
@pytest.mark.parametrize("name", sorted(EDGE_OBJECTIVES))
def test_edge_objectives_match_scipy(name):
    fn = EDGE_OBJECTIVES[name]
    rng = np.random.default_rng(sorted(EDGE_OBJECTIVES).index(name))
    for i in (0, 1):
        rhobeg, tol = EDGE_OPTIONS[(2 * sorted(EDGE_OBJECTIVES).index(name) + i) % 8]
        assert_identical(fn, rng.normal(size=3), rhobeg, tol, 50)


# -- QAOA objectives -----------------------------------------------------------


@pytest.fixture(scope="module")
def er3_graph():
    return resolve_workload("er:3")[0]


#: the facade's default candidate space (15 mixers)
CANDIDATES = enumerate_search_space(GateAlphabet(), 2, k_min=1, mode="combinations")


@needs_pyprima
@pytest.mark.parametrize("tokens", CANDIDATES, ids="+".join)
def test_qaoa_objectives_match_scipy(tokens, er3_graph):
    rng = np.random.default_rng(len(tokens) * 31 + sum(map(len, tokens)))
    for p in (1, 2, 3):
        negated = AnsatzEnergy(build_qaoa_ansatz(er3_graph, p, tokens)).negative_objective()
        assert_identical(negated, rng.uniform(-0.5, 0.5, 2 * p), 0.5, 1e-6, 40)


# -- property ------------------------------------------------------------------


@needs_pyprima
@settings(max_examples=15, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    rhobeg=st.floats(1e-3, 2.0),
)
def test_random_quadratics_match_scipy(n, seed, rhobeg):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n, n))
    a = m @ m.T + rng.uniform(0.0, 1.0) * np.eye(n)
    b = rng.normal(size=n)
    assert_identical(
        lambda x: float(x @ a @ x + b @ x), rng.normal(scale=2.0, size=n), rhobeg, 1e-6, 40
    )


# -- Cobyla on top of the transcription ----------------------------------------


def scipy_minimize(self, fn, x0):
    """The SciPy-backed ``Cobyla.minimize`` this module replaced."""
    from scipy.optimize import minimize

    tracer = ObjectiveTracer(fn)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = minimize(
            tracer,
            np.asarray(x0, dtype=float),
            method="COBYLA",
            options={"maxiter": self.maxiter, "rhobeg": self.rhobeg, "tol": self.tol},
        )
    best_x = tracer.best_x if tracer.best_x is not None else np.asarray(x0, float)
    return OptimizeResult(
        x=best_x,
        fun=tracer.best,
        nfev=tracer.nfev,
        nit=tracer.nfev,
        converged=bool(result.success),
        message=str(result.message),
        history=tracer.trace,
    )


@needs_pyprima
@pytest.mark.parametrize("maxiter", [4, 30, 200])
def test_cobyla_result_matches_scipy_backed_result(maxiter):
    fn = quadratic(2, 7)
    ours = Cobyla(maxiter=maxiter).minimize(fn, [0.4, -0.2])
    theirs = scipy_minimize(Cobyla(maxiter=maxiter), fn, [0.4, -0.2])
    assert np.array_equal(ours.x, theirs.x)
    assert ours.fun == theirs.fun
    assert (ours.nfev, ours.nit) == (theirs.nfev, theirs.nit)
    assert ours.history == theirs.history
    assert ours.converged == theirs.converged
    assert ours.message == theirs.message


@needs_pyprima
def test_search_is_identical_to_the_scipy_backed_search(monkeypatch):
    config = Config(steps=20)
    ours = search("er:2", depths=2, config=config)
    monkeypatch.setattr(Cobyla, "minimize", scipy_minimize)
    theirs = search("er:2", depths=2, config=config)
    for mine, ref in zip(ours.depth_results, theirs.depth_results, strict=True):
        for a, b in zip(mine.evaluations, ref.evaluations, strict=True):
            assert (a.tokens, a.p) == (b.tokens, b.p)
            assert (a.energy, a.ratio) == (b.energy, b.ratio)
            assert a.per_graph_energy == b.per_graph_energy
            assert a.per_graph_ratio == b.per_graph_ratio
            assert a.nfev == b.nfev
            assert a.best_params == b.best_params


# -- budget and imports --------------------------------------------------------


def test_budget_below_n_plus_2_is_rejected():
    with pytest.raises(ValueError, match=r"n \+ 2 = 6"):
        Cobyla(maxiter=5).minimize(lambda x: float(x @ x), np.zeros(4))
    result = Cobyla(maxiter=6).minimize(lambda x: float(x @ x), np.ones(4))
    assert result.nfev == 6


def test_non_finite_start_is_rejected():
    with pytest.raises(ValueError, match="finite"):
        Cobyla().minimize(lambda x: float(x @ x), [0.0, float("nan")])


def test_importing_the_package_does_not_import_scipy():
    src = Path(__file__).resolve().parents[2] / "src"
    code = "import sys, repro, repro.api, repro.cli; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"
