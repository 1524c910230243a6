# COBYLA below is a transcription, restricted to unconstrained problems, of
# the COBYLA solver in PRIMA (https://www.libprima.net), Zaikun Zhang's
# modern-Fortran reference implementation of M. J. D. Powell's methods, by
# way of its Python translation by Nickolai Belakovski that SciPy ships as
# ``scipy/_lib/pyprima``. That translation is distributed with SciPy under
# the following notice:
#
#     Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
#     All rights reserved.
#
#     Redistribution and use in source and binary forms, with or without
#     modification, are permitted provided that the following conditions
#     are met:
#
#     1. Redistributions of source code must retain the above copyright
#        notice, this list of conditions and the following disclaimer.
#
#     2. Redistributions in binary form must reproduce the above
#        copyright notice, this list of conditions and the following
#        disclaimer in the documentation and/or other materials provided
#        with the distribution.
#
#     3. Neither the name of the copyright holder nor the names of its
#        contributors may be used to endorse or promote products derived
#        from this software without specific prior written permission.
#
#     THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
#     "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
#     LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
#     A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
#     OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
#     SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
#     LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
#     DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
#     THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
#     (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
#     OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""COBYLA — the optimizer the paper trains every candidate with.

§2.1: "run the variational algorithm for 200 steps with the COBYLA
optimizer." This module carries its own COBYLA: PRIMA's algorithm
(Zhang's modernisation of Powell's linear-approximation trust-region
method), transcribed for the unconstrained problems the training loop
poses, so the package needs only NumPy at run time.

What is transcribed: the option preprocessing (``rhoend`` from ``tol``, the
eta/gamma defaults), the initial simplex, ``updatepole`` with ``findpole``'s
first-index tie rule, ``updatexfc`` with its inverse check, ``setdrop_tr``,
``geostep``, ``trrad``, ``redrat`` and ``redrho``, the near-duplicate skip,
the final short-step evaluation, the moderated extreme barrier (NaN and
``+inf`` objective values become ``FUNCMAX``), and the returned-x rule.
Every floating-point result comes from the same NumPy operation PRIMA's
Python translation uses, in the same order.

What is left out, because it is dead without constraints: the penalty
update ``getcpen`` (the predicted constraint reduction is always 0, so the
penalty stays at its floor and the merit function is the objective), the
constraint rows and violations, stage 1 of the trust-region LP ``trstlp``
(stage 2 collapses to one pass: Givens-reduce the gradient, step to the
trust-region boundary), and PRIMA's history, filter arrays, messages and
debugging asserts.

The identity pin: for every objective, start point and option set the
tests try (``tests/optimizers/test_cobyla.py``), this module evaluates the
objective at the same points, in the same order and bit for bit, as
``scipy.optimize.minimize(method="COBYLA")`` of SciPy >= 1.16, and exits
with the same status and returned x. So trained energies, ``nfev`` and best
parameters do not depend on the installed SciPy (before 1.16 SciPy ran
Powell's Fortran code, whose iterates differ). One departure: PRIMA's
``updatexfc`` returns its tuple in the wrong order when no vertex is
dropped; here the simplex is left unchanged in that case.

The budget rule: COBYLA needs ``n + 2`` evaluations to build and test its
first simplex, so :meth:`Cobyla.minimize` rejects ``maxiter < n + 2``
instead of silently spending more than the configured budget.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.optimizers.base import Objective, ObjectiveTracer, Optimizer, OptimizeResult

__all__ = ["Cobyla"]

_EPS = float(np.finfo(float).eps)
_REALMAX = float(np.finfo(float).max)
_REALMIN = float(np.finfo(float).tiny)
#: the moderated extreme barrier: NaN and anything above become this
_FUNCMAX = 1e30

# PRIMA's exit codes (those an unconstrained run can reach).
_SMALL_TR_RADIUS = 0
_MAXFUN_REACHED = 3
_MAXTR_REACHED = 20
_NAN_INF_X = -1
_NAN_INF_F = -2
_DAMAGING_ROUNDING = 7
_REASONS = {
    _SMALL_TR_RADIUS: "the trust region radius reaches its lower bound.",
    _MAXFUN_REACHED: "the objective function has been evaluated MAXFUN times.",
    _MAXTR_REACHED: "the maximal number of trust region iterations has been reached.",
    _NAN_INF_X: "NaN or Inf occurs in x.",
    _NAN_INF_F: "the objective function returns NaN/+Inf.",
    _DAMAGING_ROUNDING: "rounding errors are becoming damaging.",
}

# PRIMA's trust-region parameters at their defaults.
_ETA1 = 0.1
_ETA2 = (_ETA1 + 2) / 3
_GAMMA1 = 0.5
_GAMMA2 = 2
_GAMMA3 = 1.5  # max(1, min(0.75 * GAMMA2, 1.5))


class Cobyla(Optimizer):
    """COBYLA with the paper's 200-evaluation default budget."""

    name = "cobyla"

    def __init__(self, maxiter: int = 200, rhobeg: float = 0.5, tol: float = 1e-6) -> None:
        self.maxiter = int(maxiter)
        self.rhobeg = float(rhobeg)
        self.tol = float(tol)

    def minimize(self, fn: Objective, x0: Sequence[float]) -> OptimizeResult:
        x0 = np.array(x0, dtype=float, ndmin=1)
        if x0.ndim != 1 or x0.size == 0:
            raise ValueError(f"x0 must be a non-empty vector, got shape {x0.shape}")
        if not np.isfinite(x0).all():
            raise ValueError("x0 must be finite")
        n = x0.size
        if self.maxiter < n + 2:
            raise ValueError(
                f"COBYLA needs maxiter >= n + 2 = {n + 2} evaluations for "
                f"{n} parameters (its first simplex and one step), got {self.maxiter}"
            )
        tracer = ObjectiveTracer(fn)
        _, _, info = _minimize(tracer, x0, self.rhobeg, self.tol, self.maxiter)
        # Report the best point as evaluated, not PRIMA's returned x, which
        # rebuilds initial vertices from the simplex and breaks their ties
        # in column order.
        best_x = tracer.best_x if tracer.best_x is not None else x0
        return OptimizeResult(
            x=best_x,
            fun=tracer.best,
            nfev=tracer.nfev,
            nit=tracer.nfev,
            converged=info == _SMALL_TR_RADIUS,
            message=f"Return from COBYLA because {_REASONS[info]}",
            history=tracer.trace,
        )


def _minimize(fun, x0: np.ndarray, rhobeg: float, tol: float, maxfun: int):
    """Minimize ``fun`` from the finite vector ``x0``; ``(x, f, info)``.

    ``x``/``f`` follow PRIMA's returned-x rule (the first evaluated point,
    in filter order, whose value no later point beat strictly) and
    ``info`` is PRIMA's exit code. ``maxfun >= len(x0) + 2``.
    """
    n = x0.size
    rhobeg, rhoend = _preprocess_radii(rhobeg, tol)
    last = [None, 0.0]  # the last point sent to ``fun`` and its raw value

    def evaluate(x: np.ndarray):
        # PRIMA's evaluate: a NaN point is not sent (its "value" is NaN);
        # +-inf entries are sent as +-REALMAX (a finite x is sent as is,
        # since clipping it changes no bit).
        if not np.isfinite(x).all():
            if np.isnan(x).any():
                return np.sum(x)
            x = np.clip(x, -_REALMAX, _REALMAX)
        # SciPy's ScalarFunction caches the last point: a repeat is not
        # re-evaluated.
        if last[0] is None or not (x == last[0]).all():
            last[0] = x
            last[1] = fun(x.copy())
        return _moderatef(last[1])

    # The filter behind PRIMA's returned x holds one point without
    # constraints: the first strictly best, initial vertices in column order.
    best = [None, 0.0]

    def savefilt(f, x):
        if best[0] is None or f < best[1]:
            best[0], best[1] = x, f

    # -- the initial simplex (PRIMA's initxfc and initfilt) -----------------
    f0 = evaluate(x0)
    sim = np.eye(n, n + 1) * rhobeg
    sim[:, n] = x0
    simi = np.eye(n) / rhobeg
    fval = np.zeros(n + 1) + _REALMAX
    info = None
    for k in range(n + 1):  # vertex n (x0) first, then vertices 0..n-1
        x = sim[:, n].copy()
        j = k - 1 if k else n
        if k:
            x[j] += rhobeg
        fval[j] = evaluate(x) if k else f0
        info = _checkbreak(maxfun, k, fval[j], x)
        if info is not None:
            break
        if j < n and fval[j] < fval[n]:
            fval[j], fval[n] = fval[n], fval[j]
            sim[:, n] = x
            sim[j, : j + 1] = -rhobeg
    nf = k + 1
    if nf == n + 1:
        simi = np.linalg.inv(sim[:, :n])
    for i in range(nf - 1):
        savefilt(fval[i], sim[:, i] + sim[:, n])
    savefilt(fval[n], sim[:, n].copy())
    if info is not None:
        return best[0], best[1], info

    # -- trust-region iterations (PRIMA's cobylb) -----------------------------
    eye = np.eye(n)
    distsq = np.zeros(n + 1)

    def trial(x):
        """f at ``x``: a vertex's value when ``x`` is within
        ``1e-4 * rhoend`` of it, else a fresh (counted, filtered) one."""
        nonlocal nf
        step = x - sim[:, n]
        distsq[n] = np.add.reduce(step * step)
        diff = x.reshape(n, 1) - (sim[:, n].reshape(n, 1) + sim[:, :n])
        distsq[:n] = np.add.reduce(diff * diff, axis=0)
        j = distsq.argmin()
        if distsq[j] <= (1e-4 * rhoend) * (1e-4 * rhoend):
            return fval[j]
        f = evaluate(x)
        nf += 1
        savefilt(f, x)
        return f

    rho = delta = rhobeg
    shortd = False
    ratio = -1
    jdrop_tr = 0
    d = np.zeros(n)
    info = _MAXTR_REACHED
    for _ in range(10 * maxfun):
        sim, simi, info_pole = _updatepole(fval, sim, simi, eye)
        if info_pole is not None:
            info = info_pole
            break
        adequate_geo = (_column_sq_norms(sim) <= 4 * (delta * delta)).all()

        g = (fval[:n] - fval[n]) @ simi
        d = _trstlp(g, delta)
        dnorm = min(delta, math.sqrt(d.dot(d)))
        shortd = dnorm <= 0.1 * rho
        preref = -np.dot(d, g)  # the merit function's predicted reduction
        trfail = not (preref > 1.0e-6 * _EPS * rho)
        if shortd or trfail:
            delta *= 0.1
            if delta <= _GAMMA3 * rho:
                delta = rho
        else:
            x = sim[:, n] + d
            f = trial(x)
            actrem = fval[n] - f
            ratio = _redrat(actrem, preref, _ETA1)
            delta = _trrad(delta, dnorm, ratio)
            if delta <= _GAMMA3 * rho:
                delta = rho
            jdrop_tr = _setdrop_tr(actrem > 0, d, delta, rho, sim, simi)
            sim, simi, info_step = _updatexfc(jdrop_tr, d, f, fval, sim, simi, eye)
            if info_step is None:
                info_step = _checkbreak(maxfun, nf, f, x)
            if info_step is not None:
                info = info_step
                break

        bad_trstep = shortd or trfail or ratio <= 0 or jdrop_tr is None
        improve_geo = bad_trstep and not adequate_geo
        reduce_rho = bad_trstep and adequate_geo and max(delta, dnorm) <= rho

        if improve_geo and not (_column_sq_norms(sim) <= 4 * (delta * delta)).all():
            jdrop_geo = np.argmax(_column_sq_norms(sim), axis=0)
            d = _geostep(jdrop_geo, delta / 2, fval, simi)
            x = sim[:, n] + d
            f = trial(x)
            sim, simi, info_step = _updatexfc(jdrop_geo, d, f, fval, sim, simi, eye)
            if info_step is None:
                info_step = _checkbreak(maxfun, nf, f, x)
            if info_step is not None:
                info = info_step
                break

        if reduce_rho:
            if rho <= rhoend:
                info = _SMALL_TR_RADIUS
                break
            delta = max(0.5 * rho, _redrho(rho, rhoend))
            rho = _redrho(rho, rhoend)
            sim, simi, info_pole = _updatepole(fval, sim, simi, eye)
            if info_pole is not None:
                info = info_pole
                break

    # Try the last trust-region step if it was too short to be tried.
    x = sim[:, n] + d
    if (
        info == _SMALL_TR_RADIUS
        and shortd
        and np.linalg.norm(x - sim[:, n]) > 1.0e-3 * rhoend
        and nf < maxfun
    ):
        savefilt(evaluate(x), x)
    return best[0], best[1], info


def _preprocess_radii(rhobeg: float, rhoend: float) -> tuple[float, float]:
    """PRIMA's ``preproc`` for the two radii (``rhoend`` is SciPy's ``tol``)."""
    if abs(rhobeg - rhoend) < 1.0e2 * _EPS * max(abs(rhobeg), 1):
        rhoend = rhobeg
    if rhobeg <= 0 or not math.isfinite(rhobeg):
        rhobeg = max(10 * rhoend, 1) if math.isfinite(rhoend) and rhoend > 0 else 1
    if rhoend <= 0 or rhobeg < rhoend or not math.isfinite(rhoend):
        rhoend = max(_EPS, min(0.1 * rhobeg, 1e-6))
    return rhobeg, rhoend


def _moderatef(f):
    """PRIMA's moderatef: NaN and values above ``FUNCMAX`` become
    ``FUNCMAX``; values below ``-REALMAX`` become ``-REALMAX``."""
    if f != f or f > _FUNCMAX:
        return _FUNCMAX
    return -_REALMAX if f < -_REALMAX else f


def _checkbreak(maxfun: int, nf: int, f, x: np.ndarray):
    """PRIMA's checkbreak_con without constraints; None means go on."""
    info = None
    if not np.isfinite(x).all():
        info = _NAN_INF_X
    if math.isnan(f) or f == math.inf:
        info = _NAN_INF_F
    if nf >= maxfun:
        info = _MAXFUN_REACHED
    return info


def _column_sq_norms(sim):
    """Squared lengths of the simplex edges ``sim[:, :n]``."""
    n = sim.shape[0]
    edges = sim[:, :n] * sim[:, :n]
    return np.add.reduce(edges, axis=0)


def _inverse_error(simi, sim, eye):
    n = simi.shape[0]
    return np.maximum.reduce(np.abs(simi @ sim[:, :n] - eye), axis=None)


def _checked_inverse(simi, sim, eye):
    """PRIMA's inverse check: ``(simi, erri)``, falling back to a fresh
    inverse when the updated one has drifted."""
    n = simi.shape[0]
    erri = _inverse_error(simi, sim, eye)
    if erri > 0.1 or np.isnan(erri):
        simi_test = np.linalg.inv(sim[:, :n])
        erri_test = _inverse_error(simi_test, sim, eye)
        if erri_test < erri or (np.isnan(erri) and not np.isnan(erri_test)):
            simi = simi_test
            erri = erri_test
    return simi, erri


def _updatepole(fval, sim, simi, eye):
    """Move the best vertex (first index on ties) to the pole column.

    ``fval`` is updated in place; ``(sim, simi, info)``. On damaging
    rounding the caller stops, so the simplex is not restored.
    """
    n = sim.shape[0]
    values = fval.tolist()
    phimin = min(values)
    jopt = n
    if phimin < values[n]:
        jopt = next(j for j, v in enumerate(values) if not v > phimin)
    if jopt < n:
        sim[:, n] += sim[:, jopt]
        sim_jopt = sim[:, jopt].copy()
        sim[:, jopt] = 0
        sim[:, :n] -= sim_jopt[:, None]
        simi[jopt, :] = -np.add.reduce(simi, axis=0)
    simi, erri = _checked_inverse(simi, sim, eye)
    if not erri <= 1:
        return sim, simi, _DAMAGING_ROUNDING
    if jopt < n:
        fval[jopt], fval[n] = fval[n], fval[jopt]
    return sim, simi, None


def _updatexfc(jdrop, d, f, fval, sim, simi, eye):
    """Replace vertex ``jdrop`` with pole + ``d`` (value ``f``), then
    re-pick the pole; ``(sim, simi, info)``."""
    n = sim.shape[0]
    if jdrop is None:
        return sim, simi, None
    if jdrop < n:
        sim[:, jdrop] = d
        simi_jdrop = simi[jdrop, :] / np.dot(simi[jdrop, :], d)
        simi -= np.outer(simi @ d, simi_jdrop)
        simi[jdrop, :] = simi_jdrop
    else:
        sim[:, n] += d
        sim[:, :n] -= d[:, None]
        simid = simi @ d
        sum_simi = np.add.reduce(simi, axis=0)
        simi += np.outer(simid, sum_simi / (1 - sum(simid.tolist())))
    simi, erri = _checked_inverse(simi, sim, eye)
    if not erri <= 1:
        return sim, simi, _DAMAGING_ROUNDING
    fval[jdrop] = f
    return _updatepole(fval, sim, simi, eye)


def _setdrop_tr(ximproved, d, delta, rho, sim, simi):
    """The vertex to swap for the trust-region point (None: keep all)."""
    n = sim.shape[0]
    distsq = np.zeros(n + 1)
    if ximproved:
        diff = sim[:, :n] - d[:, None]
        distsq[:n] = np.add.reduce(diff * diff, axis=0)
        distsq[n] = np.add.reduce(d * d)
    else:
        distsq[:n] = _column_sq_norms(sim)
    scale = max(rho, delta / 10)
    weight = np.maximum(1, distsq / (scale * scale))
    simid = simi @ d
    score = np.empty(n + 1)
    score[:n] = simid
    score[n] = 1 - np.add.reduce(simid)
    score = weight * np.abs(score)
    if not ximproved:
        score[n] = -1
    score[np.isnan(score)] = -1
    jdrop = None
    if (score > 0).any():
        jdrop = score.argmax()
    if ximproved and jdrop is None:
        jdrop = distsq.argmax()
    return jdrop


def _geostep(jdrop, delbar, fval, simi):
    """A step of length ``delbar`` normal to the face opposite vertex
    ``jdrop``, signed to decrease the linear model."""
    n = simi.shape[0]
    d = simi[jdrop, :]
    d = delbar * (d / math.sqrt(d.dot(d)))  # np.linalg.norm of a vector
    g = (fval[:n] - fval[n]) @ simi
    dg = np.dot(d, g)
    if -dg < dg:
        d *= -1
    return d


def _trstlp(g: np.ndarray, delta: float) -> np.ndarray:
    """Stage 2 of PRIMA's trust-region LP without constraints.

    The model gradient ``g`` is the only active row: one Givens pass
    (``qradd_Rdiag`` on an identity Q) gives its direction, and one step
    reaches the trust-region boundary. A zero ``d`` means no step, which
    is also PRIMA's answer for a non-finite ``g`` (its NaNs spread through
    ``g @ Q``).
    """
    n = g.size
    d = np.zeros(n)
    if not np.isfinite(g).all() or 0.0 >= delta * delta:
        return d
    maxval = max(np.abs(g).tolist())
    if maxval > 1e12:
        g = g * max(2 * _REALMIN, 1 / maxval)
    z0, zdota = _givens_direction(g)
    if zdota is None or abs(zdota) <= _EPS**2:
        return d
    sdirn = -1 / zdota * z0
    ss = np.dot(sdirn, sdirn)
    if ss <= _EPS * delta * delta:
        return d
    # PRIMA's step to the boundary, (sqrtd - sd) / ss, with sd = d @ sdirn = 0
    step = math.sqrt(ss * (delta * delta)) / ss
    if step <= 0 or not math.isfinite(step):
        return d
    # PRIMA moves all the way to the new point (frac = 1), from d = 0:
    # d = 0 * d + 1 * (d + step * sdirn) is step * sdirn with -0 -> +0.
    d = step * sdirn + 0.0
    # Its least-squares multiplier, about delta / |zdota|, is otherwise
    # unused but must stay finite: solve for it only where it can overflow.
    vmult = 0.0
    if not delta / abs(zdota) < 1e300:
        vmult = max(0, -np.linalg.lstsq(g.reshape(n, 1), d, rcond=None)[0][0])
    if not (np.isfinite(np.add.reduce(np.abs(d))) and np.isfinite(vmult)):
        return np.zeros(n)
    return d


def _givens_direction(c: np.ndarray):
    """PRIMA's ``qradd_Rdiag(c, Q=eye, n=0)`` for a finite ``c``.

    Returns ``(Q[:, 0], R[0, 0])`` after the Givens rotations that fold
    ``c`` onto the first axis, or ``(None, None)`` when ``c`` is negligible.
    Rotation k mixes Q's columns k and k + 1 while column k is still e_k,
    so each entry of the new column k is one rounded product, whatever
    order a matrix product would add its exact zeros in; only column 0 is
    tracked. (Signed zeros may differ from PRIMA's; the step adds 0.0.)
    """
    m = c.size
    # c @ eye and abs(c) @ abs(eye) are c and abs(c) for a finite c
    cq = [0 if _isminor(v, abs(v)) else v for v in c.tolist()]
    tail = [1.0]  # Q[k + 1:, k + 1] before rotation k (Q starts as eye)
    for k in range(m - 2, -1, -1):
        if abs(cq[k + 1]) > 0:
            cos, sin = _planerot(cq[k], cq[k + 1])
            tail = [cos] + [v * sin for v in tail]
            cq[k] = float(np.hypot(cq[k], cq[k + 1]))
        else:
            tail = [1.0] + [0.0] * len(tail)
    if abs(cq[0]) > _EPS**2 and not _isminor(cq[0], abs(c[0])):
        return np.array(tail), cq[0]
    return None, None


def _isminor(x, ref):
    """True when ``x`` is rounding noise next to ``ref`` (Powell's test)."""
    refa = abs(ref) + 0.1 * abs(x)
    refb = abs(ref) + 2 * 0.1 * abs(x)
    return abs(ref) >= refa or refa >= refb


_SQRT_REALMIN = math.sqrt(_REALMIN)
_SQRT_REALMAX = math.sqrt(_REALMAX / 2.1)


def _planerot(a: float, b: float) -> tuple[float, float]:
    """``(c, s)`` of the Givens matrix ``[[c, s], [-s, c]]`` that zeroes
    ``b`` in ``(a, b)`` (PRIMA's planerot; a and b are finite here)."""
    if abs(a) <= 0 and abs(b) <= 0:
        return 1.0, 0.0
    if abs(b) <= _EPS * abs(a):
        return math.copysign(1.0, a), 0.0
    if abs(a) <= _EPS * abs(b):
        return 0.0, math.copysign(1.0, b)
    if _SQRT_REALMIN < abs(a) < _SQRT_REALMAX and _SQRT_REALMIN < abs(b) < _SQRT_REALMAX:
        pair = np.array([a, b])
        r = math.sqrt(pair.dot(pair))  # np.linalg.norm, with its dot
        return a / r, b / r
    if abs(a) > abs(b):
        t = b / a
        u = math.copysign(max(1, abs(t), math.sqrt(1 + t * t)), a)
        return 1 / u, t / u
    t = a / b
    u = math.copysign(max(1, abs(t), math.sqrt(1 + t * t)), b)
    return t / u, 1 / u


def _redrat(ared, pred, rshrink):
    """The reduction ratio ``ared / pred``, with PRIMA's NaN/inf rules."""
    if math.isnan(ared):
        return -_REALMAX
    if math.isnan(pred) or pred <= 0:
        return rshrink / 2 if ared > 0 else -_REALMAX
    if pred == math.inf and ared == math.inf:
        return 1
    if pred == math.inf and ared == -math.inf:
        return -_REALMAX
    return ared / pred


def _trrad(delta_in, dnorm, ratio):
    """PRIMA's trust-region radius update."""
    if ratio <= _ETA1:
        return _GAMMA1 * dnorm
    if ratio <= _ETA2:
        return max(_GAMMA1 * delta_in, dnorm)
    return max(_GAMMA1 * delta_in, _GAMMA2 * dnorm)


def _redrho(rho_in, rhoend):
    """PRIMA's reduction of the resolution ``rho``."""
    rho_ratio = rho_in / rhoend
    if rho_ratio > 250:
        return 0.1 * rho_in
    if rho_ratio <= 16:
        return rhoend
    return np.sqrt(rho_ratio) * rhoend
