"""A small Levenberg-Marquardt optimizer for nonlinear least squares.

Used to extract the auxiliary parameters η from simulated transfer curves
(Sec. III-A b).  scipy's implementation is a test-only cross-check; the
reproduction ships its own so the fitting step is fully transparent and
needs nothing beyond numpy.

Two entry points:

- :func:`levenberg_marquardt` — one problem at a time (the original).
- :func:`levenberg_marquardt_batch` — B independent problems advanced in
  lockstep with stacked linear algebra; lanes that stall or converge are
  retired from the active set.  Every per-lane operation is gather
  invariant, so a lane's trajectory does not depend on which other lanes
  share the batch — batch-of-1 results match large-batch results bit for
  bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np


@dataclass
class LMResult:
    """Outcome of a Levenberg-Marquardt run."""

    x: np.ndarray
    cost: float
    iterations: int
    converged: bool


def levenberg_marquardt(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    max_iter: int = 200,
    tol: float = 1e-10,
    lambda_init: float = 1e-3,
    lambda_factor: float = 10.0,
) -> LMResult:
    """Minimize ``0.5 * ||residual(x)||²`` with damped Gauss-Newton steps.

    Parameters
    ----------
    residual:
        Maps parameters ``x`` to a residual vector.
    x0:
        Initial parameter guess.
    jacobian:
        Optional analytic Jacobian ``∂residual/∂x``; forward differences
        are used when omitted.
    tol:
        Convergence threshold on both the step norm and the cost decrease.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    lam = lambda_init
    res = residual(x)
    cost = 0.5 * float(res @ res)

    def numeric_jacobian(point: np.ndarray, base: np.ndarray) -> np.ndarray:
        jac = np.empty((base.size, point.size))
        for j in range(point.size):
            step = 1e-7 * max(1.0, abs(point[j]))
            shifted = point.copy()
            shifted[j] += step
            jac[:, j] = (residual(shifted) - base) / step
        return jac

    iterations = 0
    converged = False
    for iterations in range(1, max_iter + 1):
        jac = jacobian(x) if jacobian is not None else numeric_jacobian(x, res)
        gradient = jac.T @ res
        hessian = jac.T @ jac

        improved = False
        for _ in range(30):
            try:
                step = np.linalg.solve(
                    hessian + lam * np.diag(np.maximum(np.diag(hessian), 1e-12)),
                    -gradient,
                )
            except np.linalg.LinAlgError:
                lam *= lambda_factor
                continue
            candidate = x + step
            candidate_res = residual(candidate)
            candidate_cost = 0.5 * float(candidate_res @ candidate_res)
            if candidate_cost < cost:
                improvement = cost - candidate_cost
                x, res, cost = candidate, candidate_res, candidate_cost
                lam = max(lam / lambda_factor, 1e-12)
                improved = True
                if improvement < tol and float(np.linalg.norm(step)) < tol:
                    converged = True
                break
            lam *= lambda_factor

        if not improved or converged:
            converged = converged or not improved
            break

    return LMResult(x=x, cost=cost, iterations=iterations, converged=converged)


@dataclass
class LMBatchResult:
    """Outcome of a lockstep Levenberg-Marquardt run over B problems."""

    x: np.ndarray            # (B, k)
    cost: np.ndarray         # (B,)
    iterations: np.ndarray   # (B,)
    converged: np.ndarray    # (B,) bool


def _solve_damped(
    matrices: np.ndarray, rhs: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve a stack of (k, k) systems, isolating singular lanes.

    Returns ``(steps, ok)``; lanes whose damped normal matrix is singular
    get ``ok=False`` and a zero step (the caller raises their λ and
    retries).  The scalar per-lane fallback is bitwise identical to the
    stacked solve, so mixing paths never perturbs healthy lanes.
    """
    try:
        steps = np.linalg.solve(matrices, rhs[..., None])[..., 0]
        return steps, np.ones(len(matrices), dtype=bool)
    except np.linalg.LinAlgError:
        steps = np.zeros_like(rhs)
        ok = np.zeros(len(matrices), dtype=bool)
        for i in range(len(matrices)):
            try:
                steps[i] = np.linalg.solve(matrices[i], rhs[i])
                ok[i] = True
            except np.linalg.LinAlgError:
                pass
        return steps, ok


def levenberg_marquardt_batch(
    residual: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x0: np.ndarray,
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    max_iter: int = 200,
    tol: float = 1e-10,
    lambda_init: float = 1e-3,
    lambda_factor: float = 10.0,
) -> LMBatchResult:
    """Minimize ``0.5 * ||residual(x_b)||²`` for B problems in lockstep.

    Parameters
    ----------
    residual:
        ``residual(x_subset, lanes)`` maps a ``(P, k)`` parameter stack to
        a ``(P, n)`` residual stack, where ``lanes`` holds the original
        batch indices of the P rows (so the callback can gather per-lane
        targets).
    x0:
        ``(B, k)`` stack of initial guesses.
    jacobian:
        ``jacobian(x_subset, lanes)`` returns the ``(P, n, k)`` stacked
        Jacobian (analytic; the batch path has no numeric fallback).
    tol:
        Per-lane convergence threshold on both the step norm and the cost
        decrease, as in :func:`levenberg_marquardt`.

    Each lane follows the same accept/reject λ schedule as the scalar
    optimizer; finished lanes are removed from the active set so slow
    problems do not keep paying for fast ones.
    """
    x = np.array(x0, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("x0 must be a (B, k) stack of initial guesses")
    n_problems, n_params = x.shape

    all_lanes = np.arange(n_problems)
    res = np.asarray(residual(x, all_lanes), dtype=np.float64)
    if res.ndim != 2 or len(res) != n_problems:
        raise ValueError("residual must return a (B, n) stack")
    cost = 0.5 * np.sum(res * res, axis=-1)
    lam = np.full(n_problems, lambda_init)
    iterations = np.zeros(n_problems, dtype=np.int64)
    converged = np.zeros(n_problems, dtype=bool)

    active = all_lanes.copy()
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        xa = x[active]
        resa = res[active]
        costa = cost[active]
        lama = lam[active]
        n_active = active.size

        jac = jacobian(xa, active)                        # (P, n, k)
        jac_t = np.swapaxes(jac, -1, -2)                  # (P, k, n)
        gradient = (jac_t @ resa[..., None])[..., 0]      # (P, k)
        hessian = jac_t @ jac                             # (P, k, k)
        diag = np.maximum(
            np.diagonal(hessian, axis1=-2, axis2=-1), 1e-12
        )                                                 # (P, k)
        damping_matrix = np.zeros_like(hessian)
        rows = np.arange(n_params)
        damping_matrix[:, rows, rows] = diag

        improved = np.zeros(n_active, dtype=bool)
        conv_now = np.zeros(n_active, dtype=bool)
        pending = np.ones(n_active, dtype=bool)
        for _ in range(30):
            pidx = np.nonzero(pending)[0]
            if pidx.size == 0:
                break
            damped = hessian[pidx] + lama[pidx][:, None, None] * damping_matrix[pidx]
            step, ok = _solve_damped(damped, -gradient[pidx])
            lama[pidx[~ok]] *= lambda_factor
            sidx = pidx[ok]
            if sidx.size == 0:
                continue
            candidate = xa[sidx] + step[ok]
            candidate_res = np.asarray(
                residual(candidate, active[sidx]), dtype=np.float64
            )
            candidate_cost = 0.5 * np.sum(candidate_res * candidate_res, axis=-1)
            accept = candidate_cost < costa[sidx]
            aidx = sidx[accept]
            if aidx.size:
                improvement = costa[aidx] - candidate_cost[accept]
                step_norm = np.sqrt(
                    np.sum(step[ok][accept] * step[ok][accept], axis=-1)
                )
                xa[aidx] = candidate[accept]
                resa[aidx] = candidate_res[accept]
                costa[aidx] = candidate_cost[accept]
                lama[aidx] = np.maximum(lama[aidx] / lambda_factor, 1e-12)
                conv_now[aidx] = (improvement < tol) & (step_norm < tol)
                improved[aidx] = True
                pending[aidx] = False
            ridx = sidx[~accept]
            lama[ridx] *= lambda_factor

        iterations[active] = it
        x[active] = xa
        res[active] = resa
        cost[active] = costa
        lam[active] = lama

        finished = (~improved) | conv_now
        converged[active[finished]] = (conv_now | ~improved)[finished]
        active = active[~finished]

    return LMBatchResult(x=x, cost=cost, iterations=iterations, converged=converged)
