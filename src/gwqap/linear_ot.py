"""Exact and entropic linear OT solvers plus the Gaussian W2 closed form."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment
# the HiGHS bindings scipy ships (a private module, with _core from scipy 1.15)
from scipy.optimize._highspy import _core as _highs

from .core import MARGINAL_TOL, PROJECTION_DELTA, PROJECTION_MAX_SWEEPS, Coupling, Histogram
from .errors import (
    DimensionMismatch, NoConvergence, NonSquare, NumericalUnderflow, ValidationError
)

# switch to log-domain scaling once exp(-C/eps) risks underflow
_LOG_DOMAIN_RATIO = 500.0


@dataclass(frozen=True)
class Assignment:
    """Permutation sigma mapping source index i to target index sigma[i]."""

    perm: np.ndarray


def solve_lap(cost) -> tuple[Assignment, float]:
    """Minimum-cost bijection for a square cost matrix, O(n^3)."""
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise NonSquare(f"LAP needs a square matrix, got {c.shape}")
    if not np.all(np.isfinite(c)):
        raise DimensionMismatch("LAP cost must be finite")
    rows, cols = linear_sum_assignment(c)
    perm = np.empty(c.shape[0], dtype=np.intp)
    perm[rows] = cols
    return Assignment(perm), float(c[rows, cols].sum())


def solve_exact_ot(
    cost, h: Histogram, g: Histogram, model: "TransportLp | None" = None
) -> tuple[Coupling, float]:
    """Exact vertex solution of the discrete Kantorovich problem.

    Solves min <C, T> over the transportation polytope with the given
    marginals and returns a basic optimal solution (at most n+m-1 support
    entries), as required by the conditional-gradient callers. A
    ``TransportLp`` built for (h, g) and passed as ``model`` is re-solved
    from its last basis; without one the LP is solved from scratch.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = h.n, g.n
    if c.shape != (n, m):
        raise DimensionMismatch(
            f"cost is {c.shape}, marginals need ({n}, {m})"
        )
    if model is None:
        model = TransportLp(h, g)
    plan = model.solve(c)
    objective = float((c * plan).sum())
    return Coupling(plan, h, g), objective


class TransportLp:
    """The transportation LP of fixed marginals (h, g) as one HiGHS model.

    Each ``solve`` changes only the costs and restarts dual simplex from
    the previous optimal basis, so a sequence of costs, as Frank-Wolfe
    produces, costs a fraction of cold solves. Every answer is a basic
    optimal plan; a zero-mass atom's row or column sums to zero, so its
    entries are zero.

    A multi-init builds one model for all of its starts. Each Frank-Wolfe
    solve calls ``reset`` first, so it runs the same LP sequence, bit for
    bit, as it would on a fresh model.
    """

    def __init__(self, h: Histogram, g: Histogram):
        self.shape = (h.n, g.n)
        size = h.n * g.n
        self._index = np.arange(size, dtype=np.int32)
        b = np.concatenate([h.weights, g.weights])
        self._model = _highs_model(
            _transport_constraints(h.n, g.n),
            np.zeros(size),
            np.full(size, np.inf),
            b,
            b,
            solver="simplex",
            simplex_strategy=1,  # dual simplex
        )

    def reset(self):
        """Drop the last basis, so the next solve starts cold."""
        self._model.clearSolver()

    def solve(self, cost: np.ndarray) -> np.ndarray:
        self._model.changeColsCost(self._index.size, self._index, cost.ravel())
        plan = _highs_solution(self._model, "transportation LP").reshape(self.shape)
        np.clip(plan, 0.0, None, out=plan)
        return plan


def _transport_constraints(n, m):
    # column i*m + j of the row-sum and column-sum constraints has its two
    # ones in rows i and n + j
    rows = np.empty((n * m, 2), dtype=np.int32)
    rows[:, 0] = np.repeat(np.arange(n), m)
    rows[:, 1] = n + np.tile(np.arange(m), n)
    indptr = np.arange(0, 2 * n * m + 1, 2, dtype=np.int32)
    return sparse.csc_matrix(
        (np.ones(2 * n * m), rows.ravel(), indptr), shape=(n + m, n * m)
    )


def _highs_model(A, cost, upper, row_lower, row_upper, integer=False, **options):
    """HiGHS model of min cost @ x s.t. row_lower <= A x <= row_upper,
    0 <= x <= upper (x integer if asked); A is CSC."""
    size = cost.size
    lp = _highs.HighsLp()
    lp.num_col_ = size
    lp.num_row_ = A.shape[0]
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(size)
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = A.indptr
    lp.a_matrix_.index_ = A.indices
    lp.a_matrix_.value_ = A.data
    if integer:
        lp.integrality_ = [_highs.HighsVarType.kInteger] * size
    model = _highs._Highs()
    model.setOptionValue("output_flag", False)
    for option, value in options.items():
        model.setOptionValue(option, value)
    model.passModel(lp)
    return model


def _highs_solution(model, what: str) -> np.ndarray:
    """Run the model; its optimal x, or NoConvergence."""
    model.run()
    status = model.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise NoConvergence(f"{what} failed: {model.modelStatusToString(status)}")
    return np.array(model.getSolution().col_value)


def _binary_program(cost, A, lower, upper) -> np.ndarray:
    """min cost @ x s.t. lower <= A x <= upper, x binary (feasible by
    construction)."""
    # HiGHS's default cut and conflict pools (10^4 entries) raised the
    # process's peak memory by about 10 MB over a few dozen 20 x 20
    # roundings; a small pool leaves the solve exact
    model = _highs_model(
        A, cost, np.ones(cost.size), lower, upper, integer=True, mip_pool_soft_limit=10
    )
    return _highs_solution(model, "rounding MILP")


def sinkhorn(
    cost, h: Histogram, g: Histogram, epsilon: float, max_iter: int = 10_000
) -> tuple[Coupling, float, int, bool]:
    """Entropic OT via Sinkhorn scaling, to the MARGINAL_TOL contract.

    Returns (coupling, objective, iterations, converged) where the objective
    is the unregularized transport cost <C, pi> of the returned plan. Runs in
    log-domain when max|C|/epsilon is large enough to underflow the kernel.
    """
    c = np.asarray(cost, dtype=np.float64)
    n, m = h.n, g.n
    if c.shape != (n, m):
        raise DimensionMismatch(f"cost is {c.shape}, marginals need ({n}, {m})")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")

    if np.abs(c).max(initial=0.0) / epsilon > _LOG_DOMAIN_RATIO:
        plan, iters, converged = _on_support(
            _sinkhorn_log, c, h.weights, g.weights, epsilon, max_iter
        )
    else:
        # every kernel entry is at least exp(-_LOG_DOMAIN_RATIO) > 0
        plan, iters, converged = _on_support(
            _scale, np.exp(-c / epsilon), h.weights, g.weights, MARGINAL_TOL, max_iter
        )
    objective = float((c * plan).sum())
    return Coupling(plan, h, g), objective, iters, converged


def _on_support(solve, a, h, g, *args):
    """``solve(a, h, g, *args) -> (plan, iterations, converged)`` run on a
    copy of the block of positive-mass atoms, its plan scattered back into
    zeros: a zero-mass atom's row or column is all zeros."""
    rows, cols = h > 0, g > 0
    block = np.ix_(rows, cols)
    plan, iterations, converged = solve(a[block], h[rows], g[cols], *args)
    full = np.zeros(a.shape)
    full[block] = plan
    return full, iterations, converged


def _scale(G, h, g, tol, max_sweeps):
    """Alternately rescale the rows, then the columns, of the positive matrix
    G in place until both marginal inf-errors drop below tol.

    Returns (G, sweeps, converged). Raises NumericalUnderflow on the first
    sweep that leaves a non-finite entry, which a row sum then shows.
    """
    # the row sums of one sweep's stopping test scale the next sweep's rows
    rows = G.sum(axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(1, max_sweeps + 1):
            G *= (h / rows)[:, None]
            G *= (g / G.sum(axis=0))[None, :]
            rows = G.sum(axis=1)
            row_err = np.abs(rows - h).max()
            if row_err < tol and np.abs(G.sum(axis=0) - g).max() < tol:
                return G, sweep, True
            if not math.isfinite(row_err):
                raise NumericalUnderflow("alternating scaling diverged")
    return G, max_sweeps, False


def _sinkhorn_log(c, h, g, epsilon, max_iter):
    log_h = np.log(h)
    log_g = np.log(g)
    f = np.zeros_like(h)
    gg = np.zeros_like(g)
    M = -c / epsilon
    for it in range(1, max_iter + 1):
        f = epsilon * log_h - epsilon * _logsumexp_rows(M + gg[None, :] / epsilon)
        gg = epsilon * log_g - epsilon * _logsumexp_rows(
            (M + f[:, None] / epsilon).T
        )
        plan = np.exp(M + f[:, None] / epsilon + gg[None, :] / epsilon)
        row_err = np.abs(plan.sum(axis=1) - h).max()
        col_err = np.abs(plan.sum(axis=0) - g).max()
        if max(row_err, col_err) < MARGINAL_TOL:
            return plan, it, True
    return plan, max_iter, False


def _logsumexp_rows(M):
    mx = M.max(axis=1, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    return (mx + np.log(np.exp(M - mx).sum(axis=1, keepdims=True)))[:, 0]


def sinkhorn_project(raw, h: Histogram, g: Histogram) -> Coupling:
    """Project a strictly positive matrix onto the coupling polytope.

    Alternates row then column rescaling until both marginal inf-errors drop
    below PROJECTION_DELTA, or raises NoConvergence after
    PROJECTION_MAX_SWEEPS sweeps. Zero-mass atoms get all-zero rows and
    columns. Used to turn Uniform(0,1)+jitter samples into valid random
    initial couplings.
    """
    G = np.asarray(raw, dtype=np.float64)
    if G.shape != (h.n, g.n):
        raise DimensionMismatch(f"raw is {G.shape}, marginals need ({h.n}, {g.n})")
    if not (G > 0).all():
        raise ValidationError("all entries of raw must be strictly positive")
    plan, _, converged = _on_support(
        _scale, G, h.weights, g.weights, PROJECTION_DELTA, PROJECTION_MAX_SWEEPS
    )
    if not converged:
        raise NoConvergence(
            f"projection did not reach delta={PROJECTION_DELTA} "
            f"in {PROJECTION_MAX_SWEEPS} sweeps"
        )
    return Coupling(plan, h, g)


def _sqrtm_psd(a):
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(a, b) -> float:
    """Squared 2-Wasserstein distance between Gaussian measures.

    ||m_a - m_b||^2 plus the squared Bures distance between the covariances,
    computed via symmetric eigendecompositions with eigenvalue clamping.
    """
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    ra = _sqrtm_psd(a.covariance)
    cross = _sqrtm_psd(ra @ b.covariance @ ra)
    bures_sq = float(np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * np.trace(cross))
    return mean_term + max(bures_sq, 0.0)
