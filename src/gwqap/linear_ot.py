"""Exact and entropic linear OT solvers plus the Gaussian W2 closed form."""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
# the HiGHS bindings scipy ships (a private module, with _core from scipy 1.15)
from scipy.optimize._highspy import _core as _highs

from .core import (
    MARGINAL_TOL, PROJECTION_DELTA, PROJECTION_MAX_SWEEPS, Coupling, Histogram,
    _as_float_array, _as_matrix, check_count,
)
from .errors import (
    DimensionMismatch, NoConvergence, NonFinite, NonSquare, NumericalUnderflow, ValidationError
)

# switch to log-domain scaling once exp(-C/eps) risks underflow
_LOG_DOMAIN_RATIO = 500.0


@dataclass(frozen=True)
class Assignment:
    """Permutation sigma mapping source index i to target index sigma[i]."""

    perm: np.ndarray


def solve_lap(cost) -> tuple[Assignment, float]:
    """Minimum-cost bijection for a square cost matrix, O(n^3)."""
    c = _as_float_array(cost, 2, "LAP cost")
    if c.shape[0] != c.shape[1]:
        raise NonSquare(f"LAP needs a square matrix, got {c.shape}")
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
    ``TransportLp`` start for (h, g) passed as ``model`` solves the LP from
    its last basis; without one a fresh model solves it from the
    north-west-corner basis. A model of other marginals raises
    ValidationError (DimensionMismatch if its shape differs).
    """
    c = _as_matrix(cost, (h.n, g.n), "cost")
    if model is None:
        model = TransportLp(h, g)
    elif model.marginals != (h, g):
        error = DimensionMismatch if model.shape != c.shape else ValidationError
        raise error(f"the model's {model.shape} marginals are not these {c.shape} (h, g)")
    plan = model.solve(c)
    objective = float((c * plan).sum())
    return Coupling(plan, h, g), objective


class TransportLp:
    """One start of the transportation LP of fixed marginals (h, g): a
    HiGHS model, which the starts that ``branch`` makes share, and the
    start's own simplex basis.

    Each ``solve`` clears the model's solver data, sets the start's basis,
    changes the costs and runs primal simplex; it then keeps the optimal
    basis for the start's next solve. A new start stands on the
    north-west-corner basis. Both are primal feasible, so a sequence of
    costs, as Frank-Wolfe produces, needs few pivots per LP. A plan depends
    only on the cost and the start's basis, so starts interleaved on one
    model get bitwise the plans each gets alone on a fresh model. Every
    answer is a basic optimal plan; a zero-mass atom's row or column sums to
    zero, so its entries are zero. Its ``marginals`` (h, g) are what
    ``solve_exact_ot`` checks a model against.
    """

    def __init__(self, h: Histogram, g: Histogram):
        self.marginals = (h, g)
        self.shape = (h.n, g.n)
        size = h.n * g.n
        self._index = np.arange(size, dtype=np.int32)
        b = np.concatenate([h.weights, g.weights])
        self._model = _highs_model(
            (*_transport_pattern(h.n, g.n), np.ones(2 * size)),
            np.zeros(size),
            np.full(size, np.inf),
            b,
            b,
            solver="simplex",
            simplex_strategy=4,  # primal simplex
        )
        self._start = self._basis = _north_west_basis(h.weights, g.weights)

    def branch(self) -> "TransportLp":
        """A new start on the same model, at the north-west-corner basis."""
        start = copy.copy(self)
        start._basis = self._start
        return start

    def solve(self, cost: np.ndarray) -> np.ndarray:
        self._model.clearSolver()
        self._model.setBasis(self._basis)
        self._model.changeColsCost(self._index.size, self._index, cost.ravel())
        plan = _highs_solution(self._model, "transportation LP").reshape(self.shape)
        self._basis = self._model.getBasis()
        np.clip(plan, 0.0, None, out=plan)
        return plan


def _north_west_basis(h, g):
    """The north-west-corner basis of the transportation LP of (h, g).

    The rule walks a staircase from cell (0, 0) to (n-1, m-1), moving down
    once a row's mass is used up and right otherwise; its n+m-1 cells are a
    spanning tree, so they are the basic columns, with the last row's slack
    because the rows have rank n+m-1. The basis's plan ships min(supply,
    demand) along the walk, so it is feasible; a tie or a zero-mass atom
    only puts a zero on the staircase.
    """
    n, m = h.size, g.size
    basic, lower = _highs.HighsBasisStatus.kBasic, _highs.HighsBasisStatus.kLower
    cols = [lower] * (n * m)
    i = j = 0
    supply, demand = h[0], g[0]
    while True:
        cols[i * m + j] = basic
        if i == n - 1 and j == m - 1:
            break
        if j == m - 1 or (i < n - 1 and supply <= demand):
            demand -= supply
            i += 1
            supply = h[i]
        else:
            supply -= demand
            j += 1
            demand = g[j]
    basis = _highs.HighsBasis()
    basis.col_status = cols
    basis.row_status = [lower] * (n + m - 1) + [basic]
    # HiGHS refuses a non-alien basis with the wrong number of basic
    # variables, where it would repair an alien one and accept it
    basis.alien = False
    return basis


def _transport_pattern(n, m):
    """CSC (starts, indices) of the transportation LP's n + m marginal rows,
    the first two arrays of HiGHS's (starts, indices, values) layout: column
    i*m + j has its two entries in rows i and n + j."""
    rows = np.empty((n * m, 2), dtype=np.int32)
    rows[:, 0] = np.repeat(np.arange(n), m)
    rows[:, 1] = n + np.tile(np.arange(m), n)
    return np.arange(0, 2 * n * m + 1, 2, dtype=np.int32), rows.ravel()


def _capacity_constraints(u, d):
    """CSC (starts, indices, values) of the rows [capacity; coverage] over
    the columns [x (n*m); z (m)].

    Column i*m + j has the transportation LP's pattern (rows i and n + j)
    with values d_j and u_i; column n*m + j holds d_j in row n + j.
    """
    n, m = u.size, d.size
    starts, indices = _transport_pattern(n, m)
    values = np.column_stack([np.tile(d, n), np.repeat(u, m)]).ravel()
    z = np.arange(m, dtype=np.int32)
    return (
        np.concatenate([starts, starts[-1] + 1 + z]),
        np.concatenate([indices, n + z]),
        np.concatenate([values, d]),
    )


def _highs_model(A, cost, upper, row_lower, row_upper, integer=False, **options):
    """HiGHS model of min cost @ x s.t. row_lower <= A x <= row_upper,
    0 <= x <= upper (x integer if asked); A is the CSC (starts, indices,
    values) of the constraint matrix, one row per row bound."""
    size = cost.size
    lp = _highs.HighsLp()
    lp.num_col_ = size
    lp.num_row_ = row_lower.size
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(size)
    lp.col_upper_ = upper
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_, lp.a_matrix_.index_, lp.a_matrix_.value_ = A
    if integer:
        lp.integrality_ = [_highs.HighsVarType.kInteger] * size
    model = _highs._Highs()
    for option, value in {"output_flag": False, **options}.items():
        # HiGHS answers an unknown option or a wrong type with kError and
        # carries on without it
        if model.setOptionValue(option, value) != _highs.HighsStatus.kOk:
            raise ValidationError(f"HiGHS refused option {option}={value!r}")
    model.passModel(lp)
    return model


def _highs_solution(model, what: str) -> np.ndarray:
    """Run the model; its optimal x, or NoConvergence."""
    model.run()
    status = model.getModelStatus()
    if status != _highs.HighsModelStatus.kOptimal:
        raise NoConvergence(f"{what} failed: {model.modelStatusToString(status)}")
    return np.array(model.getSolution().col_value)


def nearest_capacity_assignment(shares, u, d) -> np.ndarray:
    """Binary x (n, m) within the capacities u minimizing first the number
    of tasks of demand d it leaves uncovered, then ||x - shares||^2; one
    HiGHS MILP over x (n*m) and z (m), z_j = 1 marking task j uncovered.

    For binary x and Y = shares, ||x - Y||^2 = sum x (1 - 2Y) + const, a
    sum that moves by less than 2nm + 1, the cost of one uncovered task.
    """
    n, m = shares.shape
    u = np.asarray(u, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    cost = np.concatenate([(1.0 - 2.0 * shares).ravel(), np.full(m, 2.0 * n * m + 1.0)])
    # HiGHS's default cut and conflict pools (10^4 entries) raised the
    # process's peak memory by about 10 MB over a few dozen 20 x 20
    # roundings; a small pool leaves the solve exact. The feasibility-jump
    # heuristic runs before the root LP of every MILP presolve leaves open
    # and costs about 10 ms whatever the size (on a 2-vCPU Xeon a 3 x 3
    # rounding took 8.1 ms with it and 0.74 ms without, a 4 x 4 one 15 and
    # 0.9 ms); the roundings close at the root node, so it never pays
    model = _highs_model(
        _capacity_constraints(u, d), cost, np.ones(cost.size),
        np.concatenate([np.full(n, -np.inf), d]),
        np.concatenate([u, np.full(m, np.inf)]),
        integer=True, mip_pool_soft_limit=10, mip_heuristic_run_feasibility_jump=False,
    )
    x = _highs_solution(model, "rounding MILP")[: n * m]
    return np.rint(x).reshape(n, m).astype(np.int64)


def sinkhorn(
    cost, h: Histogram, g: Histogram, epsilon: float, max_iter: int = 10_000
) -> tuple[Coupling, float, int, bool]:
    """Entropic OT via Sinkhorn scaling, to the MARGINAL_TOL contract.

    Returns (coupling, objective, iterations, converged) where the objective
    is the unregularized transport cost <C, pi> of the returned plan. Runs in
    log-domain when max|C|/epsilon is large enough to underflow the kernel.
    """
    c = _as_matrix(cost, (h.n, g.n), "cost")
    if not epsilon > 0:
        raise ValidationError("epsilon must be positive")
    check_count("max_iter", max_iter, 1)

    if np.abs(c).max(initial=0.0) / epsilon > _LOG_DOMAIN_RATIO:
        plan, iters, converged = _on_support(
            _sinkhorn_log, c, h.weights, g.weights, epsilon, max_iter
        )
    else:
        # every kernel entry is at least exp(-_LOG_DOMAIN_RATIO) > 0
        plans, sweeps, converged = _on_support(
            _scale, np.exp(-c / epsilon)[None], h.weights, g.weights,
            MARGINAL_TOL, max_iter,
        )
        plan, iters, converged = plans[0], int(sweeps[0]), bool(converged[0])
    objective = float((c * plan).sum())
    return Coupling(plan, h, g), objective, iters, converged


def _on_support(solve, a, h, g, *args):
    """``solve(a, h, g, *args) -> (plan, iterations, converged)`` run on a
    copy of the block of positive-mass atoms, its plan scattered back into
    zeros: a zero-mass atom's row or column is all zeros. ``a`` is one
    (n, m) matrix or a stack (T, n, m), whose slices share the block."""
    rows, cols = np.ix_(h > 0, g > 0)
    # indexing a stack so puts its first axis last in memory; the sums of
    # a C-ordered block run in the order a single (n, m) matrix's do
    block = np.ascontiguousarray(a[..., rows, cols])
    plan, iterations, converged = solve(block, h[h > 0], g[g > 0], *args)
    full = np.zeros(a.shape)
    full[..., rows, cols] = plan
    return full, iterations, converged


def _scale(G, h, g, tol, max_sweeps):
    """Alternately rescale the rows, then the columns, of each slice of the
    positive stack G (T, n, m) until both of its marginal inf-errors drop
    below tol.

    Each slice stops at its own sweep: once it converges it leaves the
    active set and is never rescaled again, so its plan is bitwise the plan
    of scaling that slice alone. Returns (G, sweeps, converged), the last
    two arrays of length T; G is rescaled in place. Raises NumericalUnderflow
    on the first sweep that leaves a non-finite entry in an active slice,
    which its row sums then show.
    """
    sweeps = np.full(G.shape[0], max_sweeps)
    converged = np.zeros(G.shape[0], dtype=bool)
    active = np.arange(G.shape[0])
    # the active slices; a copy once a slice has left
    A = G
    # the row sums of one sweep's stopping test scale the next sweep's rows
    rows = A.sum(axis=2)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for sweep in range(1, max_sweeps + 1):
            if not active.size:
                break
            A *= (h / rows)[:, :, None]
            A *= (g / A.sum(axis=1))[:, None, :]
            rows = A.sum(axis=2)
            row_err = np.abs(rows - h).max(axis=1)
            if not np.isfinite(row_err).all():
                raise NumericalUnderflow("alternating scaling diverged")
            done = row_err < tol
            if not done.any():
                continue
            done[done] = np.abs(A[done].sum(axis=1) - g).max(axis=1) < tol
            if done.any():
                left = active[done]
                sweeps[left], converged[left] = sweep, True
                G[left] = A[done]
                keep = ~done
                A, rows, active = A[keep], rows[keep], active[keep]
    G[active] = A
    return G, sweeps, converged


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


def sinkhorn_project(raw, h: Histogram, g: Histogram) -> Coupling | list[Coupling]:
    """Project a finite, strictly positive matrix onto the coupling polytope.

    Alternates row then column rescaling until both marginal inf-errors drop
    below PROJECTION_DELTA, or raises NoConvergence after
    PROJECTION_MAX_SWEEPS sweeps. Zero-mass atoms get all-zero rows and
    columns. Used to turn Uniform(0,1)+jitter samples into valid random
    initial couplings.

    ``raw`` may also be a stack (T, n, m); its slices are scaled together
    and the list of their T couplings returned. Each slice stops at its own
    sweep, so its coupling is bitwise the one a call on that slice alone
    returns. The call raises if any slice does not converge.
    """
    G = np.asarray(raw, dtype=np.float64)
    if G.ndim not in (2, 3) or G.shape[-2:] != (h.n, g.n):
        raise DimensionMismatch(
            f"raw is {G.shape}, marginals need ({h.n}, {g.n}) or (T, {h.n}, {g.n})"
        )
    if not np.isfinite(G).all():
        raise NonFinite("raw has a non-finite entry")
    if not (G > 0).all():
        raise ValidationError("all entries of raw must be strictly positive")
    plans, _, converged = _on_support(
        _scale, G.reshape((-1, h.n, g.n)), h.weights, g.weights,
        PROJECTION_DELTA, PROJECTION_MAX_SWEEPS,
    )
    if not converged.all():
        stuck = np.flatnonzero(~converged).tolist()
        where = f" (slices {stuck})" if G.ndim == 3 else ""
        raise NoConvergence(
            f"projection did not reach delta={PROJECTION_DELTA} "
            f"in {PROJECTION_MAX_SWEEPS} sweeps{where}"
        )
    if G.ndim == 2:
        return Coupling(plans[0], h, g)
    return [Coupling(plan, h, g) for plan in plans]


def _sqrtm_psd(a):
    vals, vecs = np.linalg.eigh(a)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def w2_gaussian(a, b) -> float:
    """Squared 2-Wasserstein distance between Gaussian measures.

    ||m_a - m_b||^2 plus the squared Bures distance between the covariances,
    computed via symmetric eigendecompositions with eigenvalue clamping.
    """
    if a.mean.shape != b.mean.shape:
        raise DimensionMismatch(f"measures are {a.mean.shape[0]}-d and {b.mean.shape[0]}-d")
    mean_term = float(np.sum((a.mean - b.mean) ** 2))
    ra = _sqrtm_psd(a.covariance)
    cross = _sqrtm_psd(ra @ b.covariance @ ra)
    bures_sq = float(np.trace(a.covariance) + np.trace(b.covariance) - 2.0 * np.trace(cross))
    return mean_term + max(bures_sq, 0.0)
