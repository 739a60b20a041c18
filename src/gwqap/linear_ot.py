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
):
    """Exact vertex solution of the discrete Kantorovich problem.

    Solves min <C, T> over the transportation polytope with the given
    marginals and returns (coupling, objective), a basic optimal solution (at
    most n+m-1 support entries), as the conditional-gradient callers need.
    The LP is solved by a fresh ``TransportLp`` from the north-west-corner
    basis.

    With a ``TransportLp`` of (h, g) as ``model``, ``cost`` is instead a
    stack (T, n*m) of T LPs, one per row in cell order i*m + j, T the
    model's number of starts: row t is solved by start t from its last
    basis, all rows in one batched simplex. Returns (plans, errors): plans
    (T, n, m), and errors[t] the library error row t failed with, or None
    (a failed row's plan is all zeros). A model of other marginals raises
    ValidationError (DimensionMismatch if its shape differs); a stack of
    the wrong shape raises DimensionMismatch.
    """
    if model is None:
        c = _as_matrix(cost, (h.n, g.n), "cost")
        plans, (error,) = TransportLp(h, g).solve(c.reshape(1, -1))
        if error is not None:
            raise error
        return Coupling(plans[0], h, g), float((c * plans[0]).sum())
    if model.marginals != (h, g):
        error = DimensionMismatch if model.shape != (h.n, g.n) else ValidationError
        raise error(f"the model's {model.shape} marginals are not these ({h.n}, {g.n}) (h, g)")
    costs = np.asarray(cost, dtype=np.float64)
    if costs.shape != (len(model), h.n * g.n):
        raise DimensionMismatch(
            f"costs are {costs.shape}, the model's starts need ({len(model)}, {h.n * g.n})"
        )
    return model.solve(costs)


# The transport simplex takes a reduced cost of at least -_DUAL_TOL * max|C|
# as non-negative and, under Bland's rule, basic values within _MASS_TOL (of
# a unit total mass) as tied; a solve fails a start after _PIVOTS_PER_CELL
# pivots per cell of the LP
_DUAL_TOL = 1e-11
_MASS_TOL = 1e-13
_PIVOTS_PER_CELL = 10


class TransportLp:
    """Starts of the transportation LP of fixed marginals (h, g), solved
    together by a batched primal transport simplex.

    The LP has the n row and m column constraints of the marginals; the
    last column constraint is implied by the others and is dropped. A basis
    is a spanning tree of n+m-1 cells, and each start keeps its own: the
    cells and the basis's inverse, whose entries are -1, 0 or 1 (int8)
    since the constraint matrix is totally unimodular, so every pivot
    updates it exactly. A new start stands on the north-west-corner basis,
    and each later solve begins at the start's last optimal basis: both are
    primal feasible, and Frank-Wolfe changes only the costs.

    ``solve`` runs the starts in rounds. Each round prices every cell of
    every active start in one numpy operation, into one (T, n, m) buffer the
    call reuses, and pivots each start once: the most negative reduced cost
    enters (Dantzig's rule), the ratio test picks the leaving cell on its
    cycle, the inverse takes the rank-one update of the cycle (rows off it
    subtract zero) and the duals move by the leaving cell's row of the
    inverse. After n*m rounds a solve keeps to Bland's rule (first negative
    cell in, smallest cell out among ties), so it cannot cycle; after
    ``max_pivots`` (_PIVOTS_PER_CELL * n * m) pivots a start fails with
    NoConvergence. A start that looks optimal on its updated duals
    recomputes them from its basis and prices again; it leaves once those
    reduced costs are all at least -_DUAL_TOL * max|C|, and its basis is
    saved. At the end of the call the plans of all solved starts are read
    out at once, each B^-1 b of its saved basis clipped at 0, with zero-mass
    atoms' rows and columns zeroed. Every step acts on each start's own
    rows, and the last active start takes the same steps on plain views
    (``_solve_one``), so a start's plans are bitwise what it gets solved
    alone. After a solve, ``pivots`` holds each start's pivot count and
    ``rounds`` the number of rounds.

    Its ``marginals`` (h, g) are what ``solve_exact_ot`` checks a model
    against.
    """

    def __init__(self, h: Histogram, g: Histogram):
        self.marginals = (h, g)
        n, m = self.shape = (h.n, g.n)
        self.max_pivots = _PIVOTS_PER_CELL * n * m
        self._b = np.concatenate([h.weights, g.weights])
        cells = _north_west_corner(h.weights, g.weights)
        self._corner = cells, _tree_inverse(cells, n, m)
        self._void = np.flatnonzero(np.logical_or.outer(h.weights == 0, g.weights == 0))
        # the two constraints (row i, column n + j) of each cell i*m + j
        self._ends = np.arange(n * m) // m, n + np.arange(n * m) % m
        self._reset(1)

    def _reset(self, starts):
        cells, inverse = self._corner
        self._basis = np.tile(cells, (starts, 1))
        self._inverse = np.tile(inverse, (starts, 1, 1))
        self.pivots = np.zeros(starts, dtype=np.int64)
        self.rounds = 0

    def __len__(self):
        return len(self._basis)

    def branch(self, starts: int = 1) -> "TransportLp":
        """``starts`` new starts of the same LP, at the north-west-corner basis."""
        lp = copy.copy(self)
        lp._reset(starts)
        return lp

    def keep(self, rows) -> None:
        """Keep only the starts ``rows``, in that order."""
        self._basis, self._inverse = self._basis[rows], self._inverse[rows]
        self.pivots = self.pivots[rows]

    def solve(self, costs: np.ndarray) -> tuple[np.ndarray, list]:
        """Solve row t of ``costs`` (T, n*m) from start t's basis; (plans
        (T, n, m), errors) as ``solve_exact_ot`` returns them. A row with a
        non-finite cost fails with NonFinite, one that reaches the pivot cap
        with NoConvergence; the other rows are solved as if alone."""
        n, m = self.shape
        T = len(self)
        plans = np.zeros((T, n * m))
        errors: list = [None] * T
        self.pivots = np.zeros(T, dtype=np.int64)
        self.rounds = 0
        finite = np.isfinite(costs).all(axis=1)
        for t in np.flatnonzero(~finite):
            errors[t] = NonFinite(f"transportation LP {t} has a non-finite cost")
        s = _Starts(self, np.flatnonzero(finite), costs)
        while s.index.size > 1:
            self.rounds += 1
            bland = self.rounds > n * m
            enter, gain = s.price(bland)
            done = gain >= s.neg_tol
            if done.any():
                if self.rounds > 1:
                    # the duals of a start that looks optimal were updated
                    # by its pivots: recompute them and price again
                    s.y[done] = _duals(
                        s.c[done], s.basis[done], s.inverse[done].astype(np.float64)
                    )
                    enter[done], gain[done] = s.price(bland, done)
                    done = gain >= s.neg_tol
                if done.any():
                    self._leave(s)
                    enter, gain = enter[~done], gain[~done]
                    s.keep(~done)
            if self.rounds > self.max_pivots:
                break
            if s.index.size:
                s.pivot(enter, gain, bland)
        if s.index.size == 1 and self.rounds <= self.max_pivots and self._solve_one(s):
            self._leave(s)
        elif s.index.size:
            for t in s.index:
                errors[t] = NoConvergence(
                    f"transportation LP {t} reached the pivot cap ({self.max_pivots})"
                )
            self._leave(s)
        # every start without an error is solved: its plan is B^-1 b of its
        # saved basis, clipped at 0
        solved = np.flatnonzero([error is None for error in errors])
        values = np.clip(self._inverse[solved].astype(np.float64) @ self._b, 0.0, None)
        plans[solved[:, None], self._basis[solved]] = values
        if self._void.size:
            plans[:, self._void] = 0.0
        return plans.reshape(T, n, m), errors

    def _solve_one(self, s) -> bool:
        """The rounds of the last active start: the steps of the stacked
        rounds on plain views of its state, without the fancy indexing a
        stack needs. True once it is optimal, False at the pivot cap."""
        n, m = self.shape
        c, y, neg_tol = s.c[0].reshape(n, m), s.y[0], s.neg_tol[0]
        u, v = y[:n, None], y[n:]
        inverse, x, basis = s.inverse[0], s.x[0], s.basis[0]
        rows, cols = self._ends
        while True:
            self.rounds += 1
            bland = self.rounds > n * m
            enter, gain = _price_one(c, u, v, neg_tol, bland)
            if gain >= neg_tol and self.rounds > 1:
                y[:] = _duals(s.c, s.basis, s.inverse.astype(np.float64))[0]
                enter, gain = _price_one(c, u, v, neg_tol, bland)
            if gain >= neg_tol:
                return True
            if self.rounds > self.max_pivots:
                return False
            d = inverse[:, rows[enter]] + inverse[:, cols[enter]]
            ratio = np.where(d > 0, x, np.inf)
            out = ratio.argmin()
            if bland:
                out = np.where(ratio <= ratio[out] + _MASS_TOL, basis, n * m).argmin()
            theta = ratio[out]
            row = inverse[out].copy()
            d[out] = 0
            x -= theta * d
            inverse -= np.multiply.outer(d, row)
            basis[out] = enter
            y += gain * row

    def _leave(self, s):
        """Save the bases, inverses and pivot counts of all starts in ``s``;
        ``solve`` reads the solved starts' plans out of the saved bases once,
        at the end of the call."""
        self._basis[s.index], self._inverse[s.index] = s.basis, s.inverse
        self.pivots[s.index] = self.rounds - 1


class _Starts:
    """The state of the starts a ``TransportLp.solve`` still pivots, one row
    per start: its index in the stack, costs, dual tolerance, basis cells,
    basis inverse, basic values x and duals y. ``reduced`` (T, n, m), sized
    for the starts the solve began with, holds each pricing's reduced
    costs in its first rows."""

    FIELDS = ("index", "c", "neg_tol", "basis", "inverse", "x", "y")

    def __init__(self, lp, index, costs):
        self.n, self.m = lp.shape
        self.rows, self.cols = lp._ends
        # with every row finite, the state is views of the arrays it updates
        rows = slice(None) if index.size == len(costs) else index
        self.index, self.c = index, costs[rows]
        self.neg_tol = -_DUAL_TOL * np.abs(self.c).max(axis=1, initial=0.0)
        self.basis, self.inverse = lp._basis[rows], lp._inverse[rows]
        inverse = self.inverse.astype(np.float64)
        self.x, self.y = inverse @ lp._b, _duals(self.c, self.basis, inverse)
        self.starts = np.arange(index.size)
        self.reduced = np.empty((index.size, self.n, self.m))

    def keep(self, rows):
        for name in self.FIELDS:
            setattr(self, name, getattr(self, name)[rows])
        self.starts = np.arange(self.index.size)

    def price(self, bland, rows=slice(None)):
        """The entering cell of each start in ``rows`` and its reduced cost:
        the most negative one, or under Bland's rule the first below
        -tol. The reduced costs go into the solve's one buffer."""
        n, m = self.n, self.m
        y = self.y[rows]
        reduced = self.reduced[: len(y)]
        np.subtract(self.c[rows].reshape(-1, n, m), y[:, :n, None], out=reduced)
        reduced -= y[:, None, n:]
        reduced = reduced.reshape(len(y), n * m)
        if bland:
            enter = (reduced < self.neg_tol[rows, None]).argmax(axis=1)
        else:
            enter = reduced.argmin(axis=1)
        return enter, reduced[self.starts[: len(y)], enter]

    def pivot(self, enter, gain, bland):
        """One pivot of every start: cell ``enter`` of reduced cost ``gain``
        enters. The leaving row's entry of the cycle is zeroed, which keeps
        that row of the inverse and its basic value as they are."""
        inverse, x, starts = self.inverse, self.x, self.starts
        # the entering cell's column in basic coordinates: +-1 on its cycle
        d = inverse[starts, :, self.rows[enter]] + inverse[starts, :, self.cols[enter]]
        ratio = np.where(d > 0, x, np.inf)
        out = ratio.argmin(axis=1)
        if bland:
            tied = ratio <= ratio[starts, out, None] + _MASS_TOL
            out = np.where(tied, self.basis, self.n * self.m).argmin(axis=1)
        theta = ratio[starts, out]
        row = inverse[starts, out]
        d[starts, out] = 0
        x -= theta[:, None] * d
        inverse -= d[:, :, None] * row[:, None, :]
        self.basis[starts, out] = enter
        self.y += gain[:, None] * row


def _price_one(c, u, v, neg_tol, bland):
    """``_Starts.price`` of a lone start on views of its (n, m) costs and
    its duals u (n, 1) and v (m,), as two scalars."""
    reduced = c - u
    reduced -= v
    reduced = reduced.ravel()
    enter = (reduced < neg_tol).argmax() if bland else reduced.argmin()
    return enter, reduced[enter]


def _duals(c, basis, inverse):
    """The duals (u, v) of each start's basis, v[m-1] = 0 for the dropped
    constraint: c_B B^-1."""
    return (c[np.arange(len(c))[:, None], basis][:, None, :] @ inverse)[:, 0]


def _tree_inverse(cells, n, m):
    """The inverse of the basis of the spanning tree ``cells``, int8, with a
    zero column for the dropped constraint.

    Rooted at that constraint's node (column m-1), each cell ships the mass
    of the nodes S below it: with a its end away from the root, the masses
    of S's nodes on a's side less those of S's other nodes. Its row of
    B^-1 is so +1 on the first and -1 on the second; S is a range of a
    depth-first order of the nodes.
    """
    w = n + m
    adjacent = [[] for _ in range(w)]
    for cell, (i, j) in enumerate(zip((cells // m).tolist(), (n + cells % m).tolist())):
        adjacent[i].append((j, cell))
        adjacent[j].append((i, cell))
    below = [0] * len(cells)
    up = [-1] * w  # the cell joining each node to its parent
    first, last = [0] * w, [0] * w
    clock = 1
    stack = [(w - 1, iter(adjacent[w - 1]))]
    while stack:
        node, edges = stack[-1]
        for other, cell in edges:
            if cell != up[node]:
                up[other], below[cell], first[other] = cell, other, clock
                clock += 1
                stack.append((other, iter(adjacent[other])))
                break
        else:
            last[node] = clock
            stack.pop()
    a, first, last = np.array(below), np.array(first), np.array(last)
    inside = (first[a, None] <= first) & (first < last[a, None])
    same = (np.arange(w) >= n) == (a >= n)[:, None]
    return np.where(inside, np.where(same, 1, -1), 0).astype(np.int8)


def _north_west_corner(h, g):
    """The cells i*m + j of the north-west-corner basis of (h, g).

    The rule walks a staircase from cell (0, 0) to (n-1, m-1), moving down
    once a row's mass is used up and right otherwise; its n+m-1 cells are a
    spanning tree, and the plan that ships min(supply, demand) along the
    walk is feasible; a tie or a zero-mass atom only puts a zero on the
    staircase.
    """
    n, m = h.size, g.size
    cells = []
    i = j = 0
    supply, demand = h[0], g[0]
    while True:
        cells.append(i * m + j)
        if i == n - 1 and j == m - 1:
            return np.array(cells)
        if j == m - 1 or (i < n - 1 and supply <= demand):
            demand -= supply
            i += 1
            supply = h[i]
        else:
            supply -= demand
            j += 1
            demand = g[j]


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


# A task's runner-up agent within this of its best (or of zero) counts as
# tied, and the rounding MILP settles it: HiGHS treats reduced costs within
# its dual feasibility tolerance (1e-7) as zero.
_TIE_MARGIN = 1e-6


def nearest_capacity_assignment(shares, u, d) -> np.ndarray:
    """Binary x (n, m) within the capacities u minimizing first the number
    of tasks of demand d it leaves uncovered, then ||x - shares||^2.

    For binary x and Y = shares, ||x - Y||^2 = sum x (1 - 2Y) + const, a
    sum that moves by less than 2nm + 1, the cost of one uncovered task.
    An agent can hold task j only if u_i >= d_j, and task j costs the sum
    of 1 - 2Y over the agents holding it. So when every task has such an
    agent whose cost each other such agent exceeds, and exceeds zero, by
    over _TIE_MARGIN, and those agents' loads fit, giving each task that
    agent is the unique optimum and is returned without a solver.
    Otherwise one HiGHS MILP over x (n*m) and z (m), z_j = 1 marking task
    j uncovered, gives the answer to HiGHS's default relative gap
    (``mip_rel_gap``, 1e-4), and among equally near assignments HiGHS's
    search picks the one returned.
    """
    n, m = shares.shape
    u = np.asarray(u, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    cost = 1.0 - 2.0 * shares
    x = _cheapest_admissible(cost, u, d)
    if x is not None:
        return x
    cost = np.concatenate([cost.ravel(), np.full(m, 2.0 * n * m + 1.0)])
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


def _cheapest_admissible(cost, u, d) -> np.ndarray | None:
    """x giving each task j the agent i with u_i >= d_j of least cost[i, j],
    if every task has one, each runner-up costs over _TIE_MARGIN more than
    max(best, 0), and the loads fit the capacities u; else None."""
    n, m = cost.shape
    c = np.where(u[:, None] >= d[None, :], cost, np.inf)
    tasks = np.arange(m)
    best = c.argmin(axis=0)
    first = c[best, tasks]
    c[best, tasks] = np.inf
    if not (
        np.isfinite(first).all()
        and (c.min(axis=0) > np.maximum(first, 0.0) + _TIE_MARGIN).all()
        and (np.bincount(best, weights=d, minlength=n) <= u).all()
    ):
        return None
    x = np.zeros((n, m), dtype=np.int64)
    x[best, tasks] = 1
    return x


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
