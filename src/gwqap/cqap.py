"""Capacitated QAP: instance model, GW reduction, rounding, exact oracle.

An instance assigns agents (facilities, capacities u) to tasks (locations,
demands d) minimizing

    sum_{i,k,j,l} F[i,k] D[j,l] x[i,j] x[k,l]  +  sum_{i,j} C[i,j] x[i,j]

subject to per-agent capacity (sum_j d_j x_ij <= u_i) and per-task demand
coverage (sum_i u_i x_ij >= d_j) over binary x.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from .core import Coupling, MmSpace, SymCostMatrix, _as_float_array, normalize_masses
from .errors import (
    DimensionMismatch,
    Infeasible,
    NegativeWeight,
    NoConvergence,
    NonPositiveExact,
    ValidationError,
)
from .gw import FgwProblem, GwProblem
from .linear_ot import _binary_program, _transport_constraints


@dataclass(frozen=True)
class CqapInstance:
    """Array fields take array-likes: u and d become int64, the rest float64."""

    agent_pos: np.ndarray  # n x k
    task_pos: np.ndarray  # m x k
    capacity: np.ndarray  # n positive ints
    demand: np.ndarray  # m positive ints
    flow: SymCostMatrix  # n x n
    distance: SymCostMatrix  # m x m
    linear_cost: np.ndarray  # n x m

    @property
    def n(self) -> int:
        return self.capacity.shape[0]

    @property
    def m(self) -> int:
        return self.demand.shape[0]

    def __post_init__(self):
        for name in ("capacity", "demand"):
            a = _as_float_array(getattr(self, name), 1, name)
            if not (a == np.trunc(a)).all():
                raise ValidationError(f"{name} must be whole numbers")
            object.__setattr__(self, name, a.astype(np.int64))
        for name, what in zip(("agent_pos", "task_pos", "linear_cost"),
                              ("agent positions", "task positions", "linear cost")):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), 2, what))
        n, m = self.n, self.m
        F, D, C = self.flow.entries, self.distance.entries, self.linear_cost
        # the exact oracle prunes on partial costs, a bound only if none is
        # < 0; all are finite by now (SymCostMatrix checks F and D)
        for name, a in (("flow", F), ("distance", D), ("linear cost", C)):
            if np.any(a < 0):
                raise NegativeWeight(f"{name} has a negative entry")
        if self.flow.n != n or self.distance.n != m:
            raise DimensionMismatch("flow/distance sizes disagree with u/d")
        if C.shape != (n, m):
            raise DimensionMismatch("linear cost must be n x m")
        if np.any(self.capacity < 1) or np.any(self.demand < 1):
            raise DimensionMismatch("capacities and demands must be >= 1")
        P, Q = self.agent_pos, self.task_pos
        if P.shape[0] != n or Q.shape != (m, P.shape[1]):
            raise DimensionMismatch(
                f"positions are {P.shape} and {Q.shape}, need n x k and m x k"
            )

    @cached_property
    def own_cost(self) -> np.ndarray:
        """C[i,j] + F[i,i] D[j,j]: agent i's cost of holding task j alone."""
        diag_f = np.diag(self.flow.entries)
        diag_d = np.diag(self.distance.entries)
        return self.linear_cost + diag_f[:, None] * diag_d[None, :]


@dataclass(frozen=True)
class AssignmentMatrix:
    x: np.ndarray  # n x m binary

    def __post_init__(self):
        if not ((self.x == 0) | (self.x == 1)).all():
            raise DimensionMismatch("assignment entries must be 0/1")


def cqap_objective(inst: CqapInstance, assignment: AssignmentMatrix) -> float:
    """Exact quadratic-plus-linear value of a binary assignment."""
    return _objective(inst, np.asarray(assignment.x, dtype=np.float64))


def _objective(inst: CqapInstance, x: np.ndarray) -> float:
    if x.shape != (inst.n, inst.m):
        raise DimensionMismatch(f"x is {x.shape}, instance is ({inst.n}, {inst.m})")
    F = inst.flow.entries
    D = inst.distance.entries
    quad = float((x * (F @ x @ D.T)).sum())
    lin = float((inst.linear_cost * x).sum())
    return quad + lin


def check_feasible(inst: CqapInstance, assignment: AssignmentMatrix):
    """Capacity and demand-coverage check; returns (ok, violations)."""
    x = assignment.x
    if x.shape != (inst.n, inst.m):
        raise DimensionMismatch(f"x is {x.shape}, instance is ({inst.n}, {inst.m})")
    violations = []
    load = x @ inst.demand
    for i in np.flatnonzero(load > inst.capacity):
        violations.append(
            ("capacity", int(i), int(load[i] - inst.capacity[i]))
        )
    covered = inst.capacity @ x
    for j in np.flatnonzero(covered < inst.demand):
        violations.append(
            ("demand", int(j), int(inst.demand[j] - covered[j]))
        )
    return len(violations) == 0, violations


def to_gw_problem(inst: CqapInstance) -> GwProblem:
    """CQAP as a GW problem: structures (F, D), marginals from (u, d).

    The loss is the product loss F[i,k] * D[j,l] (see ``gw``), so minimizing
    the GW loss minimizes the CQAP quadratic term; the squared loss would
    maximize it. F and D are scaled to unit maximum, which leaves the
    Frank-Wolfe steps unchanged and makes the GW term dimensionless, so the
    entropic epsilon and the FGW alpha weigh it on a fixed scale. The
    concavity weight rho(F) * rho(D), the top eigenvalue of the loss's
    Hessian for these nonnegative matrices, is the smallest that makes the
    Frank-Wolfe objective concave on all plans: each solve then stops at a
    vertex after a few full steps, and the starts of a multi-init reach
    different local minima.

    The polytope is the balanced one, rows u / sum(u) and columns
    d / sum(d), which keeps FGW at alpha = 0 equal to exact OT on these
    marginals. It fixes every agent's load in proportion to its capacity,
    so it holds no binary assignment when sum(u) > sum(d); that spare
    capacity is settled by ``round_coupling``, which rounds under the
    CQAP's own constraints.
    """
    flow = _unit_max(inst.flow.entries)
    distance = _unit_max(inst.distance.entries)
    source = MmSpace(
        structure=SymCostMatrix(flow),
        mass=normalize_masses(inst.capacity),
    )
    target = MmSpace(
        structure=SymCostMatrix(distance),
        mass=normalize_masses(inst.demand),
    )
    concavity = _spectral_radius(flow) * _spectral_radius(distance)
    return GwProblem(
        source=source, target=target, loss="product", concavity=concavity
    )


def _unit_max(a: np.ndarray) -> np.ndarray:
    top = np.abs(a).max(initial=0.0)
    return a / top if top > 0 else a


def _spectral_radius(a: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvalsh(a)).max())


def to_fgw_problem(inst: CqapInstance, alpha: float) -> FgwProblem:
    return FgwProblem(
        gw=to_gw_problem(inst), feature_cost=inst.linear_cost, alpha=alpha
    )


def mass_scale(inst: CqapInstance) -> float:
    """Scale S mapping coupling mass back to capacity units (S = sum u)."""
    return float(inst.capacity.sum())


def coupling_objective(inst: CqapInstance, plan: Coupling) -> float:
    """Relaxed CQAP value of a coupling, evaluated on X = S * plan."""
    return _objective(inst, mass_scale(inst) * plan.plan)


def round_coupling(inst: CqapInstance, plan: Coupling) -> AssignmentMatrix:
    """Round a coupling to a binary assignment, feasible whenever the
    instance admits one.

    The coupling's column shares Y[i,j] = plan[i,j] / sum_k plan[k,j] say
    which part of task j each agent holds. The rounding is the assignment
    nearest to Y in Frobenius norm under the CQAP's capacity constraints
    that leaves the fewest tasks uncovered: a generalized assignment
    problem solved exactly as a MILP. A descent then moves one task to
    another agent, or swaps the agents of two tasks, while that lowers the
    CQAP objective and keeps every load within capacity. On an instance no
    assignment satisfies, the result covers as many tasks as possible and
    check_feasible reports the rest.
    """
    if plan.plan.shape != (inst.n, inst.m):
        raise DimensionMismatch("plan shape does not match instance")
    col = plan.plan.sum(axis=0)
    shares = np.divide(
        plan.plan, col[None, :], out=np.zeros_like(plan.plan), where=col > 0
    )
    x = _nearest_assignment(inst, shares)
    return AssignmentMatrix(_descend(inst, x))


def _nearest_assignment(inst: CqapInstance, shares: np.ndarray) -> np.ndarray:
    """Binary x within capacity minimizing first the number of uncovered
    tasks, then ||x - shares||^2; one HiGHS MILP.

    Variables are x (n*m) and z (m), z_j = 1 marking task j uncovered.
    For binary x, ||x - Y||^2 = sum x (1 - 2Y) + const, a sum that moves by
    less than 2nm + 1, the cost of one uncovered task.
    """
    n, m = inst.n, inst.m
    u = inst.capacity.astype(np.float64)
    d = inst.demand.astype(np.float64)
    cost = np.concatenate(
        [(1.0 - 2.0 * shares).ravel(), np.full(m, 2.0 * n * m + 1.0)]
    )
    A = _assignment_constraints(u, d)
    lower = np.concatenate([np.full(n, -np.inf), d])
    upper = np.concatenate([u, np.full(m, np.inf)])
    x = _binary_program(cost, A, lower, upper)[: n * m]
    return np.rint(x).reshape(n, m).astype(np.int64)


def _assignment_constraints(u: np.ndarray, d: np.ndarray) -> sparse.csc_matrix:
    """CSC rows [capacity; coverage] over columns [x (n*m); z (m)].

    Column i*m + j has the transportation LP's pattern (rows i and n + j)
    with values d_j and u_i; column n*m + j holds d_j in row n + j.
    """
    n, m = u.size, d.size
    T = _transport_constraints(n, m)
    xz = np.column_stack([np.tile(d, n), np.repeat(u, m)]).ravel()
    z = np.arange(m, dtype=T.indices.dtype)
    return sparse.csc_matrix(
        (
            np.concatenate([xz, d]),
            np.concatenate([T.indices, n + z]),
            np.concatenate([T.indptr, T.indptr[-1] + 1 + z]),
        ),
        shape=(n + m, n * m + m),
    )


def _descend(inst: CqapInstance, x: np.ndarray) -> np.ndarray:
    """Best-improvement descent over task moves and pairwise task swaps.

    A move gives task j to a single agent k; a swap exchanges the agents of
    two tasks that each have one. Objective changes come from
    G = F x D, updated in O(nm) per accepted step.
    """
    F = inst.flow.entries
    D = inst.distance.entries
    C = inst.linear_cost
    u = inst.capacity
    d = inst.demand
    x = x.copy()
    G = F @ x @ D
    load = x @ d
    diag_f = np.diag(F)
    diag_d = np.diag(D)
    scale = max(1.0, abs(cqap_objective(inst, AssignmentMatrix(x))))
    while True:
        # moves: column j becomes e_k; delta = 2 e^T G[:, j] + D_jj e^T F e
        # + e^T C[:, j] with e = e_k - x[:, j]
        Fx = F @ x
        self_g = (x * G).sum(axis=0)
        self_c = (x * C).sum(axis=0)
        self_f = (x * Fx).sum(axis=0)
        move = (
            2.0 * (G - self_g)
            + diag_d * (diag_f[:, None] - 2.0 * Fx + self_f)
            + (C - self_c)
        )
        fits = load[:, None] - x * d[None, :] + d[None, :] <= u[:, None]
        single = x.sum(axis=0) == 1
        move[~fits | ((x == 1) & single[None, :])] = np.inf
        k, j = np.unravel_index(np.argmin(move), move.shape)
        best, changes = move[k, j], [(j, k)]

        # swaps between single-agent tasks a, b with agents p = s[a], q = s[b]
        J = np.flatnonzero(single)
        if J.size > 1:
            s = np.argmax(x[:, J], axis=0)
            Gs = G[np.ix_(s, J)]  # Gs[a, b] = G[s_a, J_b]
            Cs = C[np.ix_(s, J)]
            gd = np.diag(Gs)
            cd = np.diag(Cs)
            Dj = D[np.ix_(J, J)]
            phi = diag_f[s][:, None] + diag_f[s][None, :] - 2.0 * F[np.ix_(s, s)]
            swap = (
                2.0 * (Gs.T - gd[:, None] - gd[None, :] + Gs)
                + phi * (diag_d[J][:, None] + diag_d[J][None, :] - 2.0 * Dj)
                + (Cs.T - cd[:, None] - cd[None, :] + Cs)
            )
            dj = d[J]
            lj = load[s] - dj
            ok = (lj[:, None] + dj[None, :] <= u[s][:, None]) & (
                lj[None, :] + dj[:, None] <= u[s][None, :]
            )
            ok &= s[:, None] != s[None, :]
            ok &= np.triu(np.ones_like(ok), 1)
            swap[~ok] = np.inf
            a, b = np.unravel_index(np.argmin(swap), swap.shape)
            if swap[a, b] < best:
                best, changes = swap[a, b], [(J[a], s[b]), (J[b], s[a])]

        if not best < -1e-12 * scale:
            return x
        for j, k in changes:
            _reassign(x, G, load, F, D, d, j, k)


def _reassign(x, G, load, F, D, d, j, k):
    """Give task j to agent k alone, updating G = F x D and the loads."""
    e = -x[:, j].astype(np.float64)
    e[k] += 1.0
    load += (e * d[j]).astype(load.dtype)
    x[:, j] = 0
    x[k, j] = 1
    G += np.outer(F @ e, D[j, :])


def solve_exact_enum(
    inst: CqapInstance, node_cap: int = 100_000_000
) -> tuple[AssignmentMatrix, float, bool]:
    """Exact oracle: depth-first branch and bound with one agent per task.

    A task never needs two agents: the capacity row makes every agent on
    task j hold d_j by itself, and all costs are nonnegative, so dropping
    the extra agents keeps an assignment feasible and never raises its
    cost. The search gives the tasks, in index order, each to an agent
    whose residual capacity holds the demand, in index order, and prunes on
    the partial objective (a lower bound, since every cost term is
    nonnegative; ``CqapInstance`` checks that). Returns (best x, objective,
    proven); proven is False when the node cap interrupted the search.
    Raises Infeasible when no assignment can satisfy the constraints, and
    NoConvergence when the cap stops the search before it finds one.
    """
    n, m = inst.n, inst.m
    d = inst.demand
    F = inst.flow.entries
    D = inst.distance.entries
    short = np.flatnonzero(d > inst.capacity.max())
    if short.size:
        raise Infeasible(f"no agent can hold the demand of task {short[0]}")
    own = inst.own_cost  # pairs with earlier tasks are added below
    agent = np.zeros(m, dtype=np.int64)
    residual = inst.capacity.copy()
    best_val = np.inf
    best = None
    nodes = 0

    def dfs(j, value):
        # False once the node cap is hit
        nonlocal best_val, best, nodes
        nodes += 1
        if nodes > node_cap:
            return False
        if j == m:
            if value < best_val:
                best_val, best = value, agent.copy()
            return True
        added = own[:, j] + 2.0 * (F[:, agent[:j]] @ D[j, :j])
        for i in np.flatnonzero(residual >= d[j]):
            if value + added[i] >= best_val:
                continue
            agent[j] = i
            residual[i] -= d[j]
            searched = dfs(j + 1, value + added[i])
            residual[i] += d[j]
            if not searched:
                return False
        return True

    proven = dfs(0, 0.0)
    if best is None:
        if not proven:
            raise NoConvergence(
                "node cap hit before any feasible assignment was found"
            )
        raise Infeasible("no assignment satisfies capacity and demand")
    x = np.zeros((n, m), dtype=np.int64)
    x[best, np.arange(m)] = 1
    result = AssignmentMatrix(x)
    # re-evaluate through the canonical objective so the reported value is
    # bitwise comparable with any other evaluation of the same assignment
    return result, cqap_objective(inst, result), proven


def gap_percent(approx: float, exact: float) -> float:
    """Relative excess over the proven optimum, in percent."""
    if exact <= 0:
        raise NonPositiveExact(f"exact optimum must be positive, got {exact}")
    return (approx - exact) / exact * 100.0
