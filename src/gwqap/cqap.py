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

from .core import (
    Coupling, MmSpace, SymCostMatrix, _as_float_array, _as_matrix, check_count, normalize_masses
)
from .errors import (
    DimensionMismatch,
    Infeasible,
    NegativeWeight,
    NoConvergence,
    NonPositiveExact,
    ValidationError,
)
from .gw import FgwProblem, GwProblem
from .linear_ot import nearest_capacity_assignment

# nodes the exact oracle searches before it gives up; at about 10-16 us a
# node, an M-size instance it does not prove takes some 17-27 minutes
ORACLE_NODE_CAP = 100_000_000


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
            given = np.asarray(getattr(self, name))
            a = _as_float_array(given, 1, name)
            # checked as given and before the int64 cast: float64 rounds
            # whole numbers above 2**53, and the cast overflows past 2**63
            if np.any(given > 2**53):
                raise ValidationError(f"{name} must be <= 2**53, got {given.max()}")
            if not (a == np.trunc(a)).all():
                raise ValidationError(f"{name} must be whole numbers")
            if np.any(a < 1):
                raise ValidationError("capacities and demands must be >= 1")
            object.__setattr__(self, name, a.astype(np.int64))
        n, m = self.n, self.m
        C = _as_matrix(self.linear_cost, (n, m), "linear cost")
        object.__setattr__(self, "linear_cost", C)
        for name, what in (("agent_pos", "agent positions"), ("task_pos", "task positions")):
            object.__setattr__(self, name, _as_float_array(getattr(self, name), 2, what))
        F, D = self.flow.entries, self.distance.entries
        # the exact oracle prunes on partial costs, a bound only if none is
        # < 0; all are finite by now (SymCostMatrix checks F and D)
        for name, a in (("flow", F), ("distance", D), ("linear cost", C)):
            if np.any(a < 0):
                raise NegativeWeight(f"{name} has a negative entry")
        if self.flow.n != n or self.distance.n != m:
            raise DimensionMismatch("flow/distance sizes disagree with u/d")
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
    x: np.ndarray  # n x m binary array-like (bools too), stored as int64

    def __post_init__(self):
        x = _as_float_array(self.x, 2, "assignment", kinds="biuf")
        if not ((x == 0) | (x == 1)).all():
            raise ValidationError("assignment entries must be 0/1")
        object.__setattr__(self, "x", x.astype(np.int64))


def cqap_objective(inst: CqapInstance, assignment: AssignmentMatrix) -> float:
    """Exact quadratic-plus-linear value of a binary assignment."""
    return _objective(inst, assignment.x)


def _objective(inst: CqapInstance, x) -> float:
    x = _as_matrix(x, (inst.n, inst.m), "x")
    F = inst.flow.entries
    D = inst.distance.entries
    quad = float((x * (F @ x @ D.T)).sum())
    lin = float((inst.linear_cost * x).sum())
    return quad + lin


def check_feasible(inst: CqapInstance, assignment: AssignmentMatrix):
    """Capacity and demand-coverage check; returns (ok, violations)."""
    x = _as_matrix(assignment.x, (inst.n, inst.m), "x")
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
    problem that ``linear_ot.nearest_capacity_assignment`` solves exactly
    as one HiGHS MILP. When several assignments are equally near, HiGHS's
    search picks the one returned, so a HiGHS release or a solver option
    can change the pick. A descent then moves one task to another agent,
    or swaps the agents of two tasks, while that lowers the CQAP objective
    and keeps every load within capacity. On an instance no assignment
    satisfies, the result covers as many tasks as possible and
    check_feasible reports the rest.
    """
    p = _as_matrix(plan.plan, (inst.n, inst.m), "plan")
    col = p.sum(axis=0)
    shares = np.divide(p, col[None, :], out=np.zeros_like(p), where=col > 0)
    x = nearest_capacity_assignment(shares, inst.capacity, inst.demand)
    return AssignmentMatrix(_descend(inst, x))


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
    # the objective of x, from the G = F x D already at hand
    scale = max(1.0, abs((x * G).sum() + (C * x).sum()))
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


def placements(inst: CqapInstance, x: np.ndarray, residual: np.ndarray, j: int):
    """The agents whose residual capacity holds d_j, in index order, and the
    objective increase of giving task j to each alone in the partial 0/1
    assignment x: its own cost plus column j of 2 F x D."""
    agents = np.flatnonzero(residual >= inst.demand[j])
    F, D = inst.flow.entries, inst.distance.entries
    return agents, (inst.own_cost[:, j] + 2.0 * (F @ (x @ D[j])))[agents]


def solve_exact_enum(
    inst: CqapInstance, node_cap: int = ORACLE_NODE_CAP
) -> tuple[AssignmentMatrix, float, bool]:
    """Exact oracle: depth-first branch and bound with one agent per task.

    A task never needs two agents: the capacity row makes every agent on
    task j hold d_j by itself, and all costs are nonnegative, so dropping
    the extra agents keeps an assignment feasible and never raises its
    cost. The search gives the tasks, in index order, each to one of the
    agents ``placements`` offers, at the cost it prices, and prunes on the
    partial objective (a lower bound, since every cost term is
    nonnegative; ``CqapInstance`` checks that). Returns (best x, objective,
    proven); proven is False when the node cap interrupted the search.
    Raises Infeasible when no assignment can satisfy the constraints, and
    NoConvergence when the cap stops the search before it finds one.
    """
    check_count("node_cap", node_cap, 1)
    m = inst.m
    d = inst.demand
    short = np.flatnonzero(d > inst.capacity.max())
    if short.size:
        raise Infeasible(f"no agent can hold the demand of task {short[0]}")
    x = np.zeros((inst.n, m))
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
                best_val, best = value, x.copy()
            return True
        for i, cost in zip(*placements(inst, x, residual, j)):
            if value + cost >= best_val:
                continue
            x[i, j] = 1
            residual[i] -= d[j]
            searched = dfs(j + 1, value + cost)
            residual[i] += d[j]
            x[i, j] = 0
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
    result = AssignmentMatrix(best)
    # re-evaluate through the canonical objective so the reported value is
    # bitwise comparable with any other evaluation of the same assignment
    return result, cqap_objective(inst, result), proven


def gap_percent(approx: float, exact: float) -> float:
    """Relative excess over the proven optimum, in percent."""
    if exact <= 0:
        raise NonPositiveExact(f"exact optimum must be positive, got {exact}")
    return (approx - exact) / exact * 100.0
