"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible facility with the smallest marginal
objective increase, so capacity feasibility holds by construction. Tasks
that fit nowhere stay unassigned and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations. Each generation draws all its random numbers in three numpy
calls, one row per child whether the row is used or not: the tournament
entrants, the crossover and mutation tests, and the two cut and two swap
positions. A 50 x 50 run on S1/S2 takes about 6 ms (2 vCPUs, shared).

Only the population and generation count are settings; the rates and the
tournament size are module constants. Tournaments draw with replacement, so
any population of at least two can run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeedPolicy, check_count
from .cqap import AssignmentMatrix, CqapInstance, cqap_objective

UNASSIGNED_PENALTY = 1e6
CROSSOVER_RATE = 0.9
MUTATION_RATE = 0.2
TOURNAMENT_SIZE = 3


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    seed: SeedPolicy = field(default_factory=lambda: SeedPolicy(0))

    def __post_init__(self):
        check_count("population", self.population, 2)
        check_count("generations", self.generations, 0)


def decode(inst: CqapInstance, priority) -> AssignmentMatrix:
    """Greedy capacity-feasible decoding of a priority permutation (a
    sequence of task indices)."""
    F = inst.flow.entries
    D = inst.distance.entries
    own = inst.own_cost
    x = np.zeros((inst.n, inst.m))
    residual = inst.capacity.copy()
    for j in priority:
        feasible = np.flatnonzero(residual >= inst.demand[j])
        if feasible.size == 0:
            continue
        # objective increase of setting x[i, j] = 1: task j's own cost plus
        # column j of the interaction F x D^T with the tasks placed so far
        delta = own[:, j][feasible] + 2.0 * (F @ (x @ D[j]))[feasible]
        i = feasible[np.argmin(delta)]
        x[i, j] = 1
        residual[i] -= inst.demand[j]
    return AssignmentMatrix(x)


def _order_crossover(p1: tuple, p2: tuple, a: int, b: int) -> tuple:
    """OX: the child keeps p1 between cut positions a and b (either order,
    both included) and fills the rest with p2's other tasks in p2's order."""
    a, b = min(a, b), max(a, b)
    keep = set(p1[a : b + 1])
    fill = [t for t in p2 if t not in keep]
    fill[a:a] = p1[a : b + 1]
    return tuple(fill)


def _swap_mutation(p: tuple, i: int, j: int) -> tuple:
    q = list(p)
    q[i], q[j] = q[j], q[i]
    return tuple(q)


def solve_ga(
    inst: CqapInstance, config: GaConfig
) -> tuple[AssignmentMatrix, float, np.ndarray]:
    """Tournament-selection GA with OX crossover, swap mutation, elitism 1.

    Returns (best assignment, its cqap_objective, best-fitness-per-generation
    history). Fully deterministic given the config seed.
    """
    rng = config.seed.generator()
    P, m = config.population, inst.m
    pop = [tuple(rng.permutation(m).tolist()) for _ in range(P)]

    # priority -> fitness, for this run only. Assignments are not kept: at
    # n x m integers per distinct priority they would outgrow the population
    # on large instances, so the winner is decoded once more at the end.
    seen: dict[tuple, float] = {}

    def fitness(p):
        if p not in seen:
            x = decode(inst, p)
            unassigned = int((x.x.sum(axis=0) == 0).sum())
            seen[p] = cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned
        return seen[p]

    history = []
    for generation in range(config.generations + 1):
        if generation:
            # every child's numbers, drawn whether they are used or not
            entrants = rng.integers(0, P, size=(P - 1, 2, TOURNAMENT_SIZE))
            tests = rng.random((P - 1, 2)) < (CROSSOVER_RATE, MUTATION_RATE)
            cuts = rng.integers(0, m, size=(P - 1, 4))
            # rank by (fitness, index): a tournament goes to its fittest
            # entrant, ties to the lower index
            order = np.argsort(fits, kind="stable")
            rank = np.argsort(order)
            parents = order[rank[entrants].min(axis=2)]
            children = [pop[order[0]]]  # elitism
            for (i1, i2), (cross, mutate), (a, b, i, j) in zip(
                parents.tolist(), tests.tolist(), cuts.tolist()
            ):
                child = _order_crossover(pop[i1], pop[i2], a, b) if cross else pop[i1]
                children.append(_swap_mutation(child, i, j) if mutate else child)
            pop = children
        fits = np.array([fitness(p) for p in pop])
        history.append(float(fits.min()))  # elitism keeps this non-increasing

    best_x = decode(inst, pop[int(np.argmin(fits))])
    return best_x, cqap_objective(inst, best_x), np.array(history)
