"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible agent with the smallest objective
increase, priced by ``cqap.placements`` as in the exact oracle, so capacity
feasibility holds by construction. Tasks that fit nowhere stay unassigned
and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations. The population is an int64 (P, m) array, and each generation
builds all P - 1 children with array operations from three numpy draws,
one row per child whether the row is used or not: the tournament entrants,
the crossover and mutation tests, and the two cut and two swap positions.
A 50 x 50 run on S1/S2 takes about 5 ms (2 vCPUs, shared).

Only the population and generation count are settings; the rates and the
tournament size are module constants. Tournaments draw with replacement, so
any population of at least two can run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeedPolicy, check_count
from .cqap import AssignmentMatrix, CqapInstance, cqap_objective, placements

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
    """Greedy capacity-feasible decoding of a priority permutation (task
    indices): each task goes to the agent ``cqap.placements`` prices lowest."""
    x = np.zeros((inst.n, inst.m))
    residual = inst.capacity.copy()
    for j in priority:
        agents, costs = placements(inst, x, residual, j)
        if agents.size == 0:
            continue
        i = agents[np.argmin(costs)]
        x[i, j] = 1
        residual[i] -= inst.demand[j]
    return AssignmentMatrix(x)


def _order_crossover_rows(p1: np.ndarray, p2: np.ndarray, a, b, cross) -> np.ndarray:
    """OX on rows: where ``cross`` holds, child k keeps p1[k] between cut
    positions a[k] and b[k] (either order, both included) and fills the rest
    with p2[k]'s other tasks in p2[k]'s order; elsewhere it is p1[k]."""
    rows = np.arange(len(p1))[:, None]
    pos = np.arange(p1.shape[1])
    segment = (pos >= np.minimum(a, b)[:, None]) & (pos <= np.maximum(a, b)[:, None])
    segment |= ~cross[:, None]
    kept = np.zeros_like(segment)
    kept[rows, p1] = segment
    child = p1.copy()
    # each row has as many free positions as fill tasks, so the row-major
    # order of both masks pairs them row by row, in order
    child[~segment] = p2[~kept[rows, p2]]
    return child


def _swap_mutation_rows(p: np.ndarray, i, j, mutate) -> np.ndarray:
    """Swap positions i[k] and j[k] of each row k where ``mutate`` holds."""
    q = p.copy()
    k = np.flatnonzero(mutate)
    q[k, i[k]], q[k, j[k]] = p[k, j[k]], p[k, i[k]]
    return q


def solve_ga(
    inst: CqapInstance, config: GaConfig
) -> tuple[AssignmentMatrix, float, np.ndarray]:
    """Tournament-selection GA with OX crossover, swap mutation, elitism 1.

    Returns (best assignment, its cqap_objective, best-fitness-per-generation
    history). Fully deterministic given the config seed.
    """
    rng = config.seed.generator()
    P, m = config.population, inst.m
    pop = np.array([rng.permutation(m) for _ in range(P)], dtype=np.int64)

    # row bytes -> fitness, for this run only. Assignments are not kept: at
    # n x m integers per distinct priority they would outgrow the population
    # on large instances, so the winner is decoded once more at the end.
    seen: dict[bytes, float] = {}

    def fitness(key):
        x = decode(inst, _priority(key))
        unassigned = int((x.x.sum(axis=0) == 0).sum())
        return cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned

    history = []
    for generation in range(config.generations + 1):
        if generation:
            # every child's numbers, drawn whether they are used or not
            entrants = rng.integers(0, P, size=(P - 1, 2, TOURNAMENT_SIZE))
            cross, mutate = (rng.random((P - 1, 2)) < (CROSSOVER_RATE, MUTATION_RATE)).T
            a, b, i, j = rng.integers(0, m, size=(P - 1, 4)).T
            # rank by (fitness, index): a tournament goes to its fittest
            # entrant, ties to the lower index
            order = np.argsort(fits, kind="stable")
            rank = np.argsort(order)
            p1, p2 = pop[order[rank[entrants].min(axis=2)].T]
            children = _order_crossover_rows(p1, p2, a, b, cross)
            children = _swap_mutation_rows(children, i, j, mutate)
            pop = np.concatenate([pop[order[:1]], children])  # elitism
        keys = pop.view(np.dtype((np.void, 8 * m))).ravel().tolist()
        for key in keys:
            if key not in seen:
                seen[key] = fitness(key)
        fits = np.array([seen[key] for key in keys])
        history.append(float(fits.min()))  # elitism keeps this non-increasing

    best_x = decode(inst, _priority(keys[int(np.argmin(fits))]))
    return best_x, cqap_objective(inst, best_x), np.array(history)


def _priority(key: bytes) -> tuple:
    """The task priority a population row's bytes hold, as Python ints."""
    return tuple(np.frombuffer(key, dtype=np.int64).tolist())
