"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible agent with the smallest objective
increase, priced by ``cqap.placements`` as in the exact oracle, so capacity
feasibility holds by construction. Tasks that fit nowhere stay unassigned
and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations. The population is an int64 (P, m) array, seeded by one
``Generator.permuted`` call. Each generation draws all P - 1 children's
numbers in three numpy calls, one row per child whether the row is used or
not: the tournament entrants, the crossover and mutation tests, and the two
cut and two swap positions. The numbers are drawn DRAW_BLOCK generations at
a time, and what depends only on them (each child's OX fill positions and
swap cells) is built for the whole block in a few array operations. A
generation then does only the population-dependent steps, writing into the
other of two population buffers: rank the fitness, run the tournaments,
copy the first winners, fill in the second winners' tasks, swap one pair
of cells per child (a cell with itself where it does not mutate) and keep
the elite. A 50 x 50 run on S1/S2 takes about 3.3-4.3 ms (2 vCPUs, shared).

Only the population and generation count are settings; the rates, the
tournament size and DRAW_BLOCK are module constants. Tournaments draw with
replacement, so any population of at least two can run them.
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
DRAW_BLOCK = 32  # generations whose numbers are drawn and prepared at once


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


def _free_positions(a, b, cross, m: int) -> np.ndarray:
    """The OX fill positions of each child (..., m): those outside the cuts
    a and b (either order, both included) where ``cross`` holds, none where
    it does not."""
    pos = np.arange(m)
    inside = (pos >= np.minimum(a, b)[..., None]) & (pos <= np.maximum(a, b)[..., None])
    return ~inside & cross[..., None]


def _fill_crossover(child: np.ndarray, p2: np.ndarray, free: np.ndarray):
    """OX fill in place: ``child`` holds the first parents; its ``free``
    positions take p2's tasks that they hold, in p2's order."""
    rows = np.arange(len(child))[:, None]
    free_task = np.empty_like(free)
    free_task[rows, child] = free
    # each row has as many free positions as fill tasks, so the row-major
    # order of both masks pairs them row by row, in order
    child[free] = p2[free_task[rows, p2]]


def _swap_cells(flat: np.ndarray, fi, fj):
    """Swap cells fi[k] and fj[k] of a flat view in place, for every k; a
    pair with fi[k] == fj[k] keeps its cell."""
    held = flat[fi]
    flat[fi] = flat[fj]
    flat[fj] = held


def _row_cells(i, m: int) -> np.ndarray:
    """The flat indices of cell i[k] of row k, for rows of length m."""
    return i + m * np.arange(i.shape[-1])


def _order_crossover_rows(p1: np.ndarray, p2: np.ndarray, a, b, cross) -> np.ndarray:
    """OX on rows: where ``cross`` holds, child k keeps p1[k] between cut
    positions a[k] and b[k] (either order, both included) and fills the rest
    with p2[k]'s other tasks in p2[k]'s order; elsewhere it is p1[k]."""
    child = p1.copy()
    free = _free_positions(a, b, cross, p1.shape[1])
    _fill_crossover(child, p2, free)
    return child


def _swap_mutation_rows(p: np.ndarray, i, j, mutate) -> np.ndarray:
    """Swap positions i[k] and j[k] of each row k where ``mutate`` holds."""
    q = p.copy()
    m = p.shape[1]
    _swap_cells(q.reshape(-1), _row_cells(i, m), _row_cells(np.where(mutate, j, i), m))
    return q


def _draw_blocks(rng, P: int, m: int, generations: int):
    """Per generation, the parts of its P - 1 children that do not depend on
    the population: the tournament entrants (T, P - 1, 2), the OX fill
    positions, and the flat indices of the two cells each child swaps, the
    same cell twice where it does not mutate. The numbers are drawn
    DRAW_BLOCK generations at a time, each generation's three Generator
    calls in order, and the rest is derived for the whole block at once."""
    T, rates = TOURNAMENT_SIZE, (CROSSOVER_RATE, MUTATION_RATE)
    for start in range(0, generations, DRAW_BLOCK):
        B = min(DRAW_BLOCK, generations - start)
        entrants = np.empty((B, P - 1, 2, T), dtype=np.int64)
        tests = np.empty((B, P - 1, 2))
        cuts = np.empty((B, P - 1, 4), dtype=np.int64)
        for g in range(B):
            entrants[g] = rng.integers(0, P, size=(P - 1, 2, T))
            tests[g] = rng.random((P - 1, 2))
            cuts[g] = rng.integers(0, m, size=(P - 1, 4))
        cross, mutate = np.moveaxis(tests < rates, -1, 0)
        a, b, i, j = np.moveaxis(cuts, -1, 0)
        free = _free_positions(a, b, cross, m)
        swaps = _row_cells(i, m), _row_cells(np.where(mutate, j, i), m)
        # entrant t of every tournament in one slab, so the fittest entrant
        # is an elementwise minimum over T slabs
        entrants = np.ascontiguousarray(np.moveaxis(entrants, -1, 1))
        yield from zip(entrants, free, *swaps)


def solve_ga(
    inst: CqapInstance, config: GaConfig
) -> tuple[AssignmentMatrix, float, np.ndarray]:
    """Tournament-selection GA with OX crossover, swap mutation, elitism 1.

    Returns (best assignment, its cqap_objective, best-fitness-per-generation
    history). Fully deterministic given the config seed.
    """
    rng = config.seed.generator()
    P, m = config.population, inst.m
    pop = rng.permuted(np.tile(np.arange(m, dtype=np.int64), (P, 1)), axis=1)
    nxt = np.empty_like(pop)  # the next generation is built here
    rank, positions = np.empty(P, dtype=np.intp), np.arange(P)

    # row bytes -> fitness, for this run only. Assignments are not kept: at
    # n x m integers per distinct priority they would outgrow the population
    # on large instances, so the winner is decoded once more at the end.
    seen: dict[bytes, float] = {}

    def score(pop):
        keys = pop.view(np.dtype((np.void, 8 * m))).ravel().tolist()
        for key in keys:
            if key not in seen:
                x = decode(inst, _priority(key))
                unassigned = int((x.x.sum(axis=0) == 0).sum())
                seen[key] = cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned
        return keys, np.fromiter(map(seen.__getitem__, keys), float, P)

    keys, fits = score(pop)
    history = [float(fits.min())]
    for entrants, free, fi, fj in _draw_blocks(rng, P, m, config.generations):
        # rank by (fitness, index): a tournament goes to its fittest
        # entrant, ties to the lower index
        order = np.argsort(fits, kind="stable")
        rank[order] = positions
        winners = order.take(np.minimum.reduce(rank.take(entrants)))
        children = nxt[1:]
        children[...] = pop.take(winners[:, 0], axis=0)
        _fill_crossover(children, pop.take(winners[:, 1], axis=0), free)
        _swap_cells(children.reshape(-1), fi, fj)
        nxt[0] = pop[order[0]]  # elitism
        pop, nxt = nxt, pop
        keys, fits = score(pop)
        history.append(float(fits.min()))  # elitism keeps this non-increasing

    best_x = decode(inst, _priority(keys[int(np.argmin(fits))]))
    return best_x, cqap_objective(inst, best_x), np.array(history)


def _priority(key: bytes) -> tuple:
    """The task priority a population row's bytes hold, as Python ints."""
    return tuple(np.frombuffer(key, dtype=np.int64).tolist())
