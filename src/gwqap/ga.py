"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible facility with the smallest marginal
objective increase, so capacity feasibility holds by construction. Tasks
that fit nowhere stay unassigned and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeedPolicy
from .cqap import AssignmentMatrix, CqapInstance, cqap_objective

UNASSIGNED_PENALTY = 1e6


@dataclass(frozen=True)
class GaConfig:
    population: int = 100
    generations: int = 200
    crossover_rate: float = 0.9
    mutation_rate: float = 0.2
    tournament_size: int = 3
    seed: SeedPolicy = field(default_factory=lambda: SeedPolicy(0))

    def __post_init__(self):
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if self.generations < 0:
            raise ValueError("generations must be >= 0")
        if not (0.0 <= self.crossover_rate <= 1.0 and 0.0 <= self.mutation_rate <= 1.0):
            raise ValueError("rates must lie in [0, 1]")
        if not 2 <= self.tournament_size <= self.population:
            raise ValueError("tournament_size must be in [2, population]")


@dataclass(frozen=True)
class Chromosome:
    priority: np.ndarray  # permutation of task indices


def decode(inst: CqapInstance, chrom: Chromosome) -> AssignmentMatrix:
    """Greedy capacity-feasible decoding of a priority permutation."""
    F = inst.flow.entries
    D = inst.distance.entries
    own = inst.own_cost
    x = np.zeros((inst.n, inst.m))
    residual = inst.capacity.copy()
    for j in chrom.priority:
        feasible = np.flatnonzero(residual >= inst.demand[j])
        if feasible.size == 0:
            continue
        # objective increase of setting x[i, j] = 1: task j's own cost plus
        # column j of the interaction F x D^T with the tasks placed so far
        delta = own[:, j][feasible] + 2.0 * (F @ (x @ D[j]))[feasible]
        i = feasible[np.argmin(delta)]
        x[i, j] = 1
        residual[i] -= inst.demand[j]
    return AssignmentMatrix(x.astype(np.int64))


def _fitness(inst: CqapInstance, x: AssignmentMatrix) -> float:
    unassigned = int((x.x.sum(axis=0) == 0).sum())
    return cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned


def _order_crossover(p1, p2, rng):
    a, b = sorted(rng.integers(0, p1.shape[0], size=2))
    kept = np.zeros(p1.shape[0], dtype=bool)
    kept[p1[a : b + 1]] = True
    fill = p2[~kept[p2]]
    return np.concatenate((fill[:a], p1[a : b + 1], fill[a:]))


def _swap_mutation(p, rng):
    m = p.shape[0]
    q = p.copy()
    i, j = rng.integers(0, m, size=2)
    q[i], q[j] = q[j], q[i]
    return q


def solve_ga(
    inst: CqapInstance, config: GaConfig
) -> tuple[AssignmentMatrix, float, np.ndarray]:
    """Tournament-selection GA with OX crossover, swap mutation, elitism 1.

    Returns (best assignment, its cqap_objective, best-fitness-per-generation
    history). Fully deterministic given the config seed.
    """
    rng = config.seed.generator()
    pop = [rng.permutation(inst.m) for _ in range(config.population)]

    def pick():
        contenders = rng.integers(0, config.population, size=config.tournament_size)
        return pop[min(contenders, key=lambda c: (fits[c], c))]

    # priority bytes -> fitness, for this run only. Assignments are not kept:
    # at n x m integers per distinct priority they would outgrow the population
    # on large instances, so the winner is decoded once more at the end.
    seen: dict[bytes, float] = {}

    def fitness(p):
        key = p.tobytes()
        if key not in seen:
            seen[key] = _fitness(inst, decode(inst, Chromosome(p)))
        return seen[key]

    history = []
    for generation in range(config.generations + 1):
        if generation:
            children = [pop[int(np.argmin(fits))]]
            while len(children) < config.population:
                p1, p2 = pick(), pick()
                if rng.random() < config.crossover_rate:
                    child = _order_crossover(p1, p2, rng)
                else:
                    child = p1
                if rng.random() < config.mutation_rate:
                    child = _swap_mutation(child, rng)
                children.append(child)
            pop = children
        fits = np.array([fitness(p) for p in pop])
        history.append(float(fits.min()))  # elitism keeps this non-increasing

    best_x = decode(inst, Chromosome(pop[int(np.argmin(fits))]))
    return best_x, cqap_objective(inst, best_x), np.array(history)
