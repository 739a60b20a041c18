"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible facility with the smallest marginal
objective increase, so capacity feasibility holds by construction. Tasks
that fit nowhere stay unassigned and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations. The loop evolves tuples and draws the values `Generator.integers`
and `Generator.random` would give straight from the bit generator: a 50 x 50
run on S1/S2 takes about 30 ms, not 100 ms as with numpy's calls, bitwise alike.

Only the population and generation count are settings; the rates and the
tournament size are module constants. Tournaments draw with replacement, so
any population of at least two can run them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SeedPolicy
from .cqap import AssignmentMatrix, CqapInstance, cqap_objective
from .errors import ValidationError

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
        for name, low in (("population", 2), ("generations", 0)):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < low:
                raise ValidationError(f"{name} must be >= {low} and an integer, got {value!r}")


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
    return AssignmentMatrix(x.astype(np.int64))


class _Draws:
    """`rng.integers(0, n)` and `rng.random()`, value for value, read from the
    bit generator without numpy's per-call overhead. `below` is numpy's
    Lemire rejection for ranges up to 2^32 (`buffered_bounded_lemire_uint32`),
    and `next_uint32` shares the buffered 32-bit half with `rng.permutation`."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng  # the ctypes state pointer does not keep it alive
        c = rng.bit_generator.ctypes
        self._state, self._uint32, self._double = c.state, c.next_uint32, c.next_double

    def below(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError("below(n) needs 1 <= n <= 2^32")
        m = self._uint32(self._state) * n if n > 1 else 0  # numpy draws nothing for n == 1
        while m & 0xFFFFFFFF < (1 << 32) % n:  # Lemire's rejection of a biased low word
            m = self._uint32(self._state) * n
        return m >> 32

    def unit(self) -> float:
        return self._double(self._state)


def _order_crossover(p1: tuple, p2: tuple, draws: _Draws) -> tuple:
    a, b = sorted((draws.below(len(p1)), draws.below(len(p1))))
    keep = set(p1[a : b + 1])
    fill = [t for t in p2 if t not in keep]
    fill[a:a] = p1[a : b + 1]
    return tuple(fill)


def _swap_mutation(p: tuple, draws: _Draws) -> tuple:
    i, j = draws.below(len(p)), draws.below(len(p))
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
    pop = [tuple(rng.permutation(inst.m).tolist()) for _ in range(config.population)]
    draws = _Draws(rng)
    below, unit = draws.below, draws.unit

    def pick():
        best = below(config.population)
        for _ in range(TOURNAMENT_SIZE - 1):
            c = below(config.population)
            if (fits[c], c) < (fits[best], best):
                best = c
        return pop[best]

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
            children = [pop[fits.index(min(fits))]]
            while len(children) < config.population:
                p1, p2 = pick(), pick()
                child = _order_crossover(p1, p2, draws) if unit() < CROSSOVER_RATE else p1
                if unit() < MUTATION_RATE:
                    child = _swap_mutation(child, draws)
                children.append(child)
            pop = children
        fits = [fitness(p) for p in pop]
        history.append(float(min(fits)))  # elitism keeps this non-increasing

    best_x = decode(inst, pop[fits.index(min(fits))])
    return best_x, cqap_objective(inst, best_x), np.array(history)
