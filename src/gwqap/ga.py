"""Genetic-algorithm baseline for CQAP.

Chromosomes are task priority permutations; a greedy decoder assigns each
task in priority order to the feasible facility with the smallest marginal
objective increase, so capacity feasibility holds by construction. Tasks
that fit nowhere stay unassigned and are penalized in the fitness.

`solve_ga` decodes and scores each distinct priority once per run (and
decodes the winner once more to return it), so its cost grows with the
number of distinct chromosomes it meets rather than with population x
generations. The loop evolves tuples and draws the values `Generator.integers`
and `Generator.random` would give from PCG64 words fetched in bulk: a 50 x 50
run on S1/S2 takes about 15 ms, against 20 ms with one ctypes call per draw
and 100 ms with numpy's calls, bitwise alike.

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


_BLOCK = 1024  # words per random_raw call
_PENDING = 1 << 32  # flag bit of a 32-bit half that is still to be drawn


class _Draws:
    """`rng.integers(0, n)` and `rng.random()`, value for value, read from
    PCG64 words fetched 1024 at a time with `random_raw`.

    A 32-bit draw takes a word's low half and keeps the high half pending
    for the next one, as the bit generator's own `has_uint32`/`uinteger`
    buffer does; the reader starts from that buffer, so it continues a
    stream `rng.permutation` has drawn from. A double takes a whole word.
    `below` is numpy's Lemire rejection for ranges up to 2^32
    (`buffered_bounded_lemire_uint32`). Until `hand_back` the bit generator
    stands past the words fetched, not the words read, so nothing else may
    draw from it."""

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        state = self._bits.state
        # the last 32-bit half, with the _PENDING bit while not yet drawn;
        # a drawn half stays, as numpy's uinteger does
        self._half = state["uinteger"] | state["has_uint32"] * _PENDING
        self._words: list[int] = []  # unread words of the block, next last
        self._block_start = None  # the bit generator's state before the fetch

    def _word(self) -> int:
        try:
            return self._words.pop()
        except IndexError:
            self._block_start = self._bits.state
            self._words = self._bits.random_raw(_BLOCK)[::-1].tolist()
            return self._words.pop()

    def _uint32(self) -> int:
        half = self._half
        if half & _PENDING:
            self._half = half ^ _PENDING
            return half ^ _PENDING
        word = self._word()
        self._half = word >> 32 | _PENDING
        return word & 0xFFFFFFFF

    def below(self, n: int) -> int:
        if not 1 <= n <= 1 << 32:
            raise ValueError("below(n) needs 1 <= n <= 2^32")
        if n == 1:
            return 0  # numpy draws nothing for n == 1
        m = self._uint32() * n
        if m & 0xFFFFFFFF < n:  # only then can the low word be biased
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:  # Lemire's rejection
                m = self._uint32() * n
        return m >> 32

    def unit(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def hand_back(self):
        """Leave the bit generator where these draws stopped: rewind it to
        the block's start, fetch again only the words read, and give it the
        32-bit buffer."""
        if self._words:
            self._bits.state = self._block_start
            self._bits.random_raw(_BLOCK - len(self._words))
            self._words = []
        self._bits.state = dict(
            self._bits.state,
            has_uint32=self._half >> 32,
            uinteger=self._half & 0xFFFFFFFF,
        )


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
        best_fit = fits[best]
        for _ in range(TOURNAMENT_SIZE - 1):
            c = below(config.population)
            fit = fits[c]
            if fit < best_fit or fit == best_fit and c < best:  # ties: lower index
                best, best_fit = c, fit
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
