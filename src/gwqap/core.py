"""Shared domain types and the deterministic RNG policy.

Each type checks its own data when it is built: ``Histogram``,
``SymCostMatrix``, ``GaussianMeasure`` and ``Coupling`` convert to float64
and reject a non-finite entry (NonFinite) before the checks that a NaN would
pass. ``_as_matrix`` also checks an exact shape (DimensionMismatch); a
``Coupling``'s plan, an ``AssignmentMatrix`` and every cost or plan that
``linear_ot``, ``gw`` and ``cqap`` take go through it or
``_as_float_array``, so a solver sees only finite float64 arrays.

All arithmetic is float64. Tolerances are fixed library-wide: histogram
mass HIST_TOL, coupling marginals MARGINAL_TOL (post-solve, solver inits,
Sinkhorn's stopping test), matrix symmetry SYMMETRY_TOL, polytope projection
delta PROJECTION_DELTA within at most PROJECTION_MAX_SWEEPS scaling sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllZero,
    DimensionMismatch,
    NegativeWeight,
    NonFinite,
    NonSquare,
    NotPSD,
    SumNotOne,
    ValidationError,
)

HIST_TOL = 1e-12
MARGINAL_TOL = 1e-9
SYMMETRY_TOL = 1e-12
PROJECTION_DELTA = 1e-12
PROJECTION_MAX_SWEEPS = 10_000


def check_count(name: str, value, low: int):
    """Raise ValidationError unless value is an integer >= low; a bool is
    not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{name} must be >= {low} and an integer, got {value!r}")


def _as_float_array(x, ndim, what, kinds="iuf"):
    """x as a finite float64 array of ndim dimensions; ``what`` names it in
    errors. Only the numpy dtype kinds in ``kinds`` convert: integers and
    floats, and bools ("b") where 0/1 is the domain; a string is no number."""
    a = np.asarray(x)
    if a.dtype.kind not in kinds:
        raise ValidationError(f"{what} must hold numbers, got dtype {a.dtype}")
    a = a.astype(np.float64, copy=False)
    if a.ndim != ndim:
        raise DimensionMismatch(f"{what} must be {ndim}-d, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"{what} has a non-finite entry")
    return a


def _as_matrix(x, shape, what):
    """x as a finite float64 array of exactly ``shape``; ``what`` names it in errors."""
    a = _as_float_array(x, len(shape), what)
    if a.shape != shape:
        raise DimensionMismatch(f"{what} is {a.shape}, expected {shape}")
    return a


@dataclass(frozen=True)
class Histogram:
    """Finite nonnegative weights summing to 1 (HIST_TOL); never renormalized."""

    weights: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weights, 1, "histogram")
        if w.shape[0] < 1:
            raise DimensionMismatch("histogram needs at least one entry")
        if np.any(w < 0):
            raise NegativeWeight(f"negative weight at index {int(np.argmin(w))}")
        s = float(w.sum())
        if abs(s - 1.0) > HIST_TOL:
            raise SumNotOne(f"weights sum to {s!r}, expected 1 within {HIST_TOL}")
        object.__setattr__(self, "weights", w)

    @property
    def n(self) -> int:
        return self.weights.shape[0]

    def __eq__(self, other):
        return isinstance(other, Histogram) and np.array_equal(
            self.weights, other.weights
        )


def normalize_masses(raw) -> Histogram:
    """Turn a finite nonnegative mass vector (e.g. capacities) into a Histogram."""
    r = _as_float_array(raw, 1, "masses")
    if np.any(r < 0):
        raise NegativeWeight("masses must be nonnegative")
    s = float(r.sum())
    if s <= 0:
        raise AllZero("cannot normalize an all-zero mass vector")
    w = r / s
    # kill residual roundoff so the unit-mass check passes exactly
    w = w / w.sum()
    return Histogram(w)


@dataclass(frozen=True)
class Coupling:
    """Transport plan with its declared marginals."""

    plan: np.ndarray
    row_marginal: Histogram
    col_marginal: Histogram

    @property
    def shape(self):
        return self.plan.shape

    def __post_init__(self):
        shape = (self.row_marginal.n, self.col_marginal.n)
        object.__setattr__(self, "plan", _as_matrix(self.plan, shape, "plan"))


def marginal_violation(coupling: Coupling) -> tuple[float, float]:
    """Inf-norm deviation of the plan's row/column sums from its marginals."""
    return _marginal_errors(coupling.plan, coupling.row_marginal, coupling.col_marginal)


def _marginal_errors(plan, h: Histogram, g: Histogram) -> tuple[float, float]:
    """Inf-norm deviation of a checked plan's row/column sums from h and g."""
    row_err = float(np.abs(plan.sum(axis=1) - h.weights).max())
    col_err = float(np.abs(plan.sum(axis=0) - g.weights).max())
    return row_err, col_err


@dataclass(frozen=True)
class SymCostMatrix:
    """Square, finite, symmetric (to SYMMETRY_TOL) structure matrix of
    pairwise dissimilarities."""

    entries: np.ndarray

    def __post_init__(self):
        # finiteness first: an inf pair's difference is NaN, which passes
        # the symmetry test
        e = _as_float_array(self.entries, 2, "structure matrix")
        if e.shape[0] != e.shape[1]:
            raise NonSquare(f"structure matrix must be square, got {e.shape}")
        if np.abs(e - e.T).max(initial=0.0) > SYMMETRY_TOL:
            raise DimensionMismatch("structure matrix is not symmetric")
        object.__setattr__(self, "entries", e)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class MmSpace:
    """Metric-measure space: structure matrix and mass histogram."""

    structure: SymCostMatrix
    mass: Histogram

    @property
    def n(self) -> int:
        return self.mass.n

    def __post_init__(self):
        if self.structure.n != self.mass.n:
            raise DimensionMismatch(
                f"structure is {self.structure.n}x{self.structure.n} "
                f"but mass has {self.mass.n} atoms"
            )


@dataclass(frozen=True)
class GaussianMeasure:
    """Gaussian measure given by a finite mean vector and PSD covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = _as_float_array(self.mean, 1, "mean")
        cov = _as_float_array(self.covariance, 2, "covariance")
        if cov.shape[0] != cov.shape[1]:
            raise NonSquare("covariance must be square")
        if cov.shape[0] != mean.shape[0]:
            raise DimensionMismatch("mean / covariance dimension mismatch")
        if np.abs(cov - cov.T).max(initial=0.0) > SYMMETRY_TOL:
            raise NotPSD("covariance is not symmetric")
        if np.linalg.eigvalsh(cov).min() < -1e-12:
            raise NotPSD("covariance has a negative eigenvalue")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)


@dataclass(frozen=True)
class SeedPolicy:
    """Deterministic per-stream RNG derivation.

    The same (master_seed, stream_id) pair yields an identical stream in any
    process or thread; derived streams for trial t use stream_id offset by t.
    """

    master_seed: int
    stream_id: int = 0

    def __post_init__(self):
        # numpy's SeedSequence takes only nonnegative integers
        check_count("master_seed", self.master_seed, 0)
        check_count("stream_id", self.stream_id, 0)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id,)
        )
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, offset: int) -> "SeedPolicy":
        return SeedPolicy(self.master_seed, self.stream_id + offset)


def product_coupling(h: Histogram, g: Histogram) -> Coupling:
    """Independence coupling h (x) g, the default solver initialization."""
    return Coupling(np.outer(h.weights, g.weights), h, g)
