import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwqap import (
    Coupling,
    GaussianMeasure,
    Histogram,
    MethodSpec,
    MmSpace,
    SeedPolicy,
    SymCostMatrix,
    marginal_violation,
    normalize_masses,
    product_coupling,
    sinkhorn_project,
    solve_entropic_gw,
)
from gwqap.cqap import CqapInstance
from gwqap.errors import (
    AllZero,
    DimensionMismatch,
    NegativeWeight,
    NonFinite,
    NonSquare,
    SumNotOne,
    ValidationError,
)
from gwqap.gw import FgwProblem, GwProblem

NAN = float("nan")
UNIF2 = Histogram(np.array([0.5, 0.5]))
LINE2 = MmSpace(SymCostMatrix(np.array([[0.0, 1.0], [1.0, 0.0]])), UNIF2)


def _fractional_capacity():
    one = SymCostMatrix(np.zeros((1, 1)))
    CqapInstance(np.zeros((1, 2)), np.zeros((1, 2)), np.array([2.5]), np.array([1]),
                 one, one, np.zeros((1, 1)))


def _nan_epsilon():
    # the suite's method table has long refused it; the solver now does too
    with pytest.raises(ValidationError):
        MethodSpec("egw", {"epsilon": NAN})
    solve_entropic_gw(GwProblem(LINE2, LINE2), NAN)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: SymCostMatrix([[0.0, 1.0], [2.0, 0.0]]), DimensionMismatch),
        (lambda: SymCostMatrix(np.zeros((2, 3))), NonSquare),
        (lambda: SymCostMatrix([[0.0, NAN], [NAN, 0.0]]), NonFinite),
        (lambda: Histogram([NAN, 1.0]), NonFinite),
        (lambda: Histogram([0.5, 0.5, 0.5]), SumNotOne),
        (lambda: Histogram([[0.5, 0.5]]), DimensionMismatch),
        (lambda: normalize_masses([np.inf, 1.0]), NonFinite),
        (lambda: GaussianMeasure(np.zeros(2), np.array([[1.0, NAN], [NAN, 1.0]])), NonFinite),
        (_fractional_capacity, ValidationError),
        (lambda: FgwProblem(GwProblem(LINE2, LINE2), np.array([[NAN, 0.0], [0.0, 0.0]]), 0.5),
         NonFinite),
        (lambda: sinkhorn_project(np.full((2, 2), NAN), UNIF2, UNIF2), ValidationError),
        (_nan_epsilon, ValidationError),
    ],
    ids=[
        "asymmetric-structure", "non-square-structure", "nan-structure",
        "nan-weight", "mass-1.5", "nested-list-weights", "inf-mass",
        "nan-covariance", "fractional-capacity", "nan-feature-cost",
        "nan-projection-input", "nan-epsilon",
    ],
)
def test_each_type_rejects_bad_data(build, error):
    """Every domain type checks its data when built; nothing reaches a solver
    unchecked."""
    with pytest.raises(error):
        build()


def test_types_convert_array_likes():
    assert Histogram([0.5, 0.5]).weights.dtype == np.float64
    assert SymCostMatrix([[0, 1], [1, 0]]).entries.dtype == np.float64
    fgw = FgwProblem(GwProblem(LINE2, LINE2), [[0, 1], [1, 0]], 0.5)
    assert fgw.feature_cost.dtype == np.float64


class TestValidateHistogram:
    def test_uniform_ok(self):
        h = Histogram([0.5, 0.5])
        assert np.array_equal(h.weights, [0.5, 0.5])

    def test_single_atom_ok(self):
        assert Histogram([1.0]).n == 1

    def test_sum_not_one(self):
        with pytest.raises(SumNotOne):
            Histogram([0.6, 0.6])

    def test_negative_weight(self):
        with pytest.raises(NegativeWeight):
            Histogram([1.5, -0.5])

    def test_never_renormalizes(self):
        with pytest.raises(SumNotOne):
            Histogram([0.3, 0.3])

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20))
    def test_idempotent_on_valid(self, raw):
        h = normalize_masses(np.array(raw))
        again = Histogram(h.weights)
        assert again == h


class TestNormalizeMasses:
    def test_equal_masses(self):
        assert np.array_equal(normalize_masses([2, 2]).weights, [0.5, 0.5])

    def test_arithmetic(self):
        h = normalize_masses([1, 2, 3])
        assert np.allclose(h.weights, [1 / 6, 2 / 6, 3 / 6])
        assert h.weights.sum() == 1.0

    def test_all_zero(self):
        with pytest.raises(AllZero):
            normalize_masses([0, 0])


class TestMarginalViolation:
    def test_product_coupling_exact(self):
        h = normalize_masses([1, 2, 3])
        g = normalize_masses([4, 1])
        assert marginal_violation(product_coupling(h, g)) == (0.0, 0.0)

    def test_single_entry_perturbation(self):
        h = Histogram([0.5, 0.5])
        plan = np.outer(h.weights, h.weights)
        plan[0, 0] += 1e-3
        row, col = marginal_violation(Coupling(plan, h, h))
        assert row == pytest.approx(1e-3)
        assert col == pytest.approx(1e-3)

    def test_one_by_one(self):
        h = Histogram([1.0])
        assert marginal_violation(Coupling(np.array([[1.0]]), h, h)) == (0.0, 0.0)


class TestSeedPolicy:
    def test_identical_streams(self):
        a = SeedPolicy(123, 7).generator().random(100)
        b = SeedPolicy(123, 7).generator().random(100)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = SeedPolicy(123, 0).generator().random(10)
        b = SeedPolicy(123, 1).generator().random(10)
        assert not np.array_equal(a, b)

    def test_substream_matches_direct_construction(self):
        assert SeedPolicy(5, 2).substream(3) == SeedPolicy(5, 5)
