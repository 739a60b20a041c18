import numpy as np
import pytest
from hypothesis import given, strategies as st

from gwqap import (
    AssignmentMatrix,
    Coupling,
    GaussianMeasure,
    Histogram,
    MethodSpec,
    MmSpace,
    SeedPolicy,
    SymCostMatrix,
    check_feasible,
    cqap_objective,
    gw_gradient,
    gw_loss,
    marginal_violation,
    normalize_masses,
    product_coupling,
    round_coupling,
    sinkhorn,
    sinkhorn_project,
    solve_entropic_gw,
    solve_exact_ot,
    solve_gw,
    solve_lap,
)
from gwqap.cqap import CqapInstance
from gwqap.errors import (
    AllZero,
    DimensionMismatch,
    InvalidInit,
    NegativeWeight,
    NonFinite,
    NonSquare,
    NotPSD,
    SumNotOne,
    ValidationError,
)
from gwqap.gw import FgwProblem, GwProblem
from tests.test_cqap import make_instance

NAN = float("nan")
INF = float("inf")
UNIF2 = Histogram(np.array([0.5, 0.5]))
UNIF3 = normalize_masses([1.0, 1.0, 1.0])
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
        (lambda: sinkhorn_project(np.full((2, 2), NAN), UNIF2, UNIF2), NonFinite),
        (_nan_epsilon, ValidationError),
        (lambda: Histogram([]), DimensionMismatch),
        (lambda: normalize_masses([-1.0, 2.0]), NegativeWeight),
        (lambda: MmSpace(LINE2.structure, Histogram([1.0])), DimensionMismatch),
        (lambda: GaussianMeasure(np.zeros(2), np.zeros((2, 3))), NonSquare),
        (lambda: GaussianMeasure(np.zeros(3), np.eye(2)), DimensionMismatch),
        (lambda: GaussianMeasure(np.zeros(2), [[1.0, 0.5], [0.0, 1.0]]), NotPSD),
        (lambda: Coupling([[NAN, 0.5], [0.5, 0.0]], UNIF2, UNIF2), NonFinite),
        (lambda: Coupling([0.5, 0.5], UNIF2, UNIF2), DimensionMismatch),
        (lambda: Coupling(np.full((2, 3), 1 / 6), UNIF2, UNIF2), DimensionMismatch),
        (lambda: solve_lap([[NAN, 0.0], [0.0, 0.0]]), NonFinite),
        (lambda: solve_exact_ot([[NAN, 0.0], [0.0, 0.0]], UNIF2, UNIF2), NonFinite),
        (lambda: solve_exact_ot([[INF, 0.0], [0.0, 0.0]], UNIF2, UNIF2), NonFinite),
        (lambda: solve_exact_ot([[INF, INF], [0.0, 0.0]], UNIF2, UNIF2), NonFinite),
        (lambda: sinkhorn([[NAN, 0.0], [0.0, 0.0]], UNIF2, UNIF2, 0.1), NonFinite),
        (lambda: sinkhorn_project([[INF, 1.0], [1.0, 1.0]], UNIF2, UNIF2), NonFinite),
        (lambda: GwProblem(LINE2, LINE2, concavity=-1.0), ValidationError),
        (lambda: FgwProblem(GwProblem(LINE2, LINE2), np.zeros((2, 3)), 0.5), DimensionMismatch),
        (lambda: gw_loss(GwProblem(LINE2, LINE2), np.full((2, 2), NAN)), NonFinite),
        (lambda: gw_gradient(GwProblem(LINE2, LINE2), np.full((2, 2), NAN)), NonFinite),
        (lambda: solve_gw(GwProblem(LINE2, LINE2), product_coupling(UNIF2, Histogram([1.0]))),
         InvalidInit),
        (lambda: make_instance([1, 1], [1, 1], flow=[[0.0]]), DimensionMismatch),
        (lambda: make_instance([1, 1], [1, 1], linear=np.zeros((2, 3))), DimensionMismatch),
        (lambda: make_instance([0, 1], [1, 1]), ValidationError),
        (lambda: AssignmentMatrix([[2]]), ValidationError),
        (lambda: AssignmentMatrix([[NAN]]), NonFinite),
        (lambda: AssignmentMatrix([1, 0]), DimensionMismatch),
        (lambda: cqap_objective(make_instance([1, 1], [1, 1]), AssignmentMatrix(np.eye(3))),
         DimensionMismatch),
        (lambda: check_feasible(make_instance([1, 1], [1, 1]), AssignmentMatrix(np.eye(3))),
         DimensionMismatch),
        (lambda: round_coupling(make_instance([1, 1], [1, 1]),
                                product_coupling(Histogram([1.0]), UNIF2)), DimensionMismatch),
        (lambda: gw_loss(GwProblem(LINE2, LINE2), product_coupling(UNIF3, UNIF3)),
         DimensionMismatch),
        (lambda: sinkhorn_project([[0.0, 1.0], [1.0, 1.0]], UNIF2, UNIF2), ValidationError),
        (lambda: Histogram(["0.5", "0.5"]), ValidationError),
        (lambda: solve_lap([[True, False], [False, True]]), ValidationError),
    ],
    ids=[
        "asymmetric-structure", "non-square-structure", "nan-structure",
        "nan-weight", "mass-1.5", "nested-list-weights", "inf-mass",
        "nan-covariance", "fractional-capacity", "nan-feature-cost",
        "nan-projection-input", "nan-epsilon", "empty-histogram", "negative-mass",
        "structure-mass-sizes", "non-square-covariance", "mean-covariance-sizes",
        "asymmetric-covariance", "nan-plan", "1-d-plan", "plan-marginal-sizes",
        "nan-lap-cost", "nan-ot-cost", "inf-ot-cost", "inf-ot-cost-row",
        "nan-sinkhorn-cost", "inf-projection-input", "negative-concavity",
        "feature-cost-shape", "nan-loss-plan", "nan-gradient-plan", "init-shape",
        "flow-size", "linear-cost-shape", "capacity-below-one", "non-binary-assignment",
        "nan-assignment", "1-d-assignment", "objective-assignment-shape",
        "feasibility-assignment-shape", "rounded-coupling-shape", "gw-coupling-shape",
        "zero-projection-input", "string-weights", "bool-lap-cost",
    ],
)
def test_each_type_rejects_bad_data(build, error):
    """Every domain type checks its data when built, and every solver checks
    the costs and plans it is handed: ``Coupling`` and ``AssignmentMatrix``
    their own data, ``solve_lap``, ``solve_exact_ot``, ``sinkhorn`` and
    ``sinkhorn_project`` their input, ``gw_loss`` and ``gw_gradient`` their
    plan, and the CQAP functions the instance's shape. So nothing reaches a
    solver unchecked: a NaN coupling cannot be built, so no solver or
    rounding sees one. An array of strings or bools is no array of numbers.
    Each case raises exactly the class named: non-finite data NonFinite, a
    wrong shape DimensionMismatch, both ValidationErrors."""
    with pytest.raises(ValidationError) as caught:
        build()
    assert caught.type is error


def test_types_convert_array_likes():
    assert Histogram([0.5, 0.5]).weights.dtype == np.float64
    assert SymCostMatrix([[0, 1], [1, 0]]).entries.dtype == np.float64
    fgw = FgwProblem(GwProblem(LINE2, LINE2), [[0, 1], [1, 0]], 0.5)
    assert fgw.feature_cost.dtype == np.float64
    assert Coupling([[0.5, 0.0], [0.0, 0.5]], UNIF2, UNIF2).plan.dtype == np.float64
    assert AssignmentMatrix([[1, 0], [0, 1]]).x.dtype == np.int64


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

    @pytest.mark.parametrize(
        "master_seed, stream_id, name",
        [(-1, 0, "master_seed"), (0, -1, "stream_id"), (2.5, 0, "master_seed"),
         (True, 0, "master_seed"), (0, "1", "stream_id")],
    )
    def test_rejects_negative_or_non_integer(self, master_seed, stream_id, name):
        # numpy's SeedSequence would raise ValueError or TypeError later
        with pytest.raises(ValidationError, match=name):
            SeedPolicy(master_seed, stream_id)
