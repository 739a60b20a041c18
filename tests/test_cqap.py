import itertools
from dataclasses import replace

import numpy as np
import pytest

from gwqap import (
    Coupling,
    Histogram,
    InstanceSpec,
    SeedPolicy,
    SymCostMatrix,
    check_feasible,
    coupling_objective,
    cqap_objective,
    gap_percent,
    generate_instance,
    normalize_masses,
    round_coupling,
    solve_exact_enum,
    solve_exact_ot,
    to_fgw_problem,
    to_gw_problem,
    gw_loss,
    MmSpace,
    solve_gw,
    solve_gw_multi_init,
)
from gwqap.cqap import AssignmentMatrix, CqapInstance, mass_scale
from gwqap.errors import (
    AlphaOutOfRange,
    Infeasible,
    NegativeWeight,
    NoConvergence,
    NonFinite,
    NonPositiveExact,
    ValidationError,
)
from gwqap.gw import GwProblem, MultiInitConfig
from tests.test_gw import digest


# the 2^n-subset enumeration oracle's (objective, x digest, proven), which
# the single-agent search must reproduce bit for bit
ORACLE_PINS = {
    ("S2", 0): ("0x1.49347105f5856p+8", "cf0c934fcc50045f", True),
    ("S2", 1): ("0x1.3f72cc820e556p+7", "97f6b89a59dd935e", True),
    ("S2", 2): ("0x1.d177a9eb63de8p+7", "97f6b89a59dd935e", True),
    ("S3", 2): ("0x1.42ba758cd6a73p+9", "7eb4edb1f2c5988c", True),
    ("S4", 3): ("0x1.4e2c0ec6e0574p+7", "14f353a98a62b96b", True),
}


def make_instance(capacity, demand, flow=None, distance=None, linear=None):
    n, m = len(capacity), len(demand)
    return CqapInstance(
        agent_pos=np.zeros((n, 2)),
        task_pos=np.zeros((m, 2)),
        capacity=np.asarray(capacity, dtype=np.int64),
        demand=np.asarray(demand, dtype=np.int64),
        flow=SymCostMatrix(np.zeros((n, n)) if flow is None else np.asarray(flow, float)),
        distance=SymCostMatrix(np.zeros((m, m)) if distance is None else np.asarray(distance, float)),
        linear_cost=np.zeros((n, m)) if linear is None else np.asarray(linear, float),
    )


def brute_force_optimum(inst):
    """Unpruned 2^(nm) enumeration over binary assignment matrices."""
    n, m = inst.n, inst.m
    best = None
    for bits in range(1 << (n * m)):
        x = np.array(
            [(bits >> k) & 1 for k in range(n * m)], dtype=np.int64
        ).reshape(n, m)
        a = AssignmentMatrix(x)
        ok, _ = check_feasible(inst, a)
        if not ok:
            continue
        val = cqap_objective(inst, a)
        if best is None or val < best:
            best = val
    return best


def _nearest_by_enumeration(inst, shares):
    """Least value of (2nm + 1) * uncovered tasks + sum x (1 - 2 shares) over
    the (n + 1)^m choices of one agent or none per task within capacity."""
    n, m = inst.n, inst.m
    cost = np.vstack([1.0 - 2.0 * shares, np.full((1, m), 2.0 * n * m + 1.0)])
    choice = np.array(list(itertools.product(range(n + 1), repeat=m)))
    loads = np.stack(
        [((choice == i) * inst.demand).sum(axis=1) for i in range(n)], axis=1
    )
    fits = (loads <= inst.capacity).all(axis=1)
    return cost[choice, np.arange(m)].sum(axis=1)[fits].min()


class TestCqapObjective:
    def test_all_zero_assignment(self):
        inst = make_instance([2, 2], [1, 1])
        assert cqap_objective(inst, AssignmentMatrix(np.zeros((2, 2), dtype=np.int64))) == 0.0

    def test_linear_term_only(self):
        inst = make_instance([5], [3], linear=[[7.0]])
        assert cqap_objective(inst, AssignmentMatrix(np.ones((1, 1), dtype=np.int64))) == 7.0

    def test_hand_two_by_two(self):
        # F12*D12 appears for both orderings of the assigned pair: 1*2*2 = 4
        inst = make_instance(
            [5, 5], [1, 1], flow=[[0, 1], [1, 0]], distance=[[0, 2], [2, 0]]
        )
        x = AssignmentMatrix(np.eye(2, dtype=np.int64))
        assert cqap_objective(inst, x) == 4.0

    def test_bool_assignment_reads_as_zero_one(self):
        x = AssignmentMatrix(np.eye(2, dtype=bool))
        assert x.x.dtype == np.int64
        assert np.array_equal(x.x, np.eye(2, dtype=np.int64))


class TestCheckFeasible:
    def test_all_zeros_infeasible(self):
        inst = make_instance([5, 5], [1, 1])
        ok, violations = check_feasible(inst, AssignmentMatrix(np.zeros((2, 2), dtype=np.int64)))
        assert not ok
        assert {v[0] for v in violations} == {"demand"}
        assert len(violations) == 2

    def test_single_cell_feasible(self):
        inst = make_instance([5], [3])
        ok, violations = check_feasible(inst, AssignmentMatrix(np.ones((1, 1), dtype=np.int64)))
        assert ok and violations == []

    def test_capacity_violation(self):
        inst = make_instance([2], [3])
        ok, violations = check_feasible(inst, AssignmentMatrix(np.ones((1, 1), dtype=np.int64)))
        assert not ok
        assert ("capacity", 0, 1) in violations


class TestToGwProblem:
    def test_uniform_marginals(self):
        prob = to_gw_problem(make_instance([1, 1], [1, 1]))
        assert np.allclose(prob.source.mass.weights, [0.5, 0.5])
        assert np.allclose(prob.target.mass.weights, [0.5, 0.5])

    def test_proportional_marginals(self):
        prob = to_gw_problem(make_instance([2, 1], [1, 2]))
        assert np.allclose(prob.source.mass.weights, [2 / 3, 1 / 3])
        assert np.allclose(prob.target.mass.weights, [1 / 3, 2 / 3])

    def test_loss_finite_nonnegative(self):
        inst = generate_instance(InstanceSpec("S2", 4, 4, SeedPolicy(5)))
        prob = to_gw_problem(inst)
        val = gw_loss(prob, prob.default_init())
        assert np.isfinite(val) and val >= 0.0

    def test_product_loss_is_scaled_cqap_quadratic(self):
        inst = generate_instance(InstanceSpec("S2", 4, 4, SeedPolicy(5)))
        prob = to_gw_problem(inst)
        assert prob.loss == "product"
        F, D = inst.flow.entries, inst.distance.entries
        plan = prob.default_init().plan
        expected = float((plan * (F @ plan @ D)).sum()) / (F.max() * D.max())
        assert gw_loss(prob, plan) == pytest.approx(expected, rel=1e-12)

    def test_frank_wolfe_stops_at_a_vertex(self):
        inst = generate_instance(InstanceSpec.named("M1", SeedPolicy(2)))
        sol = solve_gw(to_gw_problem(inst))
        assert sol.converged and sol.iterations <= 5
        # a vertex of the transportation polytope has at most n + m - 1 atoms
        assert np.count_nonzero(sol.coupling.plan > 1e-12) <= inst.n + inst.m - 1


class TestToFgwProblem:
    def test_feature_cost_is_linear_cost(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(2)))
        fgw = to_fgw_problem(inst, alpha=0.5)
        assert np.array_equal(fgw.feature_cost, inst.linear_cost)

    def test_alpha_out_of_range(self):
        inst = make_instance([1], [1])
        with pytest.raises(AlphaOutOfRange):
            to_fgw_problem(inst, alpha=-0.1)


class TestCouplingObjective:
    def test_single_point(self):
        inst = make_instance([4], [2], linear=[[3.0]])
        h = Histogram([1.0])
        plan = Coupling(np.array([[1.0]]), h, h)
        # quadratic term vanishes (F = D = 0); linear term scales by S = 4
        assert coupling_objective(inst, plan) == 4.0 * 3.0

    def test_all_zero_costs(self):
        inst = make_instance([2, 2], [2, 2])
        prob = to_gw_problem(inst)
        assert coupling_objective(inst, prob.default_init()) == 0.0

    def test_hand_uniform_two_by_two(self):
        inst = make_instance(
            [1, 1], [1, 1],
            flow=[[0, 1], [1, 0]],
            distance=[[0, 2], [2, 0]],
            linear=[[1, 2], [3, 4]],
        )
        prob = to_gw_problem(inst)
        plan = prob.default_init()  # all entries 0.25
        X = mass_scale(inst) * plan.plan
        expected = 0.0
        for i, j, k, l in itertools.product(range(2), repeat=4):
            expected += inst.flow.entries[i, k] * inst.distance.entries[j, l] * X[i, j] * X[k, l]
        expected += float((inst.linear_cost * X).sum())
        assert coupling_objective(inst, plan) == pytest.approx(expected, rel=1e-12)


class TestRoundCoupling:
    def test_identity_plan_ample_capacity(self):
        inst = make_instance([5, 5, 5], [1, 1, 1])
        h = normalize_masses(np.ones(3))
        plan = Coupling(np.eye(3) / 3, h, h)
        assert np.array_equal(round_coupling(inst, plan).x, np.eye(3, dtype=np.int64))

    def test_one_by_one(self):
        inst = make_instance([4], [2])
        h = Histogram([1.0])
        x = round_coupling(inst, Coupling(np.array([[1.0]]), h, h))
        assert np.array_equal(x.x, [[1]])

    def test_seeded_instance_feasible_and_dominated_by_oracle(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(17)))
        prob = to_gw_problem(inst)
        rounded = round_coupling(inst, prob.default_init())
        ok, _ = check_feasible(inst, rounded)
        assert ok
        _, opt, proven = solve_exact_enum(inst)
        assert proven
        assert cqap_objective(inst, rounded) >= opt - 1e-9

    # criterion-4 instances whose squared-loss multi-init couplings the
    # former greedy rounding (descending mass, then greedy repair) left
    # infeasible, although every one of them admits a feasible assignment
    GREEDY_INFEASIBLE = [
        ("S1", 36), ("S2", 1), ("S2", 2), ("S2", 4), ("S2", 16), ("S2", 20),
        ("S2", 21), ("S2", 24), ("S2", 36), ("S2", 40), ("S2", 48),
    ]

    @pytest.mark.parametrize("sid,seed", GREEDY_INFEASIBLE)
    def test_square_loss_multi_init_coupling_rounds_feasibly(self, sid, seed):
        inst = generate_instance(InstanceSpec.named(sid, SeedPolicy(seed)))
        square = GwProblem(
            MmSpace(inst.flow, normalize_masses(inst.capacity)),
            MmSpace(inst.distance, normalize_masses(inst.demand)),
        )
        sol = solve_gw_multi_init(
            square, MultiInitConfig(trials=20, seed=SeedPolicy(seed))
        )
        ok, violations = check_feasible(inst, round_coupling(inst, sol.coupling))
        assert ok, violations

    def test_rounding_is_a_local_minimum_of_moves(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(4)))
        prob = to_gw_problem(inst)
        rounded = round_coupling(inst, prob.default_init())
        _, opt, _ = solve_exact_enum(inst)
        assert cqap_objective(inst, rounded) >= opt - 1e-9
        # no feasible single-task move lowers the descent's result
        value = cqap_objective(inst, rounded)
        for j in range(inst.m):
            for k in range(inst.n):
                y = rounded.x.copy()
                y[:, j] = 0
                y[k, j] = 1
                moved = AssignmentMatrix(y)
                if check_feasible(inst, moved)[0]:
                    assert cqap_objective(inst, moved) >= value - 1e-9

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 4), (3, 1), (5, 7), (20, 20)])
    def test_constraint_matrix_matches_kron_reference(self, n, m):
        from scipy import sparse

        from gwqap.linear_ot import _capacity_constraints

        rng = np.random.default_rng(n * 100 + m)
        u = rng.integers(1, 9, n).astype(np.float64)
        d = rng.integers(1, 9, m).astype(np.float64)
        ref = sparse.vstack(
            [
                sparse.hstack(
                    [sparse.kron(sparse.eye(n), d[None, :]), sparse.csr_matrix((n, m))]
                ),
                sparse.hstack([sparse.kron(u[None, :], sparse.eye(m)), sparse.diags(d)]),
            ],
            format="csc",
        )
        starts, indices, values = _capacity_constraints(u, d)
        assert np.array_equal(starts, ref.indptr)
        assert np.array_equal(indices, ref.indices)
        assert np.array_equal(values, ref.data)

    # S3/S4 instances, seeds 0-5: most have no feasible assignment, and
    # presolve leaves most of their rounding MILPs open
    NEAREST_CASES = [(sid, seed) for sid in ("S3", "S4") for seed in range(6)]

    def test_nearest_assignment_matches_brute_force(self, monkeypatch):
        from gwqap import linear_ot

        # the MILP's branch-and-bound node count, from the HiGHS model run
        nodes = []
        solve = linear_ot._highs_solution

        def spy(model, what):
            x = solve(model, what)
            nodes.append(model.getInfo().mip_node_count)
            return x

        monkeypatch.setattr(linear_ot, "_highs_solution", spy)
        uncovered = []
        for sid, seed in self.NEAREST_CASES:
            inst = generate_instance(InstanceSpec.named(sid, SeedPolicy(seed)))
            n, m = inst.n, inst.m
            rng = np.random.default_rng(seed)
            shares = rng.dirichlet(np.full(n, 0.5), size=m).T
            # exactly tied shares: two agents equally near in columns 0 and 1
            shares[:, :2] = 0.0
            shares[rng.permutation(n)[:3], 0] = [0.4, 0.4, 0.2]
            shares[rng.permutation(n)[:2], 1] = [0.5, 0.5]
            x = linear_ot.nearest_capacity_assignment(shares, inst.capacity, inst.demand)
            assert (x @ inst.demand <= inst.capacity).all()
            missed = int((x.sum(axis=0) == 0).sum())
            value = (x * (1.0 - 2.0 * shares)).sum() + (2 * n * m + 1) * missed
            best = _nearest_by_enumeration(inst, shares)
            # ties are legal, so compare values, not assignments
            assert value == pytest.approx(best, abs=1e-9), (sid, seed)
            uncovered.append(missed)
        assert sum(k > 0 for k in uncovered) >= 3  # instances with no assignment
        assert sum(k == 0 for k in uncovered) >= 3
        assert sum(k > 0 for k in nodes) >= len(nodes) // 2  # presolve left open

    def test_infeasible_instance_covers_what_capacity_allows(self):
        # task 1 (demand 3) fits no agent; task 0 still gets covered
        inst = make_instance([2, 1], [2, 3])
        h = normalize_masses([2, 1])
        g = normalize_masses([2, 3])
        rounded = round_coupling(inst, Coupling(np.outer(h.weights, g.weights), h, g))
        ok, violations = check_feasible(inst, rounded)
        assert not ok
        assert violations == [("demand", 1, 3)]
        assert rounded.x[:, 0].sum() == 1


class TestSolveExactEnum:
    def test_single_cell(self):
        inst = make_instance([5], [3], linear=[[2.5]])
        x, obj, proven = solve_exact_enum(inst)
        assert np.array_equal(x.x, [[1]])
        assert obj == 2.5 and proven

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_unpruned_brute_force(self, seed):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(seed)))
        _, obj, proven = solve_exact_enum(inst)
        assert proven
        assert obj == brute_force_optimum(inst)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            solve_exact_enum(make_instance([1], [3]))

    def test_node_cap_returns_unproven(self):
        inst = generate_instance(InstanceSpec("S2", 4, 4, SeedPolicy(3)))
        _, _, proven = solve_exact_enum(inst, node_cap=10)
        assert not proven

    def test_node_cap_before_any_assignment_is_no_convergence(self):
        # the instance is feasible; the cap stops the search first
        inst = generate_instance(InstanceSpec("S2", 4, 4, SeedPolicy(3)))
        with pytest.raises(NoConvergence):
            solve_exact_enum(inst, node_cap=3)

    @pytest.mark.parametrize("node_cap", [0, -1, True, 2.5])
    def test_node_cap_is_a_checked_count(self, node_cap):
        inst = make_instance([5], [3], linear=[[2.5]])
        with pytest.raises(ValidationError, match="node_cap"):
            solve_exact_enum(inst, node_cap=node_cap)

    @pytest.mark.parametrize("sid,seed", sorted(ORACLE_PINS))
    def test_pinned_to_subset_enumeration(self, sid, seed):
        inst = generate_instance(InstanceSpec.named(sid, SeedPolicy(seed)))
        x, obj, proven = solve_exact_enum(inst)
        assert (obj.hex(), digest(x.x), proven) == ORACLE_PINS[sid, seed]


class TestInstanceValidation:
    def test_asymmetric_structure_rejected(self):
        bumped = [[0.0, 1.0, 4.0], [1.0, 0.0, 2.0], [4.0, 2.0, 0.0]]
        bumped[0][2] += 1.0
        for kw in ({"flow": bumped}, {"distance": bumped}):
            with pytest.raises(ValidationError, match="symmetric"):
                make_instance([2, 2, 2], [1, 1, 1], **kw)

    def test_negative_entries_rejected(self):
        minus = -np.eye(3)
        for kw in ({"flow": minus}, {"distance": minus}, {"linear": minus}):
            with pytest.raises(NegativeWeight):
                make_instance([2, 2, 2], [1, 1, 1], **kw)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected(self, bad):
        # a symmetric pair, so the symmetry test alone cannot catch it
        pair = np.zeros((3, 3))
        pair[0, 1] = pair[1, 0] = bad
        for kw in ({"flow": pair}, {"distance": pair}, {"linear": pair}):
            with pytest.raises(NonFinite, match="non-finite"):
                make_instance([2, 2, 2], [1, 1, 1], **kw)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("big", [2**53 + 1, 2**63 - 1, 2**63, 1e20])
    @pytest.mark.parametrize("field", ["capacity", "demand"])
    def test_values_above_2_53_rejected(self, field, big):
        # float64 rounds 2**53 + 1 to 2**53, and an int64 cast of the larger
        # ones overflows with a warning; the bound is checked on the values
        # as given, before either cast
        inst = make_instance([2, 2], [1, 1])
        with pytest.raises(ValidationError, match=r"must be <= 2\*\*53"):
            replace(inst, **{field: [big, 1]})

    @pytest.mark.filterwarnings("error")
    def test_bound_kept_and_other_extremes_refused(self):
        inst = make_instance([2, 2], [1, 1])
        assert replace(inst, capacity=[2**53, 1]).capacity[0] == 2**53
        # -1e20 fails the >= 1 check before the cast could overflow
        with pytest.raises(ValidationError, match=">= 1"):
            replace(inst, demand=[-1e20, 1])
        # a Python int past uint64 is no numpy number at all
        with pytest.raises(ValidationError, match="numbers"):
            replace(inst, capacity=[2**64, 1])


class TestGapPercent:
    def test_zero_gap(self):
        assert gap_percent(5.0, 5.0) == 0.0

    def test_ten_percent(self):
        assert gap_percent(1.1 * 7.0, 7.0) == pytest.approx(10.0)

    def test_matching_published_convention(self):
        assert gap_percent(981.63, 981.63) == 0.0

    def test_non_positive_exact(self):
        with pytest.raises(NonPositiveExact):
            gap_percent(1.0, 0.0)

    def test_negative_gap_allowed(self):
        assert gap_percent(0.9, 1.0) == pytest.approx(-10.0)
