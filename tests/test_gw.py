import hashlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gwqap import (
    Coupling,
    Histogram,
    MmSpace,
    SeedPolicy,
    SymCostMatrix,
    gw_gradient,
    gw_loss,
    marginal_violation,
    normalize_masses,
    product_coupling,
    sinkhorn_project,
    solve_entropic_gw,
    solve_exact_ot,
    solve_fgw,
    solve_gw,
    solve_gw_multi_init,
)
from gwqap import InstanceSpec, generate_instance, gw
from gwqap.core import MARGINAL_TOL
from gwqap.cqap import to_gw_problem
from gwqap.gw import FW_MAX_ITER, FgwProblem, GwProblem, MultiInitConfig
from gwqap.linear_ot import TransportLp
from gwqap.errors import (
    AlphaOutOfRange, DimensionMismatch, GwqapError, InvalidInit, NoConvergence, NonFinite,
    ValidationError,
)


def naive_loss(C1, C2, plan):
    """Quadruple-loop oracle for the squared GW objective."""
    n, m = plan.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    total += (C1[i, j] - C2[k, l]) ** 2 * plan[i, k] * plan[j, l]
    return total


def random_space_and_points(rng, n):
    """A space of n random points in the plane (Euclidean distances, random
    masses), and the points."""
    pts = rng.uniform(0, 10, size=(n, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    mass = normalize_masses(rng.random(n) + 0.2)
    return MmSpace(SymCostMatrix(d), mass), pts


def random_space(rng, n):
    return random_space_and_points(rng, n)[0]


def random_plan(rng, h, g):
    raw = rng.uniform(0, 1, size=(h.n, g.n)) + 1e-6
    return sinkhorn_project(raw, h, g)


def digest(a):
    """Short fingerprint of an array's exact float64 bytes."""
    return hashlib.sha256(np.ascontiguousarray(a, dtype=np.float64).tobytes()).hexdigest()[:16]


def concave_product_problem(rng, n, m):
    src, tgt = random_space(rng, n), random_space(rng, m)
    rho = lambda a: np.abs(np.linalg.eigvalsh(a)).max()  # noqa: E731
    mu = rho(src.structure.entries) * rho(tgt.structure.entries)
    return GwProblem(src, tgt, loss="product", concavity=mu)


def record_fw(monkeypatch):
    """Patch ``gw._fw_solve`` to record each call's (init, result) pairs,
    one list per call, in the returned list."""
    fw_solve, runs = gw._fw_solve, []

    def recorded(problem, linear_cost, alpha, inits, model=None):
        results = fw_solve(problem, linear_cost, alpha, inits, model)
        runs.append(list(zip(inits, results)))
        return results

    monkeypatch.setattr(gw, "_fw_solve", recorded)
    return runs


def assert_same_solution(a, b):
    assert np.array_equal(a.coupling.plan, b.coupling.plan)
    assert a.objective.hex() == b.objective.hex()
    assert a.objective_history == b.objective_history
    assert (a.iterations, a.converged) == (b.iterations, b.converged)


class TestGwLoss:
    def test_identical_spaces_identity_plan(self):
        rng = np.random.default_rng(0)
        space = random_space(rng, 4)
        uniform = normalize_masses(np.ones(4))
        space = MmSpace(space.structure, uniform)
        prob = GwProblem(space, space)
        plan = Coupling(np.eye(4) / 4, uniform, uniform)
        # cancellation in the contraction leaves roundoff at the 1e-13 scale
        assert gw_loss(prob, plan) == pytest.approx(0.0, abs=1e-10)

    def test_one_by_one(self):
        h = Histogram([1.0])
        space = MmSpace(SymCostMatrix(np.zeros((1, 1))), h)
        prob = GwProblem(space, space)
        assert gw_loss(prob, Coupling(np.array([[1.0]]), h, h)) == 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_naive_quadruple_sum(self, seed):
        rng = np.random.default_rng(seed)
        src, tgt = random_space(rng, 4), random_space(rng, 4)
        prob = GwProblem(src, tgt)
        plan = random_plan(rng, src.mass, tgt.mass)
        fast = gw_loss(prob, plan)
        slow = naive_loss(src.structure.entries, tgt.structure.entries, plan.plan)
        assert fast == pytest.approx(slow, rel=1e-10)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(0)
        prob = GwProblem(random_space(rng, 3), random_space(rng, 4))
        with pytest.raises(DimensionMismatch):
            gw_loss(prob, np.zeros((3, 3)))


def naive_product_loss(C1, C2, plan):
    """Quadruple-loop oracle for the product (Koopmans-Beckmann) objective."""
    n, m = plan.shape
    total = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(m):
                for l in range(m):
                    total += C1[i, j] * C2[k, l] * plan[i, k] * plan[j, l]
    return total


class TestProductLoss:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_naive_quadruple_sum(self, seed):
        rng = np.random.default_rng(seed)
        src, tgt = random_space(rng, 4), random_space(rng, 5)
        prob = GwProblem(src, tgt, loss="product")
        plan = random_plan(rng, src.mass, tgt.mass)
        slow = naive_product_loss(src.structure.entries, tgt.structure.entries, plan.plan)
        assert gw_loss(prob, plan) == pytest.approx(slow, rel=1e-12)

    def test_gradient_finite_differences(self):
        rng = np.random.default_rng(4)
        src, tgt = random_space(rng, 3), random_space(rng, 4)
        prob = GwProblem(src, tgt, loss="product")
        plan = random_plan(rng, src.mass, tgt.mass)
        grad = gw_gradient(prob, plan)
        C1, C2 = src.structure.entries, tgt.structure.entries
        step = 1e-6
        for i in range(3):
            for k in range(4):
                hi, lo = plan.plan.copy(), plan.plan.copy()
                hi[i, k] += step
                lo[i, k] -= step
                fd = (naive_product_loss(C1, C2, hi) - naive_product_loss(C1, C2, lo)) / (2 * step)
                assert grad[i, k] == pytest.approx(fd, abs=1e-6)

    def test_square_loss_is_constant_minus_twice_product(self):
        # sum (a - b)^2 pi pi = <C1^2 h, h> + <C2^2 g, g> - 2 * product loss
        rng = np.random.default_rng(5)
        src, tgt = random_space(rng, 4), random_space(rng, 4)
        plan = random_plan(rng, src.mass, tgt.mass)
        h, g = src.mass.weights, tgt.mass.weights
        C1, C2 = src.structure.entries, tgt.structure.entries
        const = h @ C1**2 @ h + g @ C2**2 @ g
        square = gw_loss(GwProblem(src, tgt), plan)
        product = gw_loss(GwProblem(src, tgt, loss="product"), plan)
        # the two sides differ by the cancellation in const - 2 * product
        assert square == pytest.approx(const - 2.0 * product, rel=1e-10)

    def test_unknown_loss_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValidationError):
            GwProblem(random_space(rng, 2), random_space(rng, 2), loss="cube")

    def test_concave_frank_wolfe_takes_full_steps_to_a_vertex(self):
        rng = np.random.default_rng(7)
        src, tgt = random_space(rng, 6), random_space(rng, 5)
        rho = lambda a: np.abs(np.linalg.eigvalsh(a)).max()  # noqa: E731
        mu = rho(src.structure.entries) * rho(tgt.structure.entries)
        sol = solve_gw(GwProblem(src, tgt, loss="product", concavity=mu))
        assert sol.converged and sol.iterations <= 6
        assert np.count_nonzero(sol.coupling.plan > 1e-12) <= 6 + 5 - 1
        hist = sol.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))


class TestGwGradient:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        src, tgt = random_space(rng, 3), random_space(rng, 3)
        prob = GwProblem(src, tgt)
        plan = random_plan(rng, src.mass, tgt.mass)
        grad = gw_gradient(prob, plan)
        step = 1e-6
        for i in range(3):
            for k in range(3):
                p_hi = plan.plan.copy()
                p_lo = plan.plan.copy()
                p_hi[i, k] += step
                p_lo[i, k] -= step
                C1, C2 = src.structure.entries, tgt.structure.entries
                fd = (naive_loss(C1, C2, p_hi) - naive_loss(C1, C2, p_lo)) / (2 * step)
                assert grad[i, k] == pytest.approx(fd, abs=1e-4)

    def test_hand_two_by_two(self):
        # expand the 16-term sum at the product plan by explicit loops
        C1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        C2 = np.array([[0.0, 2.0], [2.0, 0.0]])
        h = Histogram([0.5, 0.5])
        src = MmSpace(SymCostMatrix(C1), h)
        tgt = MmSpace(SymCostMatrix(C2), h)
        prob = GwProblem(src, tgt)
        plan = product_coupling(h, h)
        grad = gw_gradient(prob, plan)
        expected = np.zeros((2, 2))
        for i in range(2):
            for k in range(2):
                for j in range(2):
                    for l in range(2):
                        expected[i, k] += 2 * (C1[i, j] - C2[k, l]) ** 2 * plan.plan[j, l]
        assert np.allclose(grad, expected, atol=1e-14)

    def test_identity_fixed_point_on_identical_spaces(self):
        rng = np.random.default_rng(5)
        uniform = normalize_masses(np.ones(4))
        space = MmSpace(random_space(rng, 4).structure, uniform)
        prob = GwProblem(space, space)
        plan = Coupling(np.eye(4) / 4, uniform, uniform)
        grad = gw_gradient(prob, plan)
        vertex, _ = solve_exact_ot(grad, uniform, uniform)
        assert gw_loss(prob, vertex) == pytest.approx(0.0, abs=1e-12)


class TestSolveGw:
    def test_identical_spaces_reaches_zero(self):
        rng = np.random.default_rng(11)
        for n in (5, 12, 20):
            uniform = normalize_masses(np.ones(n))
            space = MmSpace(random_space(rng, n).structure, uniform)
            sol = solve_gw(GwProblem(space, space))
            assert sol.objective <= 1e-8

    def test_one_by_one(self):
        h = Histogram([1.0])
        space = MmSpace(SymCostMatrix(np.zeros((1, 1))), h)
        sol = solve_gw(GwProblem(space, space))
        assert np.array_equal(sol.coupling.plan, [[1.0]])

    def test_objective_bracketed_by_certificates(self):
        import itertools

        rng = np.random.default_rng(21)
        uniform = normalize_masses(np.ones(3))
        src = MmSpace(random_space(rng, 3).structure, uniform)
        tgt = MmSpace(random_space(rng, 3).structure, uniform)
        prob = GwProblem(src, tgt)
        sol = solve_gw(prob)
        perm_losses = []
        for p in itertools.permutations(range(3)):
            plan = np.zeros((3, 3))
            plan[np.arange(3), p] = 1 / 3
            perm_losses.append(gw_loss(prob, Coupling(plan, uniform, uniform)))
        product_obj = gw_loss(prob, prob.default_init())
        assert sol.objective >= min(perm_losses) - 1e-9
        assert sol.objective <= product_obj + 1e-12

    def test_monotone_descent(self):
        rng = np.random.default_rng(31)
        src, tgt = random_space(rng, 6), random_space(rng, 5)
        sol = solve_gw(GwProblem(src, tgt))
        hist = sol.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    # objective, iterations and plan digest of the square-loss solves below,
    # recorded with each exact-OT step run by the library's transport
    # simplex, from the north-west-corner basis and then from the last
    # step's optimal basis
    SQUARE_PINS = {
        (0, "default"): ("0x1.feeb42efd2fbfp+2", 5, "2d941ac819ee4079"),
        (0, "random"): ("0x1.795889a850142p+2", 7, "2011d8428bd1b798"),
        (1, "default"): ("0x1.b57ec6f0c6440p+2", 5, "1201f904a9064e6e"),
        (1, "random"): ("0x1.9cfb73c14e26ap+2", 3, "956ceee8260424be"),
    }

    @pytest.mark.parametrize("seed", (0, 1))
    def test_square_loss_output_pinned(self, seed):
        rng = np.random.default_rng(seed)
        src, tgt = random_space(rng, 6), random_space(rng, 5)
        prob = GwProblem(src, tgt)
        init = sinkhorn_project(rng.uniform(0, 1, size=(6, 5)) + 1e-6, src.mass, tgt.mass)
        for name, start in (("default", None), ("random", init)):
            sol = solve_gw(prob, start)
            got = (sol.objective.hex(), sol.iterations, digest(sol.coupling.plan))
            assert got == self.SQUARE_PINS[seed, name]

    def test_squared_structures_computed_once(self):
        rng = np.random.default_rng(1)
        prob = GwProblem(random_space(rng, 4), random_space(rng, 3))
        first = prob._squared_structures
        assert prob._squared_structures is first
        assert np.array_equal(first[0], prob.source.structure.entries**2)
        assert np.array_equal(first[1], prob.target.structure.entries**2)

    @pytest.mark.parametrize(
        "concave, alpha", [(False, 1.0), (False, 0.5), (True, 1.0), (True, 0.4)]
    )
    def test_final_objective_matches_recomputation(self, concave, alpha):
        # square loss, or product loss with its concavity term
        rng = np.random.default_rng(41)
        prob = (concave_product_problem(rng, 7, 6) if concave
                else GwProblem(random_space(rng, 7), random_space(rng, 6)))
        M = rng.uniform(0, 5, size=prob.shape)
        init = random_plan(rng, prob.source.mass, prob.target.mass)
        sol = solve_fgw(FgwProblem(prob, M, alpha), init=init)
        pi = sol.coupling.plan
        g = prob.target.mass.weights
        gw_part = gw_loss(prob, pi) + prob.concavity * float((pi * (g - pi)).sum())
        expect = alpha * gw_part + (1.0 - alpha) * float((M * pi).sum())
        assert sol.iterations >= 2
        assert sol.objective_history[-1] == pytest.approx(expect, rel=1e-12)

    def test_invalid_init(self):
        rng = np.random.default_rng(0)
        src, tgt = random_space(rng, 3), random_space(rng, 3)
        bad = product_coupling(
            normalize_masses(np.ones(3)), normalize_masses(np.ones(3))
        )
        with pytest.raises(InvalidInit):
            solve_gw(GwProblem(src, tgt), init=bad)

    def test_init_marginal_tolerance(self):
        rng = np.random.default_rng(0)
        problem = GwProblem(random_space(rng, 3), random_space(rng, 3))
        for off, ok in ((0.5e-9, True), (2e-9, False)):
            plan = problem.default_init().plan.copy()
            plan[0, 0] += off
            init = Coupling(plan, problem.source.mass, problem.target.mass)
            if ok:
                assert gw._check_init(problem, init) is init
            else:
                with pytest.raises(InvalidInit):
                    gw._check_init(problem, init)

    def test_fgw_checks_init_like_gw(self):
        rng = np.random.default_rng(0)
        src, tgt = random_space(rng, 3), random_space(rng, 3)
        problem = GwProblem(src, tgt)
        # an all-ones plan: right shape, marginals off by 2
        ones = Coupling(np.ones((3, 3)), src.mass, tgt.mass)
        fgw = FgwProblem(problem, np.zeros((3, 3)), alpha=0.5)
        with pytest.raises(InvalidInit):
            solve_gw(problem, init=ones)
        with pytest.raises(InvalidInit):
            solve_fgw(fgw, init=ones)
        sol = solve_fgw(fgw, init=problem.default_init())
        assert max(marginal_violation(sol.coupling)) <= 1e-9

    def test_array_init_is_refused(self):
        rng = np.random.default_rng(0)
        problem = GwProblem(random_space(rng, 3), random_space(rng, 3))
        plan = problem.default_init().plan
        with pytest.raises(InvalidInit):
            solve_gw(problem, init=plan)
        with pytest.raises(InvalidInit):
            solve_fgw(FgwProblem(problem, np.zeros((3, 3)), alpha=0.5), init=plan)

    def test_model_of_other_marginals_is_refused(self):
        rng = np.random.default_rng(0)
        problem = GwProblem(random_space(rng, 3), random_space(rng, 4))
        other = random_space(rng, 3).mass, random_space(rng, 4).mass
        with pytest.raises(ValidationError):
            solve_gw(problem, model=TransportLp(*other))

    def test_lone_solve_reraises_its_lp_error(self, monkeypatch):
        rng = np.random.default_rng(0)
        problem = GwProblem(random_space(rng, 3), random_space(rng, 3))
        error = NoConvergence("LP stopped short")

        def failing(costs, h, g, model=None):
            # the stacked call's one row fails
            return np.zeros((1, 3, 3)), [error]

        monkeypatch.setattr(gw, "solve_exact_ot", failing)
        fgw = FgwProblem(problem, np.zeros((3, 3)), alpha=0.5)
        for solve in (lambda: solve_gw(problem), lambda: solve_fgw(fgw)):
            with pytest.raises(NoConvergence) as raised:
                solve()
            assert raised.value is error

    def test_marginals_preserved(self):
        rng = np.random.default_rng(41)
        src, tgt = random_space(rng, 7), random_space(rng, 4)
        sol = solve_gw(GwProblem(src, tgt))
        row, col = marginal_violation(sol.coupling)
        assert max(row, col) <= 1e-9

    def test_isometry_invariance_via_exact_rigid_motion(self):
        # 90-degree rotation plus translation is exact in floating point,
        # so the rebuilt structure matrix and all losses are bitwise equal
        rng = np.random.default_rng(51)
        pts = rng.uniform(0, 10, size=(5, 2))
        moved = np.stack([-pts[:, 1] + 3.0, pts[:, 0] - 1.0], axis=1)
        d1 = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
        d2 = np.sqrt(((moved[:, None] - moved[None, :]) ** 2).sum(-1))
        assert np.array_equal(d1, d2)
        src = random_space(rng, 5)
        mass = normalize_masses(np.ones(5))
        prob_a = GwProblem(src, MmSpace(SymCostMatrix(d1), mass))
        prob_b = GwProblem(src, MmSpace(SymCostMatrix(d2), mass))
        plan = random_plan(rng, src.mass, mass)
        assert gw_loss(prob_a, plan) == gw_loss(prob_b, plan)


@pytest.mark.parametrize("loss", gw.LOSSES)
@pytest.mark.parametrize("concave", (False, True))
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
def test_stacked_frank_wolfe_is_bitwise_each_start_alone(loss, concave, alpha):
    rng = np.random.default_rng(91)
    src, tgt = random_space(rng, 7), random_space(rng, 6)
    rho = lambda a: np.abs(np.linalg.eigvalsh(a)).max()  # noqa: E731
    mu = rho(src.structure.entries) * rho(tgt.structure.entries) if concave else 0.0
    prob = GwProblem(src, tgt, loss, mu)
    M = rng.uniform(0, 5, size=prob.shape)
    inits = [prob.default_init()] + [random_plan(rng, src.mass, tgt.mass) for _ in range(6)]
    stacked = gw._fw_solve(prob, M, alpha, inits)
    for init, sol in zip(inits, stacked):
        assert_same_solution(sol, solve_fgw(FgwProblem(prob, M, alpha), init))
    iterations = {sol.iterations for sol in stacked}
    if alpha == 0.0:
        # a linear objective: one full step to the optimal vertex, then a
        # step that stays there
        assert iterations == {2}
    elif loss == "product" and not concave:
        # without its concavity term the product loss never settles here
        assert iterations == {gw.FW_MAX_ITER}
    else:
        # the starts leave the stack at different steps
        assert len(iterations) > 1


class TestMultiInit:
    def test_zero_trials_equals_default(self):
        rng = np.random.default_rng(61)
        prob = GwProblem(random_space(rng, 4), random_space(rng, 4))
        default = solve_gw(prob)
        multi = solve_gw_multi_init(prob, MultiInitConfig(trials=0))
        assert multi.objective == default.objective
        assert np.array_equal(multi.coupling.plan, default.coupling.plan)
        assert multi.trial_of_origin == -1

    def test_trials_must_be_a_count(self):
        for trials in (-1, 1.0, True, False):
            with pytest.raises(ValidationError, match="trials"):
                MultiInitConfig(trials=trials)
        assert MultiInitConfig(trials=np.int64(3)).trials == 3

    def test_identical_spaces(self):
        rng = np.random.default_rng(71)
        uniform = normalize_masses(np.ones(6))
        space = MmSpace(random_space(rng, 6).structure, uniform)
        prob = GwProblem(space, space)
        sol = solve_gw_multi_init(prob, MultiInitConfig(trials=5, seed=SeedPolicy(1)))
        assert sol.objective <= 1e-8
        assert sol.failed_trials == ()

    def test_zero_mass_atoms_start_every_trial(self):
        rng = np.random.default_rng(73)
        src, tgt = random_space(rng, 5), random_space(rng, 4)
        src = MmSpace(src.structure, normalize_masses([1.0, 0.0, 2.0, 3.0, 1.0]))
        tgt = MmSpace(tgt.structure, normalize_masses([2.0, 1.0, 0.0, 1.0]))
        sol = solve_gw_multi_init(
            GwProblem(src, tgt), MultiInitConfig(trials=5, seed=SeedPolicy(3))
        )
        assert sol.failed_trials == ()
        assert max(marginal_violation(sol.coupling)) <= 1e-9

    def test_dominates_every_trial(self):
        rng = np.random.default_rng(81)
        src, tgt = random_space(rng, 6), random_space(rng, 5)
        prob = GwProblem(src, tgt)
        config = MultiInitConfig(trials=8, seed=SeedPolicy(9))
        best = solve_gw_multi_init(prob, config)
        # replay every trial from its derived stream and compare
        trial_objs = [solve_gw(prob).objective]
        for t in range(1, config.trials + 1):
            gen = config.seed.substream(t).generator()
            raw = gen.uniform(0, 1, size=prob.shape) + gw.INIT_JITTER
            init = sinkhorn_project(raw, src.mass, tgt.mass)
            trial_objs.append(solve_gw(prob, init).objective)
        assert best.objective <= min(trial_objs) + 1e-15

    @pytest.mark.parametrize("concave", (False, True))
    def test_trials_match_fresh_solves_on_one_model(self, concave, monkeypatch):
        rng = np.random.default_rng(83)
        prob = (concave_product_problem(rng, 6, 5) if concave
                else GwProblem(random_space(rng, 6), random_space(rng, 5)))
        built, lps = [], []
        lp_class, solve_ot = gw.TransportLp, gw.solve_exact_ot

        class CountedLp(lp_class):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def recorded(costs, h, g, model=None):
            out = solve_ot(costs, h, g, model=model)
            lps.append((model, costs, out[0]))
            return out

        monkeypatch.setattr(gw, "TransportLp", CountedLp)
        monkeypatch.setattr(gw, "solve_exact_ot", recorded)
        runs = record_fw(monkeypatch)
        gw.solve_gw_multi_init(prob, MultiInitConfig(trials=6, seed=SeedPolicy(4)))
        # the default start alone, then the six random starts in one stack
        assert len(built) == 1 and [len(run) for run in runs] == [1, 6]
        # every LP runs on a branch of the one model: one stacked call per
        # Frank-Wolfe step, first the default start's, then the stack's
        models = list(dict.fromkeys(model for model, _, _ in lps))
        assert len(models) == 2 and built[0] not in models
        assert all(model._corner is built[0]._corner for model in models)
        stack = [(costs, plans) for model, costs, plans in lps if model is models[1]]
        sols = [sol for _, sol in runs[1]]
        assert len(stack) == max(sol.iterations for sol in sols)
        # each start makes bitwise the LPs and the solution of its fresh
        # solve: in step k it is the row after the earlier starts still going
        for s, (init, sol) in enumerate(runs[1]):
            lps.clear()
            assert_same_solution(sol, gw.solve_gw(prob, init))
            assert len(lps) == sol.iterations
            for k, (_, costs, plans) in enumerate(lps):
                row = sum(other.iterations > k for other in sols[:s])
                assert np.array_equal(costs[0], stack[k][0][row])
                assert np.array_equal(plans[0], stack[k][1][row])

    def test_trials_on_one_model_match_fresh_solves_at_m4_size(self, monkeypatch):
        inst = generate_instance(InstanceSpec.named("M4", SeedPolicy(7, 12000)))
        prob = to_gw_problem(inst)
        runs = record_fw(monkeypatch)
        gw.solve_gw_multi_init(prob, MultiInitConfig(trials=20, seed=SeedPolicy(7, 11)))
        starts = [pair for run in runs for pair in run]
        assert [len(run) for run in runs] == [1, 20]
        for init, sol in starts:
            fresh = gw.solve_gw(prob, init)
            assert np.array_equal(sol.coupling.plan, fresh.coupling.plan)
            assert sol.objective == fresh.objective

    def test_failed_trial_is_recorded(self, monkeypatch):
        rng = np.random.default_rng(85)
        prob = GwProblem(random_space(rng, 5), random_space(rng, 4))
        config = MultiInitConfig(trials=4, seed=SeedPolicy(2))
        stalled = config.seed.substream(2).generator().uniform(0, 1, size=prob.shape)
        stalled += gw.INIT_JITTER
        project, calls = gw.sinkhorn_project, []

        def flaky(raw, h, g):
            # any projection that holds trial 2's start stalls: the stacked
            # call, then trial 2's own call in the per-start fallback
            calls.append(np.ndim(raw))
            starts = np.reshape(raw, (-1, *stalled.shape))
            if any(np.array_equal(start, stalled) for start in starts):
                raise NoConvergence("projection stalled")
            return project(raw, h, g)

        monkeypatch.setattr(gw, "sinkhorn_project", flaky)
        runs = record_fw(monkeypatch)
        sol = solve_gw_multi_init(prob, config)
        assert sol.failed_trials == ((2, "NoConvergence"),)
        assert calls == [3, 2, 2, 2, 2]
        # the default start is solved alone, then trials 1, 3 and 4 together
        assert [len(run) for run in runs] == [1, 3]
        assert np.array_equal(runs[0][0][0].plan, prob.default_init().plan)
        for t, (init, _) in zip((1, 3, 4), runs[1]):
            raw = config.seed.substream(t).generator().uniform(0, 1, size=prob.shape)
            alone = project(raw + gw.INIT_JITTER, prob.source.mass, prob.target.mass)
            assert np.array_equal(init.plan, alone.plan)
        assert sol.trial_of_origin != 2

    def _flaky_lps(self, monkeypatch, fail, iterations):
        """Patch ``gw.solve_exact_ot`` so that ``fail(t, lp, cost)``, given
        the start (0 the default, t trial t), its LP count so far and its
        row of the stacked costs, may raise or swap the row; a library error
        it raises is that row's error. ``iterations[t]`` is start t's step
        count in a clean run: a stack's rows are its starts still going, in
        trial order. Returns the per-start LP counts."""
        solve_ot, starts, lps = gw.solve_exact_ot, {}, Counter()

        def flaky(costs, h, g, model=None):
            if model not in starts:
                starts[model] = [0] if not starts else list(range(1, len(model) + 1))
            going = [t for t in starts[model] if lps[t] < iterations[t] and t not in failed]
            assert len(going) == len(costs)
            costs, raised = costs.copy(), {}
            for row, t in enumerate(going):
                lps[t] += 1
                try:
                    costs[row] = fail(t, lps[t], costs[row])
                except GwqapError as exc:
                    raised[row] = exc
            plans, errors = solve_ot(costs, h, g, model=model)
            errors = [raised.get(row, error) for row, error in enumerate(errors)]
            failed.update(t for t, error in zip(going, errors) if error is not None)
            return plans, errors

        failed = set()
        monkeypatch.setattr(gw, "solve_exact_ot", flaky)
        return lps

    def test_failed_solve_is_recorded(self, monkeypatch):
        rng = np.random.default_rng(85)
        prob = GwProblem(random_space(rng, 5), random_space(rng, 4))
        config = MultiInitConfig(trials=4, seed=SeedPolicy(2))
        runs = record_fw(monkeypatch)
        solve_gw_multi_init(prob, config)
        clean = [sol for run in runs for _, sol in run]
        assert clean[2].iterations >= 2

        def fail(t, lp, cost):
            # trial 2's second LP stalls; trial 3's first gradient is not finite
            if t == 2 and lp == 2:
                raise NoConvergence("LP stalled")
            if t == 3:
                cost = cost.copy()
                cost[0] = np.inf
            return cost

        lps = self._flaky_lps(monkeypatch, fail, [sol.iterations for sol in clean])
        runs.clear()
        sol = solve_gw_multi_init(prob, config)
        assert sol.failed_trials == ((2, "NoConvergence"), (3, "NonFinite"))
        assert (lps[2], lps[3]) == (2, 1)
        got = [sol for run in runs for _, sol in run]
        assert isinstance(got[2], NoConvergence) and isinstance(got[3], NonFinite)
        for t in (0, 1, 4):
            assert_same_solution(got[t], clean[t])
        assert sol.objective == min(clean[t].objective for t in (0, 1, 4))
        assert sol.trial_of_origin not in (2, 3)

    def test_non_library_error_in_an_lp_propagates(self, monkeypatch):
        rng = np.random.default_rng(87)
        prob = GwProblem(random_space(rng, 4), random_space(rng, 4))

        def fail(t, lp, cost):
            if t == 2:
                raise ValueError("operands could not be broadcast together")
            return cost

        self._flaky_lps(monkeypatch, fail, [FW_MAX_ITER] * 4)
        with pytest.raises(ValueError):
            solve_gw_multi_init(prob, MultiInitConfig(trials=3))

    def test_non_library_error_in_a_trial_propagates(self, monkeypatch):
        rng = np.random.default_rng(87)
        prob = GwProblem(random_space(rng, 4), random_space(rng, 4))

        def broken(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(gw, "sinkhorn_project", broken)
        with pytest.raises(ValueError):
            solve_gw_multi_init(prob, MultiInitConfig(trials=2))


class TestEntropicGw:
    def test_large_epsilon_entropy_dominates(self):
        rng = np.random.default_rng(91)
        uniform = normalize_masses(np.ones(5))
        space = MmSpace(random_space(rng, 5).structure, uniform)
        prob = GwProblem(space, space)
        sol_large = solve_entropic_gw(prob, epsilon=10.0)
        sol_small = solve_entropic_gw(prob, epsilon=0.3)
        product = prob.default_init().plan
        dev_large = np.abs(sol_large.coupling.plan - product).max()
        dev_small = np.abs(sol_small.coupling.plan - product).max()
        assert dev_large < dev_small
        # identical spaces: exact GW value is 0, entropy keeps the loss above it
        assert sol_large.objective >= solve_gw(prob).objective

    def test_one_by_one(self):
        h = Histogram([1.0])
        space = MmSpace(SymCostMatrix(np.zeros((1, 1))), h)
        sol = solve_entropic_gw(GwProblem(space, space), epsilon=0.3)
        assert np.allclose(sol.coupling.plan, [[1.0]])

    def test_epsilon_sweep_monotone_on_recorded_seed(self):
        # seeded 5x6 instance where the loss is monotone in epsilon
        from gwqap import InstanceSpec, generate_instance, to_gw_problem

        spec = InstanceSpec("sweeptest", 5, 6, SeedPolicy(1))
        prob = to_gw_problem(generate_instance(spec))
        losses = [
            solve_entropic_gw(prob, epsilon=e).objective
            for e in (1.0, 0.8, 0.5, 0.3)
        ]
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_converged_only_if_the_last_sinkhorn_converged(self, monkeypatch):
        from gwqap import InstanceSpec, generate_instance, to_gw_problem

        prob = to_gw_problem(generate_instance(InstanceSpec.named("S2", SeedPolicy(0))))
        sol = solve_entropic_gw(prob, epsilon=0.8)
        assert sol.converged
        assert max(marginal_violation(sol.coupling)) <= 1e-9
        # one Sinkhorn iteration per outer step leaves the marginals off
        monkeypatch.setattr(gw, "EGW_MAX_SINKHORN", 1)
        sol = solve_entropic_gw(prob, epsilon=0.8)
        assert max(marginal_violation(sol.coupling)) > 1e-9
        assert not sol.converged


class TestFgw:
    def _instance(self, seed, n=4, m=5):
        rng = np.random.default_rng(seed)
        src, p = random_space_and_points(rng, n)
        tgt, q = random_space_and_points(rng, m)
        M = np.sqrt(((p[:, None] - q[None, :]) ** 2).sum(-1))
        return src, tgt, M

    def test_alpha_zero_equals_exact_ot(self):
        src, tgt, M = self._instance(7)
        fgw = FgwProblem(GwProblem(src, tgt), M, alpha=0.0)
        sol = solve_fgw(fgw)
        _, exact = solve_exact_ot(M, src.mass, tgt.mass)
        assert sol.objective == pytest.approx(exact, abs=1e-8)

    def test_alpha_one_bitwise_identical_to_gw(self):
        src, tgt, M = self._instance(8)
        prob = GwProblem(src, tgt)
        fgw_sol = solve_fgw(FgwProblem(prob, M, alpha=1.0))
        gw_sol = solve_gw(prob)
        assert fgw_sol.objective_history == gw_sol.objective_history
        assert np.array_equal(fgw_sol.coupling.plan, gw_sol.coupling.plan)

    def test_alpha_half_two_by_two_grid_search(self):
        # uniform 2x2 couplings form a segment [[t, .5-t], [.5-t, t]]
        rng = np.random.default_rng(9)
        h = Histogram([0.5, 0.5])
        C1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        C2 = np.array([[0.0, 2.5], [2.5, 0.0]])
        M = rng.uniform(0, 3, size=(2, 2))
        prob = FgwProblem(
            GwProblem(MmSpace(SymCostMatrix(C1), h), MmSpace(SymCostMatrix(C2), h)),
            M,
            alpha=0.5,
        )
        sol = solve_fgw(prob)

        def blended(t):
            plan = np.array([[t, 0.5 - t], [0.5 - t, t]])
            coupling = Coupling(plan, h, h)
            return 0.5 * gw_loss(prob.gw, coupling) + 0.5 * float((M * plan).sum())

        grid_best = min(blended(t) for t in np.linspace(0, 0.5, 100_001))
        assert sol.objective == pytest.approx(grid_best, abs=1e-4)

    def test_monotone_descent(self):
        src, tgt, M = self._instance(10)
        sol = solve_fgw(FgwProblem(GwProblem(src, tgt), M, alpha=0.5))
        hist = sol.objective_history
        assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_alpha_out_of_range(self):
        src, tgt, M = self._instance(11)
        with pytest.raises(AlphaOutOfRange):
            FgwProblem(GwProblem(src, tgt), M, alpha=1.2)


def _space(rng, n, zero_mass):
    """A random space; with ``zero_mass``, about half its atoms (never all)
    carry no mass."""
    space = random_space(rng, n)
    w = rng.random(n) + 0.2
    if zero_mass and n > 1:
        w[rng.permutation(n)[: n // 2]] = 0.0
    return MmSpace(space.structure, normalize_masses(w))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from(gw.LOSSES),
    concavity=st.one_of(st.just(0.0), st.floats(1e-3, 1e4)),
    alpha=st.floats(0.0, 1.0),
    zero_mass=st.booleans(),
    solver=st.sampled_from(["gw", "fgw", "gw-multi"]),
)
def test_frank_wolfe_couplings_keep_the_marginal_contract(
    n, m, seed, loss, concavity, alpha, zero_mass, solver
):
    rng = np.random.default_rng(seed)
    prob = GwProblem(_space(rng, n, zero_mass), _space(rng, m, zero_mass), loss, concavity)
    if solver == "gw":
        sol = solve_gw(prob)
    elif solver == "fgw":
        sol = solve_fgw(FgwProblem(prob, rng.uniform(0, 10, size=(n, m)), alpha))
    else:
        sol = solve_gw_multi_init(prob, MultiInitConfig(2, SeedPolicy(seed)))
    assert max(marginal_violation(sol.coupling)) <= MARGINAL_TOL


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    loss=st.sampled_from(gw.LOSSES),
    epsilon=st.floats(0.01, 10.0),
    zero_mass=st.booleans(),
)
def test_converged_entropic_couplings_keep_the_marginal_contract(
    n, m, seed, loss, epsilon, zero_mass
):
    rng = np.random.default_rng(seed)
    # structures scaled to unit maximum, as to_gw_problem scales them, keep
    # epsilon on a fixed scale
    src, tgt = (
        MmSpace(SymCostMatrix(s.structure.entries / max(s.structure.entries.max(), 1.0)), s.mass)
        for s in (_space(rng, n, zero_mass), _space(rng, m, zero_mass))
    )
    sol = solve_entropic_gw(GwProblem(src, tgt, loss), epsilon)
    if sol.converged:
        assert max(marginal_violation(sol.coupling)) <= MARGINAL_TOL
