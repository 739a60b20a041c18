import hashlib

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
from gwqap import gw
from gwqap.core import MARGINAL_TOL
from gwqap.gw import FgwProblem, GwProblem, MultiInitConfig
from gwqap.errors import (
    AlphaOutOfRange, DimensionMismatch, InvalidInit, NoConvergence, ValidationError
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
    # recorded with the three-contraction Frank-Wolfe that recomputed C1**2
    # and C2**2 on every cross term
    SQUARE_PINS = {
        (0, "default"): ("0x1.feeb42efd2fc1p+2", 5, "33d94b5bcf2262ee"),
        (0, "random"): ("0x1.795889a850146p+2", 7, "c27735dda20ccfac"),
        (1, "default"): ("0x1.b57ec6f0c643bp+2", 5, "ba7594caf60664db"),
        (1, "random"): ("0x1.9cfb73c14e26dp+2", 3, "f28a2f8df14e9d4e"),
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


class TestMultiInit:
    def test_zero_trials_equals_default(self):
        rng = np.random.default_rng(61)
        prob = GwProblem(random_space(rng, 4), random_space(rng, 4))
        default = solve_gw(prob)
        multi = solve_gw_multi_init(prob, MultiInitConfig(trials=0))
        assert multi.objective == default.objective
        assert np.array_equal(multi.coupling.plan, default.coupling.plan)
        assert multi.trial_of_origin == -1

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
        built, solves = [], []
        lp_class, solve = gw.TransportLp, gw.solve_gw

        class CountedLp(lp_class):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        def recorded(problem, init=None, *args, **kwargs):
            sol = solve(problem, init, *args, **kwargs)
            solves.append((init, kwargs.get("model"), sol))
            return sol

        monkeypatch.setattr(gw, "TransportLp", CountedLp)
        monkeypatch.setattr(gw, "solve_gw", recorded)
        gw.solve_gw_multi_init(prob, MultiInitConfig(trials=6, seed=SeedPolicy(4)))
        assert len(built) == 1 and len(solves) == 7
        for init, model, sol in solves:
            assert model is built[0]
            fresh = solve(prob, init)
            assert np.array_equal(sol.coupling.plan, fresh.coupling.plan)
            assert sol.objective == fresh.objective
            assert sol.iterations == fresh.iterations

    def test_failed_trial_is_recorded(self, monkeypatch):
        rng = np.random.default_rng(85)
        prob = GwProblem(random_space(rng, 5), random_space(rng, 4))
        project, calls = gw.sinkhorn_project, []

        def flaky(raw, h, g, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise NoConvergence("projection stalled")
            return project(raw, h, g, **kwargs)

        monkeypatch.setattr(gw, "sinkhorn_project", flaky)
        sol = solve_gw_multi_init(prob, MultiInitConfig(trials=4, seed=SeedPolicy(2)))
        assert sol.failed_trials == ((2, "NoConvergence"),)
        assert len(calls) == 4
        assert sol.trial_of_origin != 2

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
