import ast
import itertools
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from gwqap import (
    GaussianMeasure,
    Histogram,
    normalize_masses,
    marginal_violation,
    sinkhorn,
    sinkhorn_project,
    solve_exact_ot,
    solve_lap,
    w2_gaussian,
)
from gwqap import linear_ot
from gwqap.core import MARGINAL_TOL, PROJECTION_DELTA
from gwqap.errors import (
    DimensionMismatch, NoConvergence, NonSquare, NotPSD, NumericalUnderflow,
)
from gwqap.linear_ot import TransportLp, _transport_constraints

UNIF2 = Histogram([0.5, 0.5])


def _transportation_lp(c, h, g):
    """Reference plan: one cold ``linprog`` dual-simplex solve."""
    n, m = c.shape
    b = np.concatenate([h, g])
    res = linprog(
        c.ravel(), A_eq=_transport_constraints(n, m), b_eq=b, method="highs-ds"
    )
    assert res.status == 0, res.message
    plan = res.x.reshape(n, m)
    np.clip(plan, 0.0, None, out=plan)
    return plan


def brute_force_lap(cost):
    """Factorial enumeration oracle for the assignment problem."""
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    return min(
        sum(c[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestSolveLap:
    def test_zero_diagonal_identity(self):
        c = np.ones((4, 4)) + 1.0
        np.fill_diagonal(c, 0.0)
        a, obj = solve_lap(c)
        assert obj == 0.0
        assert np.array_equal(a.perm, np.arange(4))

    def test_two_by_two(self):
        a, obj = solve_lap([[4, 1], [2, 3]])
        assert obj == 3.0
        assert list(a.perm) == [1, 0]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        c = rng.integers(0, 20, size=(3, 3)).astype(float)
        _, obj = solve_lap(c)
        assert obj == brute_force_lap(c)

    def test_non_square(self):
        with pytest.raises(NonSquare):
            solve_lap(np.zeros((2, 3)))


class TestSolveExactOt:
    def test_zero_cost(self):
        _, obj = solve_exact_ot(np.zeros((3, 2)), normalize_masses([1, 1, 1]), UNIF2)
        assert obj == 0.0

    def test_zero_cost_diagonal(self):
        coupling, obj = solve_exact_ot([[0, 1], [1, 0]], UNIF2, UNIF2)
        assert obj == 0.0
        assert np.allclose(coupling.plan, np.diag([0.5, 0.5]))

    def test_antidiagonal_optimum(self):
        # both permutation vertices enumerated: 0.5*(1+2)=1.5 < 0.5*(4+3)=3.5
        coupling, obj = solve_exact_ot([[4, 1], [2, 3]], UNIF2, UNIF2)
        assert obj == pytest.approx(1.5, abs=1e-12)
        assert abs(obj - float((np.asarray([[4, 1], [2, 3]]) * coupling.plan).sum())) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_exact_ot(np.zeros((3, 3)), UNIF2, UNIF2)

    @pytest.mark.parametrize("seed", range(5))
    def test_uniform_marginals_vertex_is_scaled_permutation(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        c = rng.random((n, n))
        h = normalize_masses(np.ones(n))
        coupling, obj = solve_exact_ot(c, h, h)
        scaled = coupling.plan * n
        assert np.allclose(np.sort(scaled.ravel()), [0.0] * (n * n - n) + [1.0] * n)
        _, lap_obj = solve_lap(c)
        assert obj == pytest.approx(lap_obj / n, rel=1e-12)

    def test_zero_mass_atoms_forced_to_zero(self):
        h = Histogram([0.0, 1.0])
        g = Histogram([0.5, 0.5])
        coupling, _ = solve_exact_ot(np.ones((2, 2)), h, g)
        assert np.all(coupling.plan[0] == 0.0)
        assert marginal_violation(coupling) == (0.0, 0.0)


class TestTransportLp:
    # (n, m, zero-mass atoms of h, of g): the generic case, then degenerate
    # inputs, which the one HiGHS model solves like any other
    CASES = [
        (6, 7, [], []),
        (6, 7, [2], []),
        (6, 7, [], [0, 6]),
        (4, 5, [1, 3], [2]),
        (1, 5, [], []),
        (5, 1, [], []),
        (1, 4, [], [1]),
        (1, 1, [], []),
    ]

    def _random(self, rng, n, m, zero_h=(), zero_g=()):
        h = rng.random(n) + 0.2
        g = rng.random(m) + 0.2
        h[list(zero_h)] = 0.0
        g[list(zero_g)] = 0.0
        return normalize_masses(h), normalize_masses(g)

    @pytest.mark.parametrize("seed", range(5))
    def test_warm_solves_match_linprog(self, seed):
        rng = np.random.default_rng(seed)
        for n, m, zero_h, zero_g in self.CASES:
            h, g = self._random(rng, n, m, zero_h, zero_g)
            model = TransportLp(h, g)
            for _ in range(8):
                cost = rng.uniform(0, 10, size=(n, m))
                coupling, obj = solve_exact_ot(cost, h, g, model=model)
                ref = _transportation_lp(cost, h.weights, g.weights)
                assert obj == pytest.approx(float((cost * ref).sum()), abs=1e-12)
                assert np.count_nonzero(coupling.plan > 1e-15) <= n + m - 1
                assert max(marginal_violation(coupling)) <= 1e-9

    def test_cold_solve_equals_linprog_plan(self):
        rng = np.random.default_rng(7)
        h, g = self._random(rng, 5, 5)
        cost = rng.uniform(0, 10, size=(5, 5))
        coupling, _ = solve_exact_ot(cost, h, g)
        assert np.array_equal(
            coupling.plan, _transportation_lp(cost, h.weights, g.weights)
        )

    def test_reset_model_matches_fresh_model(self):
        rng = np.random.default_rng(9)
        h, g = self._random(rng, 6, 7)
        costs = [rng.uniform(0, 10, size=(6, 7)) for _ in range(8)]

        def run(model):
            return [model.solve(c) for c in costs]

        fresh = run(TransportLp(h, g))
        reused = TransportLp(h, g)
        run(reused)
        run(reused)  # leaves a warm basis behind
        reused.reset()
        for a, b in zip(run(reused), fresh):
            assert np.array_equal(a, b)


def _backend_references(tree):
    """The imports from scipy.optimize and the uses of the name ``_highs``
    in a module's syntax tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            names = {f"{node.module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        else:
            names = set()
        for name in names:
            if name == "scipy.optimize" or name.startswith("scipy.optimize."):
                yield node.lineno, f"imports {name}"
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            named |= {node.name, node.asname}
        if "_highs" in named:
            yield getattr(node, "lineno", None), "names _highs"


def test_only_linear_ot_talks_to_the_solver_backend():
    # linear_ot alone builds HiGHS models and calls scipy's LP/MILP solvers
    package = Path(linear_ot.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert package / "linear_ot.py" in modules
    found = [
        f"{path.name}:{line}: {what}"
        for path in modules
        if path.name != "linear_ot.py"
        for line, what in _backend_references(ast.parse(path.read_text()))
    ]
    assert found == []
    assert list(_backend_references(ast.parse((package / "linear_ot.py").read_text())))


class TestSinkhorn:
    def test_zero_cost_gives_product(self):
        h = normalize_masses([1, 2, 3])
        g = normalize_masses([2, 1])
        coupling, obj, _, converged = sinkhorn(np.zeros((3, 2)), h, g, 1.0)
        assert converged
        assert np.allclose(coupling.plan, np.outer(h.weights, g.weights), atol=1e-12)
        assert obj == 0.0

    def test_one_by_one(self):
        h = Histogram([1.0])
        coupling, obj, _, _ = sinkhorn(np.array([[3.5]]), h, h, 0.5)
        assert np.allclose(coupling.plan, [[1.0]])
        assert obj == pytest.approx(3.5)

    def test_small_epsilon_approaches_exact(self):
        _, obj, _, converged = sinkhorn(
            np.array([[4.0, 1.0], [2.0, 3.0]]), UNIF2, UNIF2, epsilon=0.01
        )
        assert converged
        assert obj == pytest.approx(1.5, abs=1e-3)

    def test_log_domain_path(self):
        # max|C|/eps = 2000 forces the log-domain branch
        c = np.array([[4.0, 1.0], [2.0, 3.0]]) * 5.0
        coupling, obj, _, converged = sinkhorn(c, UNIF2, UNIF2, epsilon=0.01)
        assert converged
        row, col = marginal_violation(coupling)
        assert max(row, col) < 1e-9
        assert obj == pytest.approx(7.5, abs=1e-3)

    def test_divergence_raises_without_warnings(self):
        # each row's entries are e^400 and e^-400 (within the kernel path's
        # range), so the first row scaling underflows column 1 to zero
        c = np.array([[-400.0, 400.0], [-400.0, 400.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalUnderflow):
                sinkhorn(c, UNIF2, UNIF2, epsilon=1.0)

    def test_epsilon_consistency_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(3):
            c = rng.random((10, 10)) * 2.0
            h = normalize_masses(rng.random(10) + 0.1)
            g = normalize_masses(rng.random(10) + 0.1)
            _, exact = solve_exact_ot(c, h, g)
            objs = [sinkhorn(c, h, g, e)[1] for e in (1.0, 0.5, 0.1, 0.01)]
            assert all(b <= a + 1e-9 for a, b in zip(objs, objs[1:]))
            assert objs[-1] == pytest.approx(exact, rel=1e-3)


class TestSinkhornProject:
    def test_product_is_fixed_point(self):
        h = normalize_masses([1, 3])
        g = normalize_masses([2, 2])
        raw = np.outer(h.weights, g.weights)
        coupling = sinkhorn_project(raw, h, g)
        assert np.allclose(coupling.plan, raw, atol=1e-15)

    def test_all_ones_symmetry(self):
        coupling = sinkhorn_project(np.ones((2, 2)), UNIF2, UNIF2)
        assert np.allclose(coupling.plan, 0.25)

    def test_random_raw_reaches_delta(self):
        rng = np.random.default_rng(7)
        raw = rng.uniform(0, 1, size=(6, 5)) + 1e-6
        h = normalize_masses(rng.random(6) + 0.2)
        g = normalize_masses(rng.random(5) + 0.2)
        coupling = sinkhorn_project(raw, h, g)
        row, col = marginal_violation(coupling)
        assert max(row, col) <= PROJECTION_DELTA

    def test_sweep_cap(self, monkeypatch):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0, 1, size=(4, 4)) + 1e-6
        h = normalize_masses(rng.random(4) + 0.2)
        monkeypatch.setattr(linear_ot, "PROJECTION_MAX_SWEEPS", 1)
        with pytest.raises(NoConvergence):
            sinkhorn_project(raw, h, h)


def _project_four_reductions(raw, h, g, delta, max_sweeps=10_000):
    # the projection loop as first written: both marginal sums after every
    # rescaling, both errors on every sweep
    G = np.asarray(raw, dtype=np.float64).copy()
    hw, gw = h.weights, g.weights
    for _ in range(max_sweeps):
        G *= (hw / G.sum(axis=1))[:, None]
        G *= (gw / G.sum(axis=0))[None, :]
        row_err = np.abs(G.sum(axis=1) - hw).max()
        col_err = np.abs(G.sum(axis=0) - gw).max()
        if row_err < delta and col_err < delta:
            return G
    return None


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    delta=st.sampled_from([1e-6, 1e-9, 1e-12]),
)
def test_projection_bitwise_equals_four_reduction_loop(n, m, seed, delta):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0, 1, size=(n, m)) + 1e-6
    h = normalize_masses(rng.random(n) + 0.2)
    g = normalize_masses(rng.random(m) + 0.2)
    ref = _project_four_reductions(raw, h, g, delta)
    # hypothesis reuses a function-scoped fixture across examples, so patch here
    with mock.patch.object(linear_ot, "PROJECTION_DELTA", delta):
        if ref is None:
            with pytest.raises(NoConvergence):
                sinkhorn_project(raw, h, g)
        else:
            assert np.array_equal(sinkhorn_project(raw, h, g).plan, ref)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(2, 8),
    m=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    zero_in=st.sampled_from(["h", "g", "both"]),
)
def test_zero_mass_atoms_keep_the_marginal_contract(n, m, seed, zero_in):
    rng = np.random.default_rng(seed)

    def masses(k, with_zeros):
        w = rng.random(k) + 0.2
        if with_zeros:
            zero = rng.random(k) < 0.5
            some = rng.permutation(k)
            zero[some[0]], zero[some[1]] = True, False
            w[zero] = 0.0
        return normalize_masses(w)

    h = masses(n, zero_in in ("h", "both"))
    g = masses(m, zero_in in ("g", "both"))
    # max|C|/epsilon is about 400 at epsilon 1 (kernel scaling) and about
    # 800 at epsilon 0.5 (log domain), while the costs vary by at most 2
    # epsilon, so both converge in a few iterations
    cost = 400.0 + rng.uniform(0, 1, size=(n, m))
    raw = rng.uniform(0, 1, size=(n, m)) + 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = [(sinkhorn(cost, h, g, eps)[0], MARGINAL_TOL) for eps in (1.0, 0.5)]
        results.append((sinkhorn_project(raw, h, g), PROJECTION_DELTA))
    for coupling, tol in results:
        assert max(marginal_violation(coupling)) < tol
        assert np.all(coupling.plan[h.weights == 0] == 0.0)
        assert np.all(coupling.plan[:, g.weights == 0] == 0.0)


class TestW2Gaussian:
    def test_identity_case(self):
        a = GaussianMeasure([1.0, 2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert w2_gaussian(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_commuting_frobenius(self):
        # trace(4 + 1 - 2*2) = 1 = (2 - 1)^2
        a = GaussianMeasure([0.0], [[4.0]])
        b = GaussianMeasure([0.0], [[1.0]])
        assert w2_gaussian(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_pure_mean_shift(self):
        cov = [[1.0, 0.0], [0.0, 1.0]]
        a = GaussianMeasure([0.0, 0.0], cov)
        b = GaussianMeasure([3.0, 0.0], cov)
        assert w2_gaussian(a, b) == pytest.approx(9.0, abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        m = rng.random((3, 3))
        a = GaussianMeasure(rng.random(3), m @ m.T)
        m2 = rng.random((3, 3))
        b = GaussianMeasure(rng.random(3), m2 @ m2.T)
        assert w2_gaussian(a, b) == pytest.approx(w2_gaussian(b, a), abs=1e-10)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
