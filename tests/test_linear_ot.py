import ast
import hashlib
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
from gwqap.core import MARGINAL_TOL, PROJECTION_DELTA, Coupling
from gwqap.errors import (
    DimensionMismatch, NoConvergence, NonFinite, NonSquare, NotPSD, NumericalUnderflow,
    ValidationError,
)
from gwqap.linear_ot import TransportLp

UNIF2 = Histogram([0.5, 0.5])


def _transportation_lp(c, h, g):
    """Reference plan: one cold ``linprog`` dual-simplex solve, its row and
    column sums written out with Kronecker products."""
    n, m = c.shape
    A_eq = np.vstack([np.kron(np.eye(n), np.ones((1, m))), np.kron(np.ones((1, n)), np.eye(m))])
    b = np.concatenate([h, g])
    res = linprog(c.ravel(), A_eq=A_eq, b_eq=b, method="highs-ds")
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


def _stacked(model, costs, h, g):
    """The plans of a stacked ``solve_exact_ot`` call whose rows all solve."""
    plans, errors = solve_exact_ot(costs, h, g, model=model)
    assert errors == [None] * len(costs)
    return plans


class TestTransportLp:
    # (n, m, zero-mass atoms of h, of g): the generic case, then degenerate
    # inputs, which the engine solves like any other
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
                (plan,) = _stacked(model, cost.reshape(1, -1), h, g)
                ref = _transportation_lp(cost, h.weights, g.weights)
                assert float((cost * plan).sum()) == pytest.approx(
                    float((cost * ref).sum()), abs=1e-12
                )
                assert np.count_nonzero(plan > 1e-15) <= n + m - 1
                assert max(marginal_violation(Coupling(plan, h, g))) <= 1e-9

    def test_cold_solve_equals_linprog_plan(self):
        # the engine and HiGHS reach the same vertex of this LP; the plans
        # they compute for it may differ in the last bits
        rng = np.random.default_rng(7)
        h, g = self._random(rng, 5, 5)
        cost = rng.uniform(0, 10, size=(5, 5))
        coupling, obj = solve_exact_ot(cost, h, g)
        ref = _transportation_lp(cost, h.weights, g.weights)
        assert np.array_equal(coupling.plan > 0, ref > 0)
        assert obj == pytest.approx(float((cost * ref).sum()), rel=1e-12, abs=0)

    def test_stacked_starts_match_starts_alone_on_fresh_models(self):
        # a plan depends only on the cost and the start's own basis, so each
        # row of a stack, also once other starts have left it, is bitwise
        # the plan of that start solved alone on a fresh model
        rng = np.random.default_rng(9)
        for n, m, zero_h, zero_g in self.CASES:
            h, g = self._random(rng, n, m, zero_h, zero_g)
            costs = rng.uniform(0, 10, size=(4, 6, n * m))
            alone = []
            for start_costs in costs:
                fresh = TransportLp(h, g)
                alone.append([_stacked(fresh, c[None], h, g)[0] for c in start_costs])
            model = TransportLp(h, g).branch(4)
            starts = [0, 1, 2, 3]
            for k in range(costs.shape[1]):
                if k == 3:
                    starts = [3, 0, 2]
                    model.keep(starts)
                for plan, s in zip(_stacked(model, costs[starts, k], h, g), starts):
                    assert np.array_equal(plan, alone[s][k])

    def test_new_start_stands_on_the_north_west_corner(self):
        # on a Monge cost the north-west-corner basis is optimal, so a solve
        # that starts from it returns its plan without a pivot: a fresh
        # model's first solve, and a start branched from a model (or from a
        # start) that other solves have moved on
        rng = np.random.default_rng(3)
        for n, m, zero_h, zero_g in self.CASES:
            h, g = self._random(rng, n, m, zero_h, zero_g)
            x, y = np.sort(rng.random(n)), np.sort(rng.random(m))
            monge = (x[:, None] - y[None, :]) ** 2
            start = TransportLp(h, g)
            for _ in range(3):
                (plan,) = _stacked(start, monge.reshape(1, -1), h, g)
                assert (start.pivots.tolist(), start.rounds) == ([0], 1)
                assert np.allclose(
                    plan, _north_west_plan(h.weights, g.weights), rtol=0, atol=1e-15
                )
                # moves the basis
                _stacked(start, rng.uniform(0, 10, size=(1, n * m)), h, g)
                start = start.branch()

    def test_model_of_other_marginals_is_refused(self):
        # a model keeps the marginals it was built for: solving other ones
        # on it would return plans of the model's marginals for (h, g), or
        # read costs past the end of a row
        rng = np.random.default_rng(5)
        h, g = self._random(rng, 4, 5)
        costs = rng.uniform(0, 10, size=(1, 20))
        with pytest.raises(ValidationError) as refused:
            solve_exact_ot(costs, h, g, model=TransportLp(*self._random(rng, 4, 5)))
        assert not isinstance(refused.value, DimensionMismatch)
        with pytest.raises(DimensionMismatch):
            solve_exact_ot(costs, h, g, model=TransportLp(*self._random(rng, 6, 7)))
        # a stack needs one row of n*m costs per start
        for wrong in (np.tile(costs, (2, 1)), costs.reshape(4, 5)):
            with pytest.raises(DimensionMismatch):
                solve_exact_ot(wrong, h, g, model=TransportLp(h, g))
        # equal weights in other Histogram objects are the same marginals
        twin = TransportLp(Histogram(h.weights.copy()), Histogram(g.weights.copy()))
        (plan,) = _stacked(twin.branch(), costs, h, g)
        assert np.array_equal(plan, solve_exact_ot(costs.reshape(4, 5), h, g)[0].plan)

    def test_inverse_stays_that_of_the_basis(self):
        # the pivots update each start's integral inverse exactly
        rng = np.random.default_rng(13)
        for n, m, zero_h, zero_g in self.CASES:
            h, g = self._random(rng, n, m, zero_h, zero_g)
            model = TransportLp(h, g).branch(3)
            for _ in range(4):
                _stacked(model, rng.uniform(0, 10, size=(3, n * m)), h, g)
                for cells, inverse in zip(model._basis, model._inverse):
                    assert np.array_equal(inverse, linear_ot._tree_inverse(cells, n, m))
                    basis = np.zeros((n + m, n + m - 1))
                    basis[cells // m, np.arange(n + m - 1)] = 1.0
                    basis[n + cells % m, np.arange(n + m - 1)] = 1.0
                    assert np.array_equal(
                        inverse[:, :-1] @ basis[:-1], np.eye(n + m - 1, dtype=np.int8)
                    )


def _composition(rng, total, parts):
    """``parts`` nonnegative integers summing to ``total``, zeros allowed."""
    cuts = np.sort(rng.integers(0, total + 1, size=parts - 1))
    return np.diff(np.concatenate([[0], cuts, [total]]))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    m=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    masses=st.sampled_from(["random", "zero-mass", "integer"]),
    integer_costs=st.booleans(),
)
def test_engine_matches_linprog(n, m, seed, masses, integer_costs):
    # "integer" draws both marginals as compositions of one total, so their
    # partial sums tie and the vertices carry zeros on their trees;
    # integer costs tie reduced costs
    rng = np.random.default_rng(seed)
    if masses == "integer":
        total = int(rng.integers(1, 3 * max(n, m)))
        h, g = _composition(rng, total, n), _composition(rng, total, m)
    else:
        h, g = rng.random(n) + 0.2, rng.random(m) + 0.2
        if masses == "zero-mass":
            h[rng.random(n) < 0.3], g[rng.random(m) < 0.3] = 0.0, 0.0
            h[rng.integers(n)], g[rng.integers(m)] = 1.0, 1.0
    h, g = normalize_masses(h), normalize_masses(g)
    costs = rng.integers(0, 4, size=(2, 3, n * m)) if integer_costs else rng.uniform(0, 10, size=(2, 3, n * m))
    stack = TransportLp(h, g).branch(3)
    alone = [TransportLp(h, g) for _ in range(3)]
    for round_costs in costs:
        plans = _stacked(stack, round_costs, h, g)
        assert stack.rounds == stack.pivots.max() + 1
        for t, (plan, cost) in enumerate(zip(plans, round_costs)):
            assert np.array_equal(plan, _stacked(alone[t], cost[None], h, g)[0])
            c = cost.reshape(n, m)
            ref = float((c * _transportation_lp(c, h.weights, g.weights)).sum())
            assert abs(float((c * plan).sum()) - ref) <= 1e-12 * max(abs(ref), 1.0)
            assert max(marginal_violation(Coupling(plan, h, g))) <= 1e-9
            assert np.count_nonzero(plan) <= n + m - 1


class TestDegenerateLps:
    @pytest.mark.parametrize("n", [2, 5, 12, 20])
    def test_uniform_square_lps_match_the_lap(self, n):
        # every vertex of the uniform n x n polytope is a scaled permutation,
        # n of its 2n-1 basic values positive, so most pivots are degenerate
        rng = np.random.default_rng(n)
        h = normalize_masses(np.ones(n))
        costs = np.concatenate([
            rng.uniform(0, 10, size=(3, n * n)), rng.integers(0, 3, size=(3, n * n)),
        ])
        model = TransportLp(h, h).branch(len(costs))
        for cost, plan in zip(costs, _stacked(model, costs, h, h)):
            c = cost.reshape(n, n)
            assert float((c * plan).sum()) == pytest.approx(solve_lap(c)[1] / n, rel=1e-12)
        assert model.pivots.max() < model.max_pivots

    @pytest.mark.parametrize("seed", range(6))
    def test_capacities_with_equal_partial_sums_match_linprog(self, seed):
        # integer capacities and demands cut from one total at shared points:
        # many partial sums of h equal partial sums of g
        rng = np.random.default_rng(seed)
        total = 40
        shared = rng.choice(np.arange(1, total), size=6, replace=False)
        points = [np.concatenate([[0, total], shared, rng.choice(np.arange(1, total), 4)])
                  for _ in range(2)]
        h, g = (normalize_masses(np.diff(np.unique(p))) for p in points)
        n, m = h.n, g.n
        costs = rng.uniform(0, 10, size=(4, n * m))
        model = TransportLp(h, g).branch(4)
        for cost, plan in zip(costs, _stacked(model, costs, h, g)):
            c = cost.reshape(n, m)
            ref = float((c * _transportation_lp(c, h.weights, g.weights)).sum())
            assert float((c * plan).sum()) == pytest.approx(ref, rel=1e-12)
        assert model.pivots.max() < model.max_pivots

    def test_only_the_capped_row_fails(self):
        # rows near a Monge cost need few pivots from the north-west corner,
        # the random row 1 more: a cap between them stops row 1 alone
        rng = np.random.default_rng(11)
        h, g = normalize_masses(rng.random(6) + 0.2), normalize_masses(rng.random(7) + 0.2)
        x, y = np.sort(rng.random(6)), np.sort(rng.random(7))
        costs = (x[:, None] - y[None, :]).ravel() ** 2 + rng.uniform(0, 0.05, size=(4, 42))
        costs[1] = rng.uniform(0, 10, size=42)
        pivots = []
        for cost in costs:
            alone = TransportLp(h, g)
            _stacked(alone, cost[None], h, g)
            pivots.append(int(alone.pivots[0]))
        capped = int(np.argmax(pivots))
        cap = sorted(pivots)[-2]
        assert pivots[capped] > cap
        model = TransportLp(h, g).branch(4)
        model.max_pivots = cap
        plans, errors = solve_exact_ot(costs, h, g, model=model)
        assert [type(e) for e in errors] == [
            NoConvergence if t == capped else type(None) for t in range(4)
        ]
        assert "pivot cap" in str(errors[capped]) and not plans[capped].any()
        assert model.pivots[capped] == cap
        for t in range(4):
            if t != capped:
                alone = TransportLp(h, g)
                assert np.array_equal(plans[t], _stacked(alone, costs[t, None], h, g)[0])

    def test_non_finite_row_fails_alone(self):
        rng = np.random.default_rng(12)
        h, g = normalize_masses(rng.random(4) + 0.2), normalize_masses(rng.random(3) + 0.2)
        costs = rng.uniform(0, 10, size=(3, 12))
        costs[1, 5] = np.nan
        plans, errors = solve_exact_ot(costs, h, g, model=TransportLp(h, g).branch(3))
        assert isinstance(errors[1], NonFinite) and not plans[1].any()
        for t in (0, 2):
            assert errors[t] is None
            assert np.array_equal(plans[t], solve_exact_ot(costs[t].reshape(4, 3), h, g)[0].plan)


def _digest(*arrays):
    """Short fingerprint of the exact bytes of some arrays."""
    sha = hashlib.sha256()
    for a in arrays:
        sha.update(np.ascontiguousarray(a).tobytes())
    return sha.hexdigest()[:16]


# a 20-start stack of one 20 x 20 LP of integer masses, as a multi-init's
# Frank-Wolfe steps solve it: after each call, digests of the plans, of
# `pivots` and `rounds`, and of the saved bases and their inverses. Recorded
# with the engine that wrote each group of plans as its starts left, so a
# change to the engine's bookkeeping must reproduce them, not re-record them
ENGINE_PINS = [
    ("623c7160e8407795", "1d23ac4c25d16b40", 77, "10b2d8009589e485"),
    ("157723620f005535", "ec177c496f50458e", 9, "32fb20da9c3c5467"),
    ("4c00ec4a6ca4feaa", "18e67cfe62d3ce24", 73, "64fd7f1dd3230a73"),
]


def test_stack_of_starts_pinned():
    rng = np.random.default_rng(20)
    h = normalize_masses(rng.integers(1, 9, size=20).astype(float))
    g = normalize_masses(rng.integers(1, 5, size=20).astype(float))
    model = TransportLp(h, g).branch(20)
    cold = rng.uniform(0, 10, size=(20, 400))
    # the warm calls: the kept starts' costs nudged, then a fresh draw with
    # one non-finite row
    nudged = cold[::2] + rng.uniform(0, 0.5, size=(10, 400))
    fresh = rng.uniform(0, 10, size=(10, 400))
    fresh[4, 17] = np.inf
    got = []
    for k, costs in enumerate((cold, nudged, fresh)):
        if k == 1:
            model.keep(np.arange(0, 20, 2))
        plans, errors = solve_exact_ot(costs, h, g, model=model)
        assert [t for t, e in enumerate(errors) if e is not None] == ([4] if k == 2 else [])
        got.append((
            _digest(plans), _digest(model.pivots), model.rounds,
            _digest(model._basis, model._inverse),
        ))
    assert got == ENGINE_PINS


def _north_west_plan(h, g):
    """The north-west-corner plan: cell (i, j) carries the overlap of row
    i's and column j's intervals of cumulative mass."""
    H, G = np.cumsum(h), np.cumsum(g)
    overlap = np.minimum.outer(H, G) - np.maximum.outer(H - h, G - g)
    return np.clip(overlap, 0.0, None)


def _backend_references(tree):
    """The imports from scipy, the uses of the name ``_highs`` and the
    underscore names of linear_ot reached in a gwqap module's syntax tree;
    a relative import names its module in the package ``gwqap``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gwqap" if node.level else "", node.module]))
            names = {f"{module}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names = {alias.name for alias in node.names}
        else:
            names = set()
        for name in names:
            if name == "scipy" or name.startswith("scipy."):
                yield node.lineno, f"imports {name}"
            if name.startswith("gwqap.linear_ot._"):
                yield node.lineno, f"imports {name}"
        if (
            isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and getattr(node.value, "id", None) == "linear_ot"
        ):
            yield node.lineno, f"uses linear_ot.{node.attr}"
        named = {getattr(node, "id", None), getattr(node, "attr", None)}
        if isinstance(node, ast.alias):
            named |= {node.name, node.asname}
        if "_highs" in named:
            yield getattr(node, "lineno", None), "names _highs"


# the HiGHS objects linear_ot holds: by the function or class that holds
# them, the name it holds each under and the binding class it is made from
_HIGHS_HOLDERS = {
    "_highs_model": {"lp": "HighsLp", "model": "_Highs"},
    "_highs_solution": {"model": "_Highs"},
}


def _binding_uses(tree):
    """The names a module looks up on scipy's HiGHS bindings, as dotted
    paths in ``_core``: each attribute chain rooted at ``_highs``, and each
    attribute of an object that ``_HIGHS_HOLDERS`` names."""
    for top in tree.body:
        held = _HIGHS_HOLDERS.get(getattr(top, "name", None), {})
        for node in ast.walk(top):
            if not isinstance(node, ast.Attribute):
                continue
            chain, base = [node.attr], node.value
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id == "_highs":
                yield ".".join(chain)
            holder = getattr(node.value, "id", getattr(node.value, "attr", None))
            if holder in held:
                yield f"{held[holder]}.{node.attr}"


def test_linear_ot_uses_only_bindings_the_installed_scipy_has():
    # the CI floor job runs the oldest scipy pyproject.toml allows; a
    # binding it lacks shows here by name
    def lookup(name):
        obj = linear_ot._highs
        for attr in name.split("."):
            obj = getattr(obj, attr, None)
        return obj

    uses = set(_binding_uses(ast.parse(Path(linear_ot.__file__).read_text())))
    assert [name for name in sorted(uses) if lookup(name) is None] == []
    # the bindings that build, run and read the rounding MILP are among
    # those checked
    assert {
        "HighsLp", "HighsVarType.kInteger", "MatrixFormat.kColwise", "_Highs.passModel",
        "_Highs.run", "_Highs.getModelStatus", "_Highs.getSolution",
    } <= uses


def _highs_options(tree):
    """(name, value) of each HiGHS option a module sets: the keywords of its
    ``_highs_model`` calls (``integer`` is no option) and the literal keys
    of the option dict in ``_highs_model`` itself."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_highs_model":
            for keyword in node.keywords:
                if keyword.arg != "integer":
                    yield keyword.arg, ast.literal_eval(keyword.value)
        if isinstance(node, ast.FunctionDef) and node.name == "_highs_model":
            for table in ast.walk(node):
                if isinstance(table, ast.Dict):
                    for key, value in zip(table.keys, table.values):
                        if key is not None:
                            yield ast.literal_eval(key), ast.literal_eval(value)


def test_installed_highs_accepts_every_option_linear_ot_sets():
    # a HiGHS release that drops or renames an option shows here by name
    options = dict(_highs_options(ast.parse(Path(linear_ot.__file__).read_text())))
    refused = [
        name for name, value in options.items()
        if linear_ot._highs._Highs().setOptionValue(name, value)
        != linear_ot._highs.HighsStatus.kOk
    ]
    assert refused == []
    assert {
        "output_flag", "mip_pool_soft_limit", "mip_heuristic_run_feasibility_jump",
    } <= set(options)


def test_lp_stopped_short_raises_no_convergence(monkeypatch):
    # with no pivots allowed the solve stops on the north-west-corner basis,
    # which is not optimal for this cost
    monkeypatch.setattr(linear_ot, "_PIVOTS_PER_CELL", 0)
    with pytest.raises(NoConvergence, match="transportation LP 0 reached the pivot cap"):
        solve_exact_ot([[4.0, 1.0], [2.0, 3.0]], UNIF2, UNIF2)


@pytest.mark.parametrize("option, value", [("bogus_option", 1), ("mip_pool_soft_limit", "ten")])
def test_highs_model_raises_on_a_refused_option(option, value):
    # HiGHS itself only returns kError and solves without the option
    b = np.ones(2)
    with pytest.raises(ValidationError, match=option):
        linear_ot._highs_model(
            (*linear_ot._transport_pattern(1, 1), np.ones(2)), np.zeros(1), np.ones(1), b, b,
            **{option: value},
        )


def _rounding_milp(shares, u, d):
    """nearest_capacity_assignment with the read-off turned off: the MILP."""
    with mock.patch.object(linear_ot, "_cheapest_admissible", lambda cost, u, d: None):
        return linear_ot.nearest_capacity_assignment(shares, u, d)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    quarters=st.booleans(),
    columns_sum_to_one=st.booleans(),
)
def test_rounding_read_off_equals_the_milp(n, m, seed, quarters, columns_sum_to_one):
    # shares on a grid of quarters tie often; shares whose columns do not
    # sum to one can make two agents both worth taking
    rng = np.random.default_rng(seed)
    shares = rng.random((n, m))
    if quarters:
        shares = np.round(4 * shares) / 4
    if columns_sum_to_one:
        col = shares.sum(axis=0)
        shares = np.divide(shares, col, out=np.zeros_like(shares), where=col > 0)
    u = rng.integers(1, 7, n)
    d = rng.integers(1, 7, m)
    fired = linear_ot._cheapest_admissible(1.0 - 2.0 * shares, u * 1.0, d * 1.0)
    got = linear_ot.nearest_capacity_assignment(shares, u, d)
    if fired is not None:
        assert got.dtype == np.int64
        assert np.array_equal(got, fired)
        assert np.array_equal(got, _rounding_milp(shares, u, d))


class TestRoundingReadOff:
    # (shares, u, d, the assignment returned, whether HiGHS builds a model)
    CASES = {
        "certified": ([[0.8, 0.1, 0.0], [0.2, 0.9, 0.3], [0.0, 0.0, 0.7]], [5, 5, 5], [1, 2, 3],
                      [[1, 0, 0], [0, 1, 0], [0, 0, 1]], False),
        "one-agent": ([[1.0, 1.0]], [4], [2, 2], [[1, 1]], False),
        "near-tie": ([[0.5 + 1e-7], [0.5 - 1e-7]], [1, 1], [1], [[1], [0]], True),
        "over-capacity": ([[1.0, 0.9], [0.0, 0.1]], [1, 2], [1, 1], [[1, 0], [0, 1]], True),
        "no-agent-holds-a-task": ([[0.6, 0.4], [0.4, 0.6]], [2, 1], [2, 3], [[1, 0], [0, 0]], True),
    }

    @pytest.mark.parametrize("shares,u,d,want,built", list(CASES.values()), ids=list(CASES))
    def test_only_an_uncertified_read_off_builds_a_model(
        self, shares, u, d, want, built, monkeypatch
    ):
        models = []
        build = linear_ot._highs_model

        def counting(*args, **kwargs):
            models.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(linear_ot, "_highs_model", counting)
        x = linear_ot.nearest_capacity_assignment(np.array(shares), u, d)
        assert x.tolist() == want
        assert len(models) == built


def test_only_linear_ot_talks_to_the_solver_backend():
    # linear_ot alone imports scipy, builds HiGHS models and calls scipy's
    # LP/MILP solvers, and no module reaches into its private helpers
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
    own = list(_backend_references(ast.parse((package / "linear_ot.py").read_text())))
    assert own
    # HiGHS takes its constraint matrices as plain CSC arrays
    assert [what for _, what in own if "scipy.sparse" in what] == []


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

    @pytest.mark.parametrize("scale", [1.0, 5.0], ids=["kernel", "log-domain"])
    def test_max_iter_must_be_a_positive_integer(self, scale):
        # at scale 5, max|C|/eps = 2000 takes the log-domain branch
        c = np.array([[4.0, 1.0], [2.0, 3.0]]) * scale
        for max_iter in (0, -1, 2.0, True):
            with pytest.raises(ValidationError, match="max_iter"):
                sinkhorn(c, UNIF2, UNIF2, epsilon=0.01, max_iter=max_iter)
        coupling, _, iters, _ = sinkhorn(c, UNIF2, UNIF2, epsilon=0.01, max_iter=1)
        assert iters == 1
        assert np.allclose(coupling.plan.sum(axis=0), 0.5)

    def test_log_domain_reports_unconverged(self):
        # max|C|/eps is about 1000, so the log-domain branch runs; two
        # iterations do not reach MARGINAL_TOL
        rng = np.random.default_rng(0)
        c = rng.random((4, 4)) * 10.0
        h = normalize_masses(rng.random(4) + 0.2)
        g = normalize_masses(rng.random(4) + 0.2)
        _, _, iters, converged = sinkhorn(c, h, g, epsilon=0.01, max_iter=2)
        assert (iters, converged) == (2, False)

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

    def test_empty_stack(self):
        assert sinkhorn_project(np.ones((0, 2, 2)), UNIF2, UNIF2) == []

    def test_stack_of_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            sinkhorn_project(np.ones((3, 2, 3)), UNIF2, UNIF2)
        with pytest.raises(DimensionMismatch):
            sinkhorn_project(np.ones((1, 3, 2, 2)), UNIF2, UNIF2)

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


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(1, 25),
    n=st.integers(1, 12),
    m=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    zeros=st.booleans(),
)
def test_stacked_projection_is_bitwise_each_slice_alone(trials, n, m, seed, zeros):
    rng = np.random.default_rng(seed)

    def masses(k):
        w = rng.random(k) + 0.2
        if zeros:
            w[rng.random(k) < 0.4] = 0.0
            w[rng.integers(k)] = 1.0
        return normalize_masses(w)

    h, g = masses(n), masses(m)
    # log-normal entries: a slice of spread 0 stops after one sweep, one of
    # spread 4 after up to a few hundred
    spread = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=trials)
    raw = np.exp(spread[:, None, None] * rng.standard_normal((trials, n, m)))
    before = raw.copy()
    stacked = sinkhorn_project(raw, h, g)
    assert np.array_equal(raw, before)
    assert len(stacked) == trials
    for coupling, start in zip(stacked, raw):
        assert np.array_equal(coupling.plan, sinkhorn_project(start, h, g).plan)


def test_stack_with_one_slice_at_the_sweep_cap(monkeypatch):
    rng = np.random.default_rng(11)
    h = normalize_masses(rng.random(6) + 0.2)
    g = normalize_masses(rng.random(5) + 0.2)
    raw = rng.uniform(0, 1, size=(4, 6, 5)) + 1e-6
    raw[2] = np.exp(6.0 * rng.standard_normal((6, 5)))

    def scale(stack, max_sweeps):
        return linear_ot._scale(
            stack.copy(), h.weights, g.weights, PROJECTION_DELTA, max_sweeps
        )

    _, need, _ = scale(raw, 10_000)
    # slice 2 needs one sweep more than the cap, the others fewer
    cap = int(need[2]) - 1
    assert need[[0, 1, 3]].max() < cap
    plans, sweeps, converged = scale(raw, cap)
    assert converged.tolist() == [True, True, False, True]
    assert sweeps.tolist() == [need[0], need[1], cap, need[3]]
    for t in range(4):
        assert np.array_equal(plans[t], scale(raw[t : t + 1], cap)[0][0])
    monkeypatch.setattr(linear_ot, "PROJECTION_MAX_SWEEPS", cap)
    with pytest.raises(NoConvergence, match=r"slices \[2\]"):
        sinkhorn_project(raw, h, g)
    with pytest.raises(NoConvergence):
        sinkhorn_project(raw[2], h, g)
    for t in (0, 1, 3):
        assert np.array_equal(sinkhorn_project(raw[t], h, g).plan, plans[t])


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

    def test_dimension_mismatch(self):
        a = GaussianMeasure([0.0, 0.0], np.eye(2))
        b = GaussianMeasure([0.0, 0.0, 0.0], np.eye(3))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(DimensionMismatch):
                w2_gaussian(x, y)

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            GaussianMeasure([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])
