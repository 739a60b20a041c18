import itertools

import numpy as np
import pytest

from gwqap import (
    GaConfig,
    InstanceSpec,
    SeedPolicy,
    check_feasible,
    cqap_objective,
    decode,
    generate_instance,
    solve_ga,
)
import gwqap.ga
from gwqap.cqap import AssignmentMatrix, placements
from gwqap.errors import ValidationError
from gwqap.ga import UNASSIGNED_PENALTY, _order_crossover_rows, _swap_mutation_rows
from tests.test_cqap import make_instance


def _diagonal_instances(rng):
    """Ten random instances at each of four sizes, with nonzero flow and
    distance diagonals; the caller may draw from rng between them."""
    for n, m in ((2, 3), (3, 4), (4, 6), (5, 5)):
        for _ in range(10):
            flow = rng.uniform(0.0, 5.0, size=(n, n))
            distance = rng.uniform(0.0, 5.0, size=(m, m))
            yield make_instance(
                rng.integers(1, 7, size=n), rng.integers(1, 7, size=m),
                flow=flow + flow.T, distance=distance + distance.T,
                linear=rng.uniform(0.0, 5.0, size=(n, m)),
            )


class TestDecode:
    def test_one_by_one(self):
        inst = make_instance([4], [2], linear=[[1.0]])
        x = decode(inst, [0])
        assert np.array_equal(x.x, [[1]])

    def test_nearest_agent_when_structure_free(self):
        # F = D = 0 and ample capacity: marginal increase is the linear cost
        linear = np.array([[1.0, 9.0], [8.0, 2.0]])
        inst = make_instance([10, 10], [1, 1], linear=linear)
        x = decode(inst, [0, 1])
        assert np.array_equal(x.x, np.eye(2, dtype=np.int64))

    def test_priority_orders_both_feasible(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(0)))
        for priority in (np.array([0, 1, 2]), np.array([2, 1, 0])):
            x = decode(inst, priority)
            ok, _ = check_feasible(inst, x)
            assert ok
            assert cqap_objective(inst, x) >= 0.0


    def test_matches_full_interaction_reference(self):
        # the reference recomputes all of F x D^T per task; decode takes
        # column j only, which sums in another order, so compare assignments
        def reference(inst, priority):
            F, D = inst.flow.entries, inst.distance.entries
            x = np.zeros((inst.n, inst.m), dtype=np.int64)
            load = np.zeros(inst.n, dtype=np.int64)
            for j in priority:
                feasible = np.flatnonzero(inst.capacity - load >= inst.demand[j])
                if feasible.size == 0:
                    continue
                cross = F @ x @ D.T
                delta = inst.linear_cost[feasible, j] + 2.0 * cross[feasible, j]
                i = int(feasible[np.argmin(delta)])
                x[i, j] = 1
                load[i] += inst.demand[j]
            return x

        rng = np.random.default_rng(5)
        for tid in ("S2", "S3", "M1", "M3"):
            inst = generate_instance(InstanceSpec.named(tid, SeedPolicy(1)))
            for _ in range(25):
                priority = rng.permutation(inst.m)
                got = decode(inst, priority).x
                assert np.array_equal(got, reference(inst, priority))

    def test_counts_the_self_term(self):
        # agent 0's flow diagonal makes it dearer than agent 1's linear cost
        inst = make_instance(
            [1, 1], [1], flow=[[5.0, 0.0], [0.0, 0.0]], distance=[[1.0]],
            linear=[[0.0], [1.0]],
        )
        x = decode(inst, [0])
        assert np.array_equal(x.x, [[0], [1]])
        assert cqap_objective(inst, x) == 1.0

    def test_each_step_takes_the_smallest_objective_increase(self):
        # nonzero diagonals: the increase is measured by cqap_objective
        def reference(inst, priority):
            x = np.zeros((inst.n, inst.m), dtype=np.int64)
            load = np.zeros(inst.n, dtype=np.int64)
            for j in priority:
                feasible = np.flatnonzero(inst.capacity - load >= inst.demand[j])
                if feasible.size == 0:
                    continue
                base = cqap_objective(inst, AssignmentMatrix(x))
                increase = []
                for i in feasible:
                    y = x.copy()
                    y[i, j] = 1
                    increase.append(cqap_objective(inst, AssignmentMatrix(y)) - base)
                i = int(feasible[np.argmin(increase)])
                x[i, j] = 1
                load[i] += inst.demand[j]
            return x

        rng = np.random.default_rng(12)
        for inst in _diagonal_instances(rng):
            priority = rng.permutation(inst.m)
            got = decode(inst, priority).x
            assert np.array_equal(got, reference(inst, priority))

    def test_placements_price_the_objective_increase(self):
        # random partial assignments and residuals on the same instances:
        # the step offers exactly the agents whose residual holds d_j, at
        # what cqap_objective says the placement adds
        rng = np.random.default_rng(13)
        for inst in _diagonal_instances(rng):
            n, m = inst.n, inst.m
            placed = rng.random(m) < 0.5
            x = np.zeros((n, m))
            x[rng.integers(0, n, size=m)[placed], np.flatnonzero(placed)] = 1
            residual = rng.integers(0, 7, size=n)
            base = cqap_objective(inst, AssignmentMatrix(x))
            for j in np.flatnonzero(~placed):
                agents, costs = placements(inst, x, residual, j)
                assert np.array_equal(agents, np.flatnonzero(residual >= inst.demand[j]))
                assert costs.shape == agents.shape
                for i, cost in zip(agents, costs):
                    y = x.copy()
                    y[i, j] = 1
                    increase = cqap_objective(inst, AssignmentMatrix(y)) - base
                    assert cost == pytest.approx(increase, rel=1e-12, abs=0.0)
            agents, costs = placements(inst, x, np.zeros(n, dtype=np.int64), 0)
            assert agents.shape == costs.shape == (0,)

    def test_own_cost_computed_once(self):
        inst = make_instance(
            [2, 2], [1, 1, 1], flow=[[1.0, 2.0], [2.0, 3.0]],
            distance=np.full((3, 3), 2.0), linear=np.ones((2, 3)),
        )
        first = inst.own_cost
        assert inst.own_cost is first
        assert np.array_equal(first, [[3.0, 3.0, 3.0], [7.0, 7.0, 7.0]])


def _tuple_order_crossover(p1: tuple, p2: tuple, a: int, b: int) -> tuple:
    """OX on one pair of tuples, as the generation loop once ran it per child:
    keep p1 between a and b (either order, both included) and fill the rest
    with p2's other tasks in p2's order."""
    a, b = min(a, b), max(a, b)
    keep = set(p1[a : b + 1])
    fill = [t for t in p2 if t not in keep]
    fill[a:a] = p1[a : b + 1]
    return tuple(fill)


class TestOperators:
    def test_permutation_invariant_preserved(self):
        # every cut and swap position for m <= 6, on every parent pair up to
        # m = 4 and on 20 x 20 of them after that, all as rows of one call
        for m in range(1, 7):
            target = list(range(m))
            perms = np.array(list(itertools.permutations(target)), dtype=np.int64)
            parents = perms[:: max(1, len(perms) // 20)]
            positions = np.array(list(itertools.product(range(m), repeat=2)))
            pairs = np.array(list(itertools.product(range(len(parents)), repeat=2)))
            k = len(positions)
            p1 = np.repeat(parents[pairs[:, 0]], k, axis=0)
            p2 = np.repeat(parents[pairs[:, 1]], k, axis=0)
            a, b = np.tile(positions, (len(pairs), 1)).T
            lows, highs = np.minimum(a, b), np.maximum(a, b)
            for cross in (True, False):
                children = _order_crossover_rows(p1, p2, a, b, np.full(len(p1), cross))
                assert children.dtype == np.int64 and children.shape == p1.shape
                for c, q1, q2, lo, hi in zip(children, p1, p2, lows, highs):
                    assert sorted(c.tolist()) == target
                    if not cross:
                        assert np.array_equal(c, q1)
                        continue
                    assert np.array_equal(c[lo : hi + 1], q1[lo : hi + 1])
                    rest = [t for t in q2.tolist() if t not in q1[lo : hi + 1]]
                    assert np.concatenate([c[:lo], c[hi + 1 :]]).tolist() == rest
            p = np.repeat(perms, k, axis=0)
            i, j = np.tile(positions, (len(perms), 1)).T
            for mutate in (True, False):
                children = _swap_mutation_rows(p, i, j, np.full(len(p), mutate))
                assert children.dtype == np.int64
                for c, q, ci, cj in zip(children, p, i, j):
                    assert sorted(c.tolist()) == target
                    if not mutate:
                        assert np.array_equal(c, q)
                        continue
                    assert (c[ci], c[cj]) == (q[cj], q[ci])
                    assert all(c[t] == q[t] for t in range(m) if t not in (ci, cj))

    def test_rows_match_the_tuple_operators(self):
        # random populations, cut positions and tests: each row is what the
        # per-child tuple OX and swap make of it
        rng = np.random.default_rng(30)
        for m in (1, 2, 3, 5, 8, 13):
            rows = 200
            p1 = np.array([rng.permutation(m) for _ in range(rows)])
            p2 = np.array([rng.permutation(m) for _ in range(rows)])
            a, b, i, j = rng.integers(0, m, size=(rows, 4)).T
            cross, mutate = (rng.random((rows, 2)) < 0.5).T
            children = _swap_mutation_rows(
                _order_crossover_rows(p1, p2, a, b, cross), i, j, mutate
            )
            for k in range(rows):
                q1, q2 = tuple(p1[k].tolist()), tuple(p2[k].tolist())
                want = list(_tuple_order_crossover(q1, q2, a[k], b[k]) if cross[k] else q1)
                if mutate[k]:
                    want[i[k]], want[j[k]] = want[j[k]], want[i[k]]
                assert children[k].tolist() == want


class TestSolveGa:
    def test_no_evolution_returns_best_of_initial(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(0)))
        config = GaConfig(population=2, generations=0, seed=SeedPolicy(9))
        _, obj, history = solve_ga(inst, config)
        assert len(history) == 1
        assert history[0] == obj

    def test_never_beats_oracle_and_often_matches(self):
        from gwqap import solve_exact_enum

        matches = 0
        for seed in range(10):
            inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(seed)))
            _, opt, proven = solve_exact_enum(inst)
            assert proven
            config = GaConfig(population=30, generations=40, seed=SeedPolicy(seed))
            _, obj, _ = solve_ga(inst, config)
            assert obj >= opt - 1e-9
            if abs(obj - opt) <= 1e-9:
                matches += 1
        assert matches >= 6

    def test_deterministic_history(self):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(2)))
        config = GaConfig(population=20, generations=15, seed=SeedPolicy(4))
        _, _, h1 = solve_ga(inst, config)
        _, _, h2 = solve_ga(inst, config)
        assert np.array_equal(h1, h2)

    def test_monotone_history(self):
        inst = generate_instance(InstanceSpec("S2", 4, 4, SeedPolicy(3)))
        config = GaConfig(population=25, generations=30, seed=SeedPolicy(1))
        _, _, history = solve_ga(inst, config)
        assert all(b <= a for a, b in zip(history, history[1:]))

    def test_config_validation(self):
        for population in (1, 2.5, True):
            with pytest.raises(ValidationError):
                GaConfig(population=population)
        for generations in (True, False):  # a bool is not a count
            with pytest.raises(ValidationError, match="generations"):
                GaConfig(generations=generations)
        # tournaments draw with replacement, so 2 < TOURNAMENT_SIZE is fine
        assert GaConfig(population=2).population == 2

    def test_negative_generations_rejected(self):
        for generations in (-1, 2.0):
            with pytest.raises(ValidationError, match="generations"):
                GaConfig(generations=generations)
        assert GaConfig(generations=0).generations == 0


def _uncached_ga(inst, config):
    """The generation loop without a decode cache, on numpy-array
    populations, with the set-based OX crossover and one tournament at a
    time; also returns the set of distinct priorities it decoded. It reads
    the module's rates and tournament size when called, so a patched
    constant reaches both."""
    ga = gwqap.ga

    def order_crossover(p1, p2, a, b):
        a, b = sorted((a, b))
        kept = set(p1[a : b + 1].tolist())
        fill = np.array([t for t in p2.tolist() if t not in kept], dtype=np.int64)
        return np.concatenate((fill[:a], p1[a : b + 1], fill[a:]))

    def fitness(x):
        unassigned = int((x.x.sum(axis=0) == 0).sum())
        return cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned

    P = config.population
    rng = config.seed.generator()
    pop = [rng.permutation(inst.m) for _ in range(P)]

    history, distinct = [], set()
    for generation in range(config.generations + 1):
        if generation:
            entrants = rng.integers(0, P, size=(P - 1, 2, ga.TOURNAMENT_SIZE))
            rates = rng.random((P - 1, 2))
            cuts = rng.integers(0, inst.m, size=(P - 1, 4))
            children = [pop[int(np.argmin(fits))]]
            for k in range(P - 1):
                p1, p2 = (pop[min(row, key=lambda c: (fits[c], c))] for row in entrants[k])
                a, b, i, j = cuts[k]
                child = order_crossover(p1, p2, a, b) if rates[k, 0] < ga.CROSSOVER_RATE else p1
                if rates[k, 1] < ga.MUTATION_RATE:
                    child = child.copy()
                    child[i], child[j] = child[j], child[i]
                children.append(child)
            pop = children
        distinct.update(tuple(p.tolist()) for p in pop)
        decoded = [decode(inst, p) for p in pop]
        fits = np.array([fitness(x) for x in decoded])
        history.append(float(fits.min()))

    best_x = decoded[int(np.argmin(fits))]
    return best_x, cqap_objective(inst, best_x), np.array(history), distinct


def _config_with_constants(params, seed, monkeypatch):
    """A GaConfig of the lower-case params; each upper-case one patches the
    ga module constant of that name for the rest of the test."""
    for name, value in params.items():
        if name.isupper():
            monkeypatch.setattr(gwqap.ga, name, value)
    return GaConfig(**{k: v for k, v in params.items() if not k.isupper()}, seed=seed)


class TestDecodeCache:
    def test_each_distinct_priority_decoded_once(self, monkeypatch):
        # S2 has 4 tasks, so at most 4! = 24 distinct priorities; the last
        # call decodes the winner again to return its assignment
        seed = SeedPolicy(0)
        inst = generate_instance(InstanceSpec.named("S2", seed))
        config = GaConfig(population=50, generations=50, seed=seed.substream(6000))
        _, _, _, distinct = _uncached_ga(inst, config)

        decoded = []

        def counting(inst, priority):
            x = decode(inst, priority)
            decoded.append((priority, x.x.tobytes()))
            return x

        monkeypatch.setattr(gwqap.ga, "decode", counting)
        got_x, _, _ = solve_ga(inst, config)
        scored = [key for key, _ in decoded[:-1]]
        assert len(scored) == len(set(scored)) <= 24
        assert set(scored) == distinct
        assert decoded[-1] in decoded[:-1]
        assert decoded[-1][1] == got_x.x.tobytes()

    BITWISE_CASES = {
        **{f"{seed}-{tid}": (tid, seed, {}) for seed in (0, 1, 2) for tid in ("M1", "S1", "S2", "S3")},
        "tournament-is-population": ("S2", 3, dict(TOURNAMENT_SIZE=50)),
        "no-crossover": ("S2", 4, dict(CROSSOVER_RATE=0.0)),
        "always-crossover": ("S3", 5, dict(CROSSOVER_RATE=1.0)),
        "always-mutate": ("M1", 6, dict(MUTATION_RATE=1.0)),
        "no-generations": ("S1", 7, dict(population=2, generations=0)),
        "one-task": ((3, 1), 8, {}),
        "default-config": ("S2", 9, dict(population=GaConfig.population,
                                         generations=GaConfig.generations)),
        "longer-than-a-draw-block": ("S2", 10, dict(population=30, generations=70)),
        "two-chromosomes": ("S3", 11, dict(population=2)),
        "small-draw-blocks": ("S3", 12, dict(DRAW_BLOCK=3)),
    }

    @pytest.mark.parametrize("tid,seed,params", list(BITWISE_CASES.values()), ids=list(BITWISE_CASES))
    def test_bitwise_equal_to_uncached_loop(self, tid, seed, params, monkeypatch):
        policy = SeedPolicy(seed)
        if isinstance(tid, tuple):
            spec = InstanceSpec("T", *tid, policy)
        else:
            spec = InstanceSpec.named(tid, policy)
        inst = generate_instance(spec)
        params = {"population": 50, "generations": 50, **params}
        config = _config_with_constants(params, policy.substream(6000), monkeypatch)
        want_x, want_obj, want_history, _ = _uncached_ga(inst, config)
        got_x, got_obj, got_history = solve_ga(inst, config)
        assert got_x.x.dtype == want_x.x.dtype
        assert got_x.x.tobytes() == want_x.x.tobytes()
        assert type(got_obj) is type(want_obj)
        assert got_obj == want_obj
        assert got_history.dtype == want_history.dtype
        assert got_history.tobytes() == want_history.tobytes()


class TestRegressionPin:
    # (spec, seed stream, config, assignment, objective, history) as the
    # per-generation draws produced them; instance and GA seeds follow
    # perfbench's suite-S slots (seed 7, GA stream offset 6000). The GA uses
    # only public Generator calls, and the CI floor job (numpy 1.24) runs
    # these pins against them. numpy does not promise Generator streams
    # across releases, so a pin that fails only on the floor job is a stream
    # change to record here, not a test to loosen.
    CASES = [
        ("S1", 23000, dict(population=4, generations=6, TOURNAMENT_SIZE=2),
         [[0, 1, 1], [0, 0, 0], [1, 0, 0]], 28.867106698747527,
         [28.867106698747527] * 7),
        ("S2", 10000, dict(population=4, generations=6, TOURNAMENT_SIZE=2),
         [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0]],
         85.89913478766081,
         [110.60540878550819] * 4 + [85.89913478766081] * 3),
        ("S2", 2000, dict(population=20, generations=8),
         [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]],
         228.0775787814715, [228.0775787814715] * 9),
        # suite-S's GA cells (50 x 50) on slots 0 and 3
        ("S1", 1000, dict(population=50, generations=50),
         [[1, 0, 1], [0, 0, 0], [0, 1, 0]], 132.85884646723233,
         [132.85884646723233] * 51),
        ("S2", 4000, dict(population=50, generations=50),
         [[0, 0, 1, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]],
         177.73977549218503, [177.73977549218503] * 51),
    ]

    @pytest.mark.parametrize("tid,stream,params,x,obj,history", CASES)
    def test_pinned_output(self, tid, stream, params, x, obj, history, monkeypatch):
        seed = SeedPolicy(7, stream)
        inst = generate_instance(InstanceSpec.named(tid, seed))
        got_x, got_obj, got_history = solve_ga(
            inst, _config_with_constants(params, seed.substream(6000), monkeypatch)
        )
        assert got_x.x.dtype == np.int64
        assert got_x.x.tolist() == x
        assert got_obj == obj
        assert got_history.tolist() == history
