import ast
from pathlib import Path

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
from gwqap.cqap import AssignmentMatrix
from gwqap.errors import ValidationError
from gwqap.ga import _BLOCK, UNASSIGNED_PENALTY, _Draws, _order_crossover, _swap_mutation
from tests.test_cqap import make_instance


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
        for n, m in ((2, 3), (3, 4), (4, 6), (5, 5)):
            for _ in range(10):
                flow = rng.uniform(0.0, 5.0, size=(n, n))
                distance = rng.uniform(0.0, 5.0, size=(m, m))
                inst = make_instance(
                    rng.integers(1, 7, size=n), rng.integers(1, 7, size=m),
                    flow=flow + flow.T, distance=distance + distance.T,
                    linear=rng.uniform(0.0, 5.0, size=(n, m)),
                )
                priority = rng.permutation(m)
                got = decode(inst, priority).x
                assert np.array_equal(got, reference(inst, priority))

    def test_own_cost_computed_once(self):
        inst = make_instance(
            [2, 2], [1, 1, 1], flow=[[1.0, 2.0], [2.0, 3.0]],
            distance=np.full((3, 3), 2.0), linear=np.ones((2, 3)),
        )
        first = inst.own_cost
        assert inst.own_cost is first
        assert np.array_equal(first, [[3.0, 3.0, 3.0], [7.0, 7.0, 7.0]])


class TestOperators:
    def test_permutation_invariant_preserved(self):
        # 10^4 random crossover+mutation applications keep bijections
        rng = np.random.default_rng(0)
        draws = _Draws(rng)
        for m in (1, 2, 7):
            target = tuple(range(m))
            for _ in range(10_000):
                p1 = tuple(rng.permutation(m).tolist())
                p2 = tuple(rng.permutation(m).tolist())
                child = _order_crossover(p1, p2, draws)
                child = _swap_mutation(child, draws)
                assert type(child) is tuple
                assert tuple(sorted(child)) == target


class TestDraws:
    BOUNDS = (1, 2, 3, 50, 2**31 + 1, 2**32)

    @pytest.mark.parametrize("seed", range(6))
    def test_same_stream_as_generator(self, seed):
        # interleaved below/unit give the values integers/random give on a
        # twin generator; at 2^31 + 1 about half of all draws are rejected
        policy = SeedPolicy(seed)
        rng, twin = policy.generator(), policy.generator()
        if seed % 2:  # may leave a buffered 32-bit half in the bit generator
            assert np.array_equal(rng.permutation(seed + 4), twin.permutation(seed + 4))
        draws = _Draws(rng)
        order = np.random.default_rng(100 + seed)
        for _ in range(3000):
            if order.random() < 0.25:
                got, want = draws.unit(), twin.random()
            else:
                n = self.BOUNDS[order.integers(len(self.BOUNDS))]
                got, want = draws.below(n), twin.integers(0, n)
            assert got == want
        draws.hand_back()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_refills_keep_the_pending_half(self):
        # each round reads a block up to its last word with unit(), whose
        # low half below() then takes; the high half is pending when unit()
        # reads the next block's first word, and the next below() draws it.
        # Powers of two are never rejected, so the word count is exact.
        policy = SeedPolicy(12)
        rng, twin = policy.generator(), policy.generator()
        draws = _Draws(rng)
        for read in (0, 1, 1, 1, 1):  # words already read from the block
            for _ in range(_BLOCK - 1 - read):
                assert draws.unit() == twin.random()
            assert draws.below(64) == twin.integers(0, 64)
            assert twin.bit_generator.state["has_uint32"] == 1
            assert draws.unit() == twin.random()  # fetches a block
            assert draws.below(2**32) == twin.integers(0, 2**32)
            assert draws.below(8) == twin.integers(0, 8)
            draws.hand_back()  # with a half pending, mid-block
            assert rng.bit_generator.state == twin.bit_generator.state
            draws = _Draws(rng)  # starts from the half handed back
            assert draws.below(2**31) == twin.integers(0, 2**31)
            assert draws.unit() == twin.random()
        draws.hand_back()
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_rejects_ranges_numpy_draws_on_64_bits(self):
        draws = _Draws(SeedPolicy(0).generator())
        with pytest.raises(ValueError):
            draws.below(2**32 + 1)
        with pytest.raises(ValueError):
            draws.below(0)


def _bit_generator_uses(tree):
    """What `_Draws` takes from numpy's bit generator: the attributes it
    looks up on ``self._bits`` and the state keys it reads or sets."""
    (reader,) = [top for top in tree.body if getattr(top, "name", None) == "_Draws"]
    for node in ast.walk(reader):
        if isinstance(node, ast.Attribute) and getattr(node.value, "attr", None) == "_bits":
            yield node.attr
        elif isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "state":
            yield f"state[{node.slice.value!r}]"
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict":
            yield from (f"state[{k.arg!r}]" for k in node.keywords)


def test_draws_use_only_what_the_installed_bit_generator_has():
    # the CI floor job runs the oldest numpy pyproject.toml allows; an
    # attribute or state key its PCG64 lacks shows here by name
    bits = SeedPolicy(0).generator().bit_generator
    state = bits.state
    assert state["bit_generator"] == "PCG64"

    def present(use):
        if use.startswith("state["):
            return ast.literal_eval(use[len("state["):-1]) in state
        return hasattr(bits, use)

    uses = set(_bit_generator_uses(ast.parse(Path(gwqap.ga.__file__).read_text())))
    assert [use for use in sorted(uses) if not present(use)] == []
    assert {"random_raw", "state", "state['has_uint32']", "state['uinteger']"} <= uses


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
        for population in (1, 2.5):
            with pytest.raises(ValidationError):
                GaConfig(population=population)
        # tournaments draw with replacement, so 2 < TOURNAMENT_SIZE is fine
        assert GaConfig(population=2).population == 2

    def test_negative_generations_rejected(self):
        for generations in (-1, 2.0):
            with pytest.raises(ValidationError, match="generations"):
                GaConfig(generations=generations)
        assert GaConfig(generations=0).generations == 0


def _uncached_ga(inst, config):
    """The generation loop without a decode cache, as solve_ga ran before it
    had one, with the set-based OX crossover; also returns the set of
    distinct priorities it decoded. It reads the module's rates and
    tournament size when called, so a patched constant reaches both."""
    ga = gwqap.ga

    def order_crossover(p1, p2, rng):
        a, b = sorted(rng.integers(0, p1.shape[0], size=2))
        kept = set(p1[a : b + 1].tolist())
        fill = np.array([t for t in p2.tolist() if t not in kept], dtype=np.int64)
        return np.concatenate((fill[:a], p1[a : b + 1], fill[a:]))

    def fitness(x):
        unassigned = int((x.x.sum(axis=0) == 0).sum())
        return cqap_objective(inst, x) + UNASSIGNED_PENALTY * unassigned

    rng = config.seed.generator()
    pop = [rng.permutation(inst.m) for _ in range(config.population)]

    def pick():
        contenders = rng.integers(0, config.population, size=ga.TOURNAMENT_SIZE)
        return pop[min(contenders, key=lambda c: (fits[c], c))]

    history, distinct = [], set()
    for generation in range(config.generations + 1):
        if generation:
            children = [pop[int(np.argmin(fits))]]
            while len(children) < config.population:
                p1, p2 = pick(), pick()
                if rng.random() < ga.CROSSOVER_RATE:
                    child = order_crossover(p1, p2, rng)
                else:
                    child = p1
                if rng.random() < ga.MUTATION_RATE:
                    i, j = rng.integers(0, child.shape[0], size=2)
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
        "one-task": ((3, 1), 8, {}),  # numpy's integers(0, 1) draws nothing
        # about 10^5 words, so some 100 blocks of the reader
        "default-config": ("S2", 9, dict(population=GaConfig.population,
                                         generations=GaConfig.generations)),
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
    # full-interaction decode produced them; instance and GA seeds follow
    # perfbench's suite-S slots (seed 7, GA stream offset 6000)
    CASES = [
        ("S1", 23000, dict(population=4, generations=6, TOURNAMENT_SIZE=2),
         [[1, 1, 0], [0, 0, 0], [0, 0, 1]], 24.057842151394574,
         [28.867106698747527, 28.26576090333444, 28.26576090333444,
          28.26576090333444, 28.26576090333444, 28.26576090333444,
          24.057842151394574]),
        ("S2", 10000, dict(population=4, generations=6, TOURNAMENT_SIZE=2),
         [[0, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 0]],
         85.89913478766081,
         [110.60540878550819, 110.60540878550819, 110.60540878550819,
          110.60540878550819, 99.23077029837113, 99.23077029837113,
          85.89913478766081]),
        ("S2", 2000, dict(population=20, generations=8),
         [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 0, 0]],
         228.0775787814715, [228.0775787814715] * 9),
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
