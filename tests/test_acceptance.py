"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with pytest -s to see them).
"""

import itertools
import time

import numpy as np

from gwqap import (
    GaConfig,
    GaussianMeasure,
    InstanceSpec,
    MethodSpec,
    MmSpace,
    SeedPolicy,
    SymCostMatrix,
    check_feasible,
    cqap_objective,
    emit_report,
    gap_percent,
    generate_instance,
    gw_gradient,
    gw_loss,
    marginal_violation,
    normalize_masses,
    round_coupling,
    run_suite,
    sinkhorn_project,
    solve_entropic_gw,
    solve_exact_enum,
    solve_exact_ot,
    solve_fgw,
    solve_ga,
    solve_gw,
    solve_gw_multi_init,
    to_fgw_problem,
    to_gw_problem,
    w2_gaussian,
)
from gwqap.bench import solve_with_method
from gwqap.cqap import AssignmentMatrix
from gwqap.gw import GwProblem, MultiInitConfig
from tests import conftest


def check(criterion, ok, detail):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    # surfaced after the run even when pytest captures per-test output
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, f"criterion {criterion} failed: {detail}"


def _seeded_instances(count, sizes):
    """First `count` seeds (in order) that yield a feasible instance."""
    from gwqap.errors import GenerationFailed

    out = []
    seed = 0
    while len(out) < count:
        n, m = sizes[seed % len(sizes)]
        try:
            spec = InstanceSpec(f"acc-{n}x{m}-{seed}", n, m, SeedPolicy(seed))
            out.append(generate_instance(spec))
        except GenerationFailed:
            pass
        seed += 1
    return out


def _random_metric_space(rng, n, mass=None):
    pts = rng.uniform(0, 10, size=(n, 2))
    d = np.sqrt(((pts[:, None] - pts[None, :]) ** 2).sum(-1))
    if mass is None:
        mass = normalize_masses(rng.random(n) + 0.2)
    return MmSpace(SymCostMatrix(d), mass)


def _naive_gw_loss(C1, C2, P):
    # materialized 4-D tensor, the independent route to the same number
    diff = C1[:, :, None, None] - C2[None, None, :, :]
    return float(np.einsum("ijkl,ik,jl->", diff**2, P, P))


def test_criterion_1_oracle_equivalence():
    sizes = [(3, 3), (3, 4), (4, 3), (6, 2), (5, 2), (4, 2)]
    t0 = time.perf_counter()
    checked = 0
    for seed, inst in enumerate(_seeded_instances(100, sizes)):
        n, m = inst.n, inst.m
        _, enum_obj, proven = solve_exact_enum(inst)
        assert proven

        nm = n * m
        masks = np.arange(1 << nm, dtype=np.int64)
        bits = ((masks[:, None] >> np.arange(nm)) & 1).astype(np.float64)
        xs = bits.reshape(-1, n, m)
        load = np.einsum("kij,j->ki", xs, inst.demand.astype(float))
        covered = np.einsum("i,kij->kj", inst.capacity.astype(float), xs)
        feasible = (load <= inst.capacity).all(axis=1) & (covered >= inst.demand).all(axis=1)
        F, D, C = inst.flow.entries, inst.distance.entries, inst.linear_cost
        inner = np.einsum("ab,kbc,dc->kad", F, xs, D)
        vals = (xs * inner).sum(axis=(1, 2)) + (C * xs).sum(axis=(1, 2))
        vals = np.where(feasible, vals, np.inf)
        tie_set = np.flatnonzero(vals <= vals.min() + 1e-9)
        assert any(
            cqap_objective(inst, AssignmentMatrix(xs[t].astype(np.int64))) == enum_obj
            for t in tie_set
        ), f"seed {seed}: enum {enum_obj} not in brute-force tie set"
        checked += 1
    elapsed = time.perf_counter() - t0
    check(1, checked == 100 and elapsed < 10.0, f"{checked} instances, {elapsed:.2f}s")


def test_criterion_2_contraction_vs_brute_force():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_loss_rel = 0.0
    worst_grad_abs = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        src = _random_metric_space(rng, n)
        tgt = _random_metric_space(rng, m)
        prob = GwProblem(src, tgt)
        raw = rng.uniform(0, 1, size=(n, m)) + 1e-6
        plan = sinkhorn_project(raw, src.mass, tgt.mass)
        C1, C2 = src.structure.entries, tgt.structure.entries

        fast = gw_loss(prob, plan)
        slow = _naive_gw_loss(C1, C2, plan.plan)
        worst_loss_rel = max(worst_loss_rel, abs(fast - slow) / max(abs(slow), 1e-300))

        grad = gw_gradient(prob, plan)
        step = 1e-6
        for i, k in itertools.product(range(n), range(m)):
            hi, lo = plan.plan.copy(), plan.plan.copy()
            hi[i, k] += step
            lo[i, k] -= step
            fd = (_naive_gw_loss(C1, C2, hi) - _naive_gw_loss(C1, C2, lo)) / (2 * step)
            worst_grad_abs = max(worst_grad_abs, abs(grad[i, k] - fd))
    elapsed = time.perf_counter() - t0
    check(
        2,
        worst_loss_rel < 1e-10 and worst_grad_abs < 1e-4 and elapsed < 30.0,
        f"loss rel {worst_loss_rel:.2e}, grad abs {worst_grad_abs:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_self_distance():
    worst = 0.0
    for n in (5, 10, 20):
        uniform = normalize_masses(np.ones(n))
        for seed in range(20):
            rng = np.random.default_rng(seed)
            space = _random_metric_space(rng, n, mass=uniform)
            sol = solve_gw(GwProblem(space, space))
            worst = max(worst, sol.objective)
    check(3, worst <= 1e-8, f"worst self-distance {worst:.2e}")


def test_criterion_4_multi_init_dominance_and_gap():
    t0 = time.perf_counter()
    within = 0
    dominated = 0
    total = 0
    for sid, (n, m) in (("S1", (3, 3)), ("S2", (4, 4))):
        for seed in range(50):
            inst = generate_instance(InstanceSpec(sid, n, m, SeedPolicy(seed)))
            _, opt, proven = solve_exact_enum(inst)
            assert proven
            prob = to_gw_problem(inst)
            default = solve_gw(prob)
            multi = solve_gw_multi_init(
                prob, MultiInitConfig(trials=20, seed=SeedPolicy(seed))
            )
            if multi.objective <= default.objective:
                dominated += 1
            rounded = round_coupling(inst, multi.coupling)
            ok, _ = check_feasible(inst, rounded)
            if ok and gap_percent(cqap_objective(inst, rounded), opt) <= 2.0:
                within += 1
            total += 1
    elapsed = time.perf_counter() - t0
    check(
        4,
        dominated == total and within >= 0.8 * total and elapsed < 120.0,
        f"dominance {dominated}/{total}, gap<=2% on {within}/{total}, {elapsed:.0f}s",
    )


def test_criterion_5_fgw_endpoint_reductions():
    worst_alpha0 = 0.0
    for inst in _seeded_instances(20, [(5, 6)]):
        prob = to_gw_problem(inst)

        sol0 = solve_fgw(to_fgw_problem(inst, 0.0))
        _, exact = solve_exact_ot(inst.linear_cost, prob.source.mass, prob.target.mass)
        worst_alpha0 = max(worst_alpha0, abs(sol0.objective - exact))

        sol1 = solve_fgw(to_fgw_problem(inst, 1.0))
        gw_sol = solve_gw(prob)
        assert sol1.objective_history == gw_sol.objective_history
        assert np.array_equal(sol1.coupling.plan, gw_sol.coupling.plan)
    check(5, worst_alpha0 <= 1e-8, f"worst alpha=0 deviation {worst_alpha0:.2e}")


def test_criterion_6_marginal_feasibility():
    worst = 0.0
    methods = [
        MethodSpec("gw"),
        MethodSpec("gw-multi", {"trials": 5}),
        MethodSpec("egw", {"epsilon": 0.8}),
        MethodSpec("fgw", {"alpha": 0.5}),
    ]
    for sid in ("S1", "S3", "M1"):
        spec = InstanceSpec.named(sid, SeedPolicy(1))
        inst = generate_instance(spec)
        for method in methods:
            *_, coupling = solve_with_method(inst, method, SeedPolicy(2))
            row, col = marginal_violation(coupling)
            worst = max(worst, row, col)
    # random-start projections must reach the tighter delta
    rng = np.random.default_rng(0)
    worst_proj = 0.0
    for _ in range(20):
        h = normalize_masses(rng.random(6) + 0.2)
        g = normalize_masses(rng.random(7) + 0.2)
        raw = rng.uniform(0, 1, size=(6, 7)) + 1e-6
        row, col = marginal_violation(sinkhorn_project(raw, h, g))
        worst_proj = max(worst_proj, row, col)
    check(
        6,
        worst <= 1e-9 and worst_proj <= 1e-12,
        f"worst solver violation {worst:.2e}, worst projection {worst_proj:.2e}",
    )


def test_criterion_7_scalability_trend():
    def timed(problem):
        t0 = time.perf_counter()
        solve_gw(problem)
        return time.perf_counter() - t0

    inst30 = generate_instance(InstanceSpec.named("L1", SeedPolicy(0)))
    inst100 = generate_instance(InstanceSpec.named("L5", SeedPolicy(0)))
    prob30 = to_gw_problem(inst30)
    prob100 = to_gw_problem(inst100)

    # medians of 7 runs, taken in alternation: a slow ~14 ms L1 run (the
    # denominator) or a slow stretch of a shared machine must not decide
    # the ratio
    runs = [(timed(prob30), timed(prob100)) for _ in range(7)]
    t_gw_30, t_gw_100 = (sorted(times)[3] for times in zip(*runs))
    t0 = time.perf_counter()
    solve_entropic_gw(prob100, epsilon=0.8)
    t_egw_100 = time.perf_counter() - t0
    t0 = time.perf_counter()
    solve_fgw(to_fgw_problem(inst100, 0.5))
    t_fgw_100 = time.perf_counter() - t0

    reports = run_suite(
        [InstanceSpec.named("L5", SeedPolicy(0))], [MethodSpec("exact")],
        measure_time=False,
    )
    skipped = reports[0].status == "SkippedTooLarge"
    ratio = t_gw_100 / t_gw_30
    ok = (
        max(t_gw_100, t_egw_100, t_fgw_100) < 120.0
        and skipped
        and 10.0 <= ratio <= 10_000.0
    )
    check(
        7,
        ok,
        f"gw100={t_gw_100:.2f}s egw100={t_egw_100:.2f}s fgw100={t_fgw_100:.2f}s "
        f"ratio={ratio:.1f} exact-skip={skipped}",
    )


def test_criterion_8_ga_sanity():
    within = 0
    total = 50
    for seed in range(total):
        inst = generate_instance(InstanceSpec("S1", 3, 3, SeedPolicy(seed)))
        _, opt, proven = solve_exact_enum(inst)
        assert proven
        x, obj, history = solve_ga(inst, GaConfig(seed=SeedPolicy(seed)))
        assert all(b <= a for a, b in zip(history, history[1:])), "history not monotone"
        ok, _ = check_feasible(inst, x)
        if ok and gap_percent(obj, opt) <= 1.0:
            within += 1
    check(8, within >= 0.7 * total, f"gap<=1% on {within}/{total}")


def test_criterion_9_determinism():
    specs = [
        InstanceSpec.named("S1", SeedPolicy(7, stream_id=0)),
        InstanceSpec.named("S2", SeedPolicy(7, stream_id=1)),
    ]
    methods = [
        MethodSpec("exact"),
        MethodSpec("gw"),
        MethodSpec("gw-multi", {"trials": 5}),
        MethodSpec("egw", {"epsilon": 0.8}),
        MethodSpec("fgw", {"alpha": 0.5}),
        MethodSpec("ga", {"population": 30, "generations": 30}),
    ]
    a = emit_report(run_suite(specs, methods, measure_time=False), "csv")
    b = emit_report(run_suite(specs, methods, measure_time=False), "csv")
    c = emit_report(run_suite(specs, methods, measure_time=False, workers=4), "csv")
    check(9, a == b == c, f"{len(a)} bytes, identical across runs and 1 vs 4 workers")


def test_criterion_10_gaussian_w2_properties():
    rng = np.random.default_rng(0)

    def random_gaussian(dim):
        m = rng.random((dim, dim)) - 0.5
        return GaussianMeasure(rng.random(dim), m @ m.T + 0.1 * np.eye(dim))

    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 5))
        a, b, c = (random_gaussian(dim) for _ in range(3))

        worst = max(worst, -w2_gaussian(a, b))  # nonnegativity
        worst = max(worst, abs(w2_gaussian(a, a)))  # zero self-distance
        worst = max(worst, abs(w2_gaussian(a, b) - w2_gaussian(b, a)))  # symmetry

        # triangle inequality for the square root
        dab = np.sqrt(max(w2_gaussian(a, b), 0.0))
        dbc = np.sqrt(max(w2_gaussian(b, c), 0.0))
        dac = np.sqrt(max(w2_gaussian(a, c), 0.0))
        worst = max(worst, dac - (dab + dbc))

        # shifting both means by the same vector changes nothing
        shift = rng.random(dim)
        a2 = GaussianMeasure(a.mean + shift, a.covariance)
        b2 = GaussianMeasure(b.mean + shift, b.covariance)
        worst = max(worst, abs(w2_gaussian(a2, b2) - w2_gaussian(a, b)))

        # mean-shift additivity against the equal-covariance case
        same_cov = GaussianMeasure(b.mean, a.covariance)
        expect = float(np.sum((a.mean - b.mean) ** 2))
        worst = max(worst, abs(w2_gaussian(a, same_cov) - expect))

        # diagonal (commuting) case reduces to the Frobenius norm
        da = np.diag(rng.random(dim) + 0.1)
        db = np.diag(rng.random(dim) + 0.1)
        ga = GaussianMeasure(np.zeros(dim), da)
        gb = GaussianMeasure(np.zeros(dim), db)
        frob = float(((np.sqrt(np.diag(da)) - np.sqrt(np.diag(db))) ** 2).sum())
        worst = max(worst, abs(w2_gaussian(ga, gb) - frob))
    check(10, worst <= 1e-9, f"worst property violation {worst:.2e}")
