import json

import numpy as np
import pytest

from gwqap import (
    InstanceSpec,
    MethodSpec,
    SeedPolicy,
    SolveReport,
    emit_report,
    gap_percent,
    generate_instance,
    instance_from_json,
    instance_to_json,
    parse_reports,
    round_coupling,
    run_suite,
    solve_exact_ot,
    sweep,
    to_gw_problem,
)
from gwqap.bench import NAMED_SPECS, CSV_COLUMNS, solve_with_method
from gwqap.errors import (
    DimensionMismatch,
    NonEmptyRequired,
    NonFinite,
    UnknownFormat,
    ValidationError,
)
from tests.test_gw import digest

DIAMETER = np.sqrt(200.0)  # diagonal of the [0,10]^2 square


class TestGenerateInstance:
    def test_s1_shapes_and_bounds(self):
        inst = generate_instance(InstanceSpec.named("S1", SeedPolicy(0)))
        F = inst.flow.entries
        assert F.shape == (3, 3)
        assert np.array_equal(F, F.T)
        assert np.all(np.diag(F) == 0.0)
        assert F.max() <= DIAMETER
        assert inst.distance.entries.max() <= DIAMETER
        assert set(np.unique(inst.capacity)) <= set(range(1, 7))
        assert set(np.unique(inst.demand)) <= set(range(1, 7))

    def test_same_seed_identical(self):
        a = generate_instance(InstanceSpec.named("S3", SeedPolicy(12)))
        b = generate_instance(InstanceSpec.named("S3", SeedPolicy(12)))
        assert np.array_equal(a.agent_pos, b.agent_pos)
        assert np.array_equal(a.linear_cost, b.linear_cost)
        assert np.array_equal(a.capacity, b.capacity)
        assert np.array_equal(a.demand, b.demand)

    def test_single_point(self):
        inst = generate_instance(InstanceSpec("tiny", 1, 1, SeedPolicy(0)))
        assert np.array_equal(inst.flow.entries, [[0.0]])
        assert np.array_equal(inst.distance.entries, [[0.0]])

    def test_named_spec_size_pinning(self):
        with pytest.raises(ValidationError):
            InstanceSpec("S1", 4, 4, SeedPolicy(0))
        for tid, (n, m) in NAMED_SPECS.items():
            spec = InstanceSpec.named(tid, SeedPolicy(0))
            assert (spec.n_agents, spec.n_tasks) == (n, m)

    def test_generated_masses_feasible(self):
        for seed in range(10):
            inst = generate_instance(InstanceSpec.named("S2", SeedPolicy(seed)))
            assert inst.capacity.sum() >= inst.demand.sum()


class TestInstanceJson:
    def test_round_trip_bit_exact(self):
        inst = generate_instance(InstanceSpec.named("S4", SeedPolicy(77)))
        text = instance_to_json(inst, test_id="S4", seed=77)
        back, test_id, seed = instance_from_json(text)
        assert test_id == "S4" and seed == 77
        for name in ("agent_pos", "task_pos", "capacity", "demand", "linear_cost"):
            a, b = getattr(back, name), getattr(inst, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert np.array_equal(back.flow.entries, inst.flow.entries)
        assert np.array_equal(back.distance.entries, inst.distance.entries)

    def test_schema_checked(self):
        with pytest.raises(ValidationError):
            instance_from_json(json.dumps({"schema": "other/9"}))

    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("seed", "x", "seed"),
            ("seed", 1.7, "seed"),
            ("seed", True, "seed"),
            ("capacity", [2.5, 3.9, 1.2], "capacity"),
            ("capacity", [2, float("nan"), 1], "capacity"),
            ("demand", [1, 1.5, 1], "demand"),
            ("capacity", 3, "capacity"),
        ],
    )
    def test_non_integer_fields_rejected(self, field, value, match):
        inst = generate_instance(InstanceSpec.named("S1", SeedPolicy(0)))
        doc = json.loads(instance_to_json(inst, test_id="S1", seed=0))
        doc[field] = value
        with pytest.raises(ValidationError, match=match):
            instance_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("test_id", [1, 2], ValidationError),
            ("test_id", 7, ValidationError),
            ("test_id", None, ValidationError),
            ("agent_pos", [[1.0, 2.0, 3.0]], DimensionMismatch),
            ("agent_pos", [1.0, 2.0, 3.0], DimensionMismatch),
            ("task_pos", [[1.0, 2.0, 3.0]] * 3, DimensionMismatch),
            ("agent_pos", [[float("nan")] * 2] * 3, NonFinite),
            ("task_pos", [[0.0, float("inf")]] * 3, NonFinite),
        ],
    )
    def test_mistyped_id_and_positions_rejected(self, field, value, error):
        inst = generate_instance(InstanceSpec.named("S1", SeedPolicy(0)))
        doc = json.loads(instance_to_json(inst, test_id="S1", seed=0))
        doc[field] = value
        with pytest.raises(error, match="test_id" if field == "test_id" else "position"):
            instance_from_json(json.dumps(doc))

    def test_whole_float_capacities_load_as_integers(self):
        inst = generate_instance(InstanceSpec.named("S1", SeedPolicy(0)))
        doc = json.loads(instance_to_json(inst, test_id="S1", seed=0))
        doc["capacity"] = [float(u) for u in doc["capacity"]]
        back, _, _ = instance_from_json(json.dumps(doc))
        assert back.capacity.dtype == np.int64
        assert np.array_equal(back.capacity, inst.capacity)


class TestRunSuite:
    def test_s1_exact_and_multi(self):
        specs = [InstanceSpec.named("S1", SeedPolicy(4))]
        methods = [MethodSpec("exact"), MethodSpec("gw-multi", {"trials": 5})]
        reports = run_suite(specs, methods, measure_time=False)
        assert [r.method for r in reports] == ["Exact", "GW_MultiInit"]
        exact, multi = reports
        assert exact.gap_pct == 0.0
        assert multi.gap_pct is not None and multi.gap_pct >= -1e-9
        assert multi.feasible

    def test_empty_methods_rejected(self):
        with pytest.raises(NonEmptyRequired):
            run_suite([InstanceSpec.named("S1", SeedPolicy(0))], [])

    def test_exact_skips_above_leaf_bound(self):
        specs = [InstanceSpec.named("M4", SeedPolicy(0))]
        reports = run_suite(specs, [MethodSpec("exact")], measure_time=False)
        assert reports[0].status == "SkippedTooLarge"
        assert reports[0].gap_pct is None

    def test_failed_cells_become_status_rows(self, monkeypatch):
        import gwqap.bench as bench
        from gwqap.errors import NoConvergence
        from tests.test_cqap import make_instance

        # no agent holds task 1's demand of 5, so the oracle raises Infeasible
        inst = make_instance(
            [2, 2], [1, 5], flow=[[0.0, 1.0], [1.0, 0.0]],
            distance=[[0.0, 2.0], [2.0, 0.0]], linear=[[1.0, 2.0], [3.0, 4.0]],
        )
        spec = InstanceSpec("tiny", 2, 2, SeedPolicy(0))
        rows = sweep(spec, inst, "fgw", [0.0, 0.5])
        assert [(r.status, r.gap_pct) for r in rows] == [("ok", None), ("ok", None)]

        def broken(problem):
            raise NoConvergence("Frank-Wolfe broke")

        monkeypatch.setattr(bench, "solve_gw", broken)
        methods = [MethodSpec("exact"), MethodSpec("gw"), MethodSpec("fgw")]
        exact, gw, fgw = bench._solve_cells([(spec, inst)], methods, 1, True)
        assert exact.status == "Infeasible: no agent can hold the demand of task 1"
        assert gw.status == "error: Frank-Wolfe broke"
        for failed in (exact, gw):
            assert failed.objective_binary is None and failed.runtime_s == 0.0
        assert fgw.status == "ok" and fgw.objective_binary == rows[1].objective_binary

    def test_exact_proves_s3(self):
        specs = [InstanceSpec.named("S3", SeedPolicy(2))]
        exact, gw = run_suite(
            specs, [MethodSpec("exact"), MethodSpec("gw")], measure_time=False
        )
        assert exact.status == "ok" and exact.gap_pct == 0.0
        assert gw.gap_pct is not None and gw.gap_pct >= -1e-9

    def test_gap_recomputable_from_row(self):
        specs = [InstanceSpec.named("S2", SeedPolicy(9))]
        methods = [MethodSpec("exact"), MethodSpec("gw"), MethodSpec("fgw", {"alpha": 0.7})]
        reports = run_suite(specs, methods, measure_time=False)
        exact = next(r for r in reports if r.method == "Exact")
        for r in reports:
            if r.gap_pct is not None:
                assert r.gap_pct == gap_percent(r.objective_binary, exact.objective_binary)

    def test_deterministic_across_runs_and_workers(self):
        specs = [InstanceSpec.named("S1", SeedPolicy(3))]
        methods = [MethodSpec("gw"), MethodSpec("gw-multi", {"trials": 3})]
        a = emit_report(run_suite(specs, methods, measure_time=False), "csv")
        b = emit_report(run_suite(specs, methods, measure_time=False), "csv")
        c = emit_report(
            run_suite(specs, methods, measure_time=False, workers=4), "csv"
        )
        assert a == b == c

    def test_each_cell_runs_once_when_timed(self, monkeypatch):
        import gwqap.bench as bench

        calls = []
        solve = bench.solve_with_method

        def counting(inst, method, seed):
            calls.append(method.name)
            return solve(inst, method, seed)

        monkeypatch.setattr(bench, "solve_with_method", counting)
        specs = [InstanceSpec.named("S1", SeedPolicy(3))]
        reports = run_suite(specs, [MethodSpec("exact"), MethodSpec("gw")])
        assert calls == ["exact", "gw"]
        assert all(r.runtime_s > 0.0 for r in reports)

    def test_oracle_runs_once_per_instance(self, monkeypatch):
        import gwqap.bench as bench

        specs = [InstanceSpec.named(sid, SeedPolicy(7, stream_id=i))
                 for i, sid in enumerate(("S1", "S2"))]
        drawn = {spec: generate_instance(spec) for spec in specs}
        # generation is counted out: the suite gets the instances drawn here
        monkeypatch.setattr(bench, "generate_instance", drawn.__getitem__)
        calls = []
        enum = bench.solve_exact_enum

        def counting(inst, *args, **kwargs):
            calls.append(inst)
            return enum(inst, *args, **kwargs)

        monkeypatch.setattr(bench, "solve_exact_enum", counting)
        methods = [MethodSpec("exact"), MethodSpec("gw"), MethodSpec("fgw")]
        reports = run_suite(specs, methods, measure_time=False)
        assert [id(inst) for inst in calls] == [id(drawn[spec]) for spec in specs]
        assert all(r.gap_pct is not None for r in reports)


# gw-multi (20 trials) on the seed-0 M instances, recorded with the
# three-contraction Frank-Wolfe on one transport model per start: relaxed and
# binary objectives, winning start's iterations, and digests of the exact
# bytes of the coupling and the rounded assignment
GW_MULTI_PINS = {
    "M1": ("0x1.0d60d9caf5294p+15", "0x1.e912c3f19e261p+10", True, 4,
           "609ba3dca447855f", "74d98808a15c55a0"),
    "M2": ("0x1.85e379f6a5b72p+15", "0x1.9feb0d048be12p+11", False, 4,
           "a891a745a1d10183", "f6be035a7c46060d"),
    "M3": ("0x1.90b84c8928200p+15", "0x1.18a82e0ffe541p+11", True, 4,
           "f16b61d00a6a670d", "c4c0861b88dc0c22"),
    "M4": ("0x1.8eebc7611d568p+17", "0x1.2fbcee95b05efp+13", True, 8,
           "e2484f91e73fbcd9", "3f7307793c065890"),
}


@pytest.mark.parametrize("sid", sorted(GW_MULTI_PINS))
def test_gw_multi_pinned_on_m_instances(sid):
    inst = generate_instance(InstanceSpec.named(sid, SeedPolicy(0)))
    relaxed, binary, feasible, iterations, status, coupling = solve_with_method(
        inst, MethodSpec("gw-multi", {"trials": 20}), SeedPolicy(0).substream(500)
    )
    assert status == "ok"
    x = round_coupling(inst, coupling).x
    got = (relaxed.hex(), binary.hex(), feasible, iterations,
           digest(coupling.plan), digest(x))
    assert got == GW_MULTI_PINS[sid]


class TestMethodSpec:
    def test_unknown_param_rejected(self):
        with pytest.raises(ValidationError):
            MethodSpec("gw-multi", {"trails": 1})
        with pytest.raises(ValidationError):
            MethodSpec("egw", {"alpha": 0.5})
        with pytest.raises(ValidationError):
            MethodSpec("gw", {"trials": 3})
        with pytest.raises(ValidationError):
            MethodSpec("ga", {"tournament_size": 2})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            MethodSpec("sa")

    def test_only_trials_reach_gw_multi(self):
        MethodSpec("gw-multi", {"trials": 2})
        with pytest.raises(ValidationError):
            MethodSpec("gw-multi", {"trials": 2, "jitter": 1e-5})

    def test_bad_param_values_rejected(self):
        for name, params in (
            ("gw-multi", {"trials": -1}),
            ("ga", {"population": 1}),
            ("egw", {"epsilon": 0.0}),
        ):
            with pytest.raises(ValidationError):
                MethodSpec(name, params)

    def test_seed_stream_offsets(self):
        from gwqap.bench import _method_stream

        names = ["exact", "gw", "gw-multi", "egw", "fgw", "ga"]
        offsets = [_method_stream(MethodSpec(n)) for n in names]
        assert offsets == [1000, 2000, 3000, 4000, 5000, 6000]

    def test_alpha_outside_unit_interval_rejected(self):
        for alpha in (1.5, -0.1):
            with pytest.raises(ValidationError):
                MethodSpec("fgw", {"alpha": alpha})

    def test_config_fields_accepted(self):
        MethodSpec("ga", {"population": 2, "generations": 0})
        assert MethodSpec("fgw").label() == "FGW(0.5)"
        assert MethodSpec("egw", {"epsilon": 0.05}).label() == "EGW(0.05)"

    def test_params_cannot_change_after_validation(self):
        p = {"trials": 2}
        s = MethodSpec("gw-multi", p)
        p["trials"] = -1
        assert s.params == {"trials": 2}

    def test_settings_merge_params_over_defaults(self):
        from gwqap.bench import METHODS

        assert MethodSpec("gw-multi").settings == {"trials": 20}
        assert METHODS["ga"].defaults == {"population": 100, "generations": 200}
        ga = MethodSpec("ga", {"generations": 3}).settings
        assert list(ga) == list(METHODS["ga"].defaults)
        assert ga["generations"] == 3 and ga["population"] == 100

    def test_fgw_cell_builds_its_problem_once(self, monkeypatch):
        import gwqap.cqap as cqap

        calls = []
        radius = cqap._spectral_radius

        def counting(a):
            calls.append(a.shape)
            return radius(a)

        monkeypatch.setattr(cqap, "_spectral_radius", counting)
        inst = generate_instance(InstanceSpec.named("S2", SeedPolicy(0)))
        solve_with_method(inst, MethodSpec("fgw"), SeedPolicy(0))
        assert len(calls) == 2


class TestSweeps:
    def test_epsilon_sweep_columns(self):
        spec = InstanceSpec.named("S2", SeedPolicy(1))
        reports = sweep(spec, generate_instance(spec), "egw", [0.8, 0.5])
        assert [r.method for r in reports] == ["EGW(0.8)", "EGW(0.5)"]
        assert all(r.runtime_s > 0.0 for r in reports)  # every cell is timed

    def test_epsilon_validation(self):
        spec = InstanceSpec.named("S1", SeedPolicy(0))
        inst = generate_instance(spec)
        with pytest.raises(ValidationError):
            sweep(spec, inst, "egw", [0.5, 0.5])
        with pytest.raises(ValidationError):
            sweep(spec, inst, "egw", [-1.0])
        with pytest.raises(NonEmptyRequired):
            sweep(spec, inst, "egw", [])

    def test_only_one_parameter_methods(self):
        spec = InstanceSpec.named("S1", SeedPolicy(0))
        inst = generate_instance(spec)
        for method in ("exact", "gw", "ga"):
            with pytest.raises(ValidationError, match="exactly one parameter"):
                sweep(spec, inst, method, [1])
        for method in ("sa", "nope"):
            with pytest.raises(ValidationError, match=f"unknown method '{method}'"):
                sweep(spec, inst, method, [1.0])

    def test_alpha_zero_matches_exact_ot(self):
        from gwqap import solve_fgw, to_fgw_problem

        spec = InstanceSpec.named("S1", SeedPolicy(6))
        inst = generate_instance(spec)
        reports = sweep(spec, inst, "fgw", [0.0])
        assert reports[0].method == "FGW(0.0)"
        sol = solve_fgw(to_fgw_problem(inst, 0.0))
        prob = to_gw_problem(inst)
        _, exact = solve_exact_ot(inst.linear_cost, prob.source.mass, prob.target.mass)
        assert sol.objective == pytest.approx(exact, abs=1e-8)

    def test_sweep_on_given_instance(self):
        from tests.test_cli import _hand_made_3x3

        inst = _hand_made_3x3()
        spec = InstanceSpec("custom", 3, 3, SeedPolicy(0))
        given = sweep(spec, inst, "fgw", [0.0])[0]
        drawn = sweep(spec, generate_instance(spec), "fgw", [0.0])[0]
        direct = solve_with_method(inst, MethodSpec("fgw", {"alpha": 0.0}), SeedPolicy(0))
        assert given.objective_binary == direct[1]
        assert given.objective_relaxed == direct[0]
        assert drawn.objective_binary != given.objective_binary

    def test_alpha_validation(self):
        spec = InstanceSpec.named("S1", SeedPolicy(0))
        inst = generate_instance(spec)
        with pytest.raises(ValidationError):
            sweep(spec, inst, "fgw", [1.2])
        with pytest.raises(ValidationError):
            sweep(spec, inst, "fgw", [0.3, 0.3])

    def test_alpha_sweep_emits_four_columns(self):
        spec = InstanceSpec.named("S1", SeedPolicy(2))
        reports = sweep(spec, generate_instance(spec), "fgw", [0.0, 0.3, 0.5, 0.7])
        assert len(reports) == 4


class TestEmitReport:
    def _report(self):
        return SolveReport(
            instance_id="S1",
            method="GW_Default",
            params={},
            objective_relaxed=12.5,
            objective_binary=14.0,
            feasible=True,
            gap_pct=0.0,
            runtime_s=0.001,
            iterations=3,
            seed=42,
            status="ok",
        )

    def test_csv_header_and_row(self):
        data = emit_report([self._report()], "csv").decode()
        lines = data.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2
        assert lines[1].startswith("S1,GW_Default,")

    def test_json_round_trip(self):
        r = self._report()
        back = parse_reports(emit_report([r], "json"))
        assert back == [r]

    def test_markdown_bolds_best(self):
        a = self._report()
        b = self._report()
        b.method = "GA"
        b.objective_binary = 20.0
        md = emit_report([a, b], "markdown").decode()
        assert "**14**" in md
        assert "**20**" not in md

    def test_unknown_format(self):
        with pytest.raises(UnknownFormat):
            emit_report([self._report()], "xml")

    def test_empty_rejected(self):
        with pytest.raises(NonEmptyRequired):
            emit_report([], "csv")
