import csv
import inspect
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from gwqap.bench import CSV_COLUMNS, instance_to_json
from gwqap.cli import main
from gwqap.cqap import ORACLE_NODE_CAP, solve_exact_enum
from tests.test_cqap import make_instance


def test_gen_solve_oracle_round_trip(tmp_path):
    runner = CliRunner()
    inst_path = tmp_path / "inst.json"
    result = runner.invoke(
        main, ["gen", "--spec", "S1", "--seed", "11", "--out", str(inst_path)]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads(inst_path.read_text())
    assert doc["schema"] == "cqap/1"
    assert len(doc["capacity"]) == 3

    report_path = tmp_path / "report.json"
    result = runner.invoke(
        main,
        [
            "solve", "--inst", str(inst_path), "--method", "gw-multi",
            "--trials", "5", "--seed", "11", "--out", str(report_path),
        ],
    )
    assert result.exit_code == 0, result.output
    report = json.loads(report_path.read_text())
    assert report["reports"][0]["method"] == "GW_MultiInit"

    result = runner.invoke(main, ["oracle", "--inst", str(inst_path)])
    assert result.exit_code == 0, result.output
    assert "proven=True" in result.output


def test_gen_custom_requires_sizes(tmp_path):
    runner = CliRunner()
    result = runner.invoke(
        main, ["gen", "--spec", "custom", "--seed", "1", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 2


def test_oracle_infeasible_exit_code(tmp_path):
    inst = make_instance([1], [3])
    path = tmp_path / "bad.json"
    path.write_text(instance_to_json(inst))
    runner = CliRunner()
    result = runner.invoke(main, ["oracle", "--inst", str(path)])
    assert result.exit_code == 4


def test_oracle_capped_before_any_assignment_exit_code(tmp_path):
    # S2 seed 3 is feasible: a node cap that stops the search before its
    # first assignment is a non-convergence, not an infeasible instance
    runner = CliRunner()
    path = tmp_path / "s2.json"
    result = runner.invoke(
        main, ["gen", "--spec", "S2", "--seed", "3", "--out", str(path)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["oracle", "--inst", str(path), "--node-cap", "3"])
    assert result.exit_code == 3, result.output
    assert "error:" in result.output
    assert isinstance(result.exception, SystemExit)
    result = runner.invoke(main, ["oracle", "--inst", str(path)])
    assert result.exit_code == 0, result.output
    assert "proven=True" in result.output


def test_bench_csv(tmp_path):
    runner = CliRunner()
    out = tmp_path / "results.csv"
    result = runner.invoke(
        main,
        [
            "bench", "--specs", "S1", "--methods", "exact,gw", "--seed", "5",
            "--format", "csv", "--no-timing", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("instance_id,method,")
    assert len(lines) == 3


def test_sweep_alpha(tmp_path):
    runner = CliRunner()
    inst_path = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec", "S1", "--seed", "3", "--out", str(inst_path)])
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main,
        [
            "sweep", "--kind", "alpha", "--inst", str(inst_path),
            "--grid", "0.0,0.5", "--out", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3


def test_sweep_validation_exit_code(tmp_path):
    runner = CliRunner()
    inst_path = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec", "S1", "--seed", "3", "--out", str(inst_path)])
    result = runner.invoke(
        main,
        [
            "sweep", "--kind", "alpha", "--inst", str(inst_path),
            "--grid", "1.5", "--out", str(tmp_path / "s.csv"),
        ],
    )
    assert result.exit_code == 2


def _hand_made_3x3():
    return make_instance(
        [2, 2, 2], [1, 1, 1],
        flow=[[0, 1, 4], [1, 0, 2], [4, 2, 0]],
        distance=[[0, 3, 1], [3, 0, 2], [1, 2, 0]],
        linear=[[1, 5, 2], [4, 1, 3], [2, 3, 1]],
    )


def _wrong_schema_file(tmp_path):
    doc = json.loads(instance_to_json(_hand_made_3x3()))
    doc["schema"] = "cqap/0"
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    return path


def test_solve_wrong_schema_exit_code(tmp_path):
    path = _wrong_schema_file(tmp_path)
    result = CliRunner().invoke(
        main, ["solve", "--inst", str(path), "--method", "gw", "--out", str(tmp_path / "r.json")]
    )
    assert result.exit_code == 2, result.output
    assert "schema" in result.output


def test_oracle_wrong_schema_exit_code(tmp_path):
    path = _wrong_schema_file(tmp_path)
    result = CliRunner().invoke(main, ["oracle", "--inst", str(path)])
    assert result.exit_code == 2, result.output


def test_sweep_wrong_schema_exit_code(tmp_path):
    path = _wrong_schema_file(tmp_path)
    result = CliRunner().invoke(
        main,
        ["sweep", "--kind", "alpha", "--inst", str(path), "--grid", "0.5",
         "--out", str(tmp_path / "s.csv")],
    )
    assert result.exit_code == 2, result.output


def test_solve_malformed_file_exit_code(tmp_path):
    doc = json.loads(instance_to_json(_hand_made_3x3()))
    no_flow = {k: v for k, v in doc.items() if k != "flow"}
    texts = [json.dumps(no_flow), "[]", "{"]
    nan_pos = [[float("nan")] * 2] * 3
    for field, value in [("seed", "x"), ("seed", 1.7), ("capacity", [2.5, 3.9, 1.2]),
                         ("capacity", [0, 2, 2]),
                         ("test_id", [1, 2]), ("agent_pos", [[1, 2, 3]]),
                         ("task_pos", nan_pos)]:
        texts.append(json.dumps({**doc, field: value}))
    for text in texts:
        path = tmp_path / "malformed.json"
        path.write_text(text)
        result = CliRunner().invoke(
            main,
            ["solve", "--inst", str(path), "--method", "gw", "--out", str(tmp_path / "r.json")],
        )
        assert result.exit_code == 2, (text, result.output)


@pytest.mark.parametrize(
    "name, i, j, value", [("flow", 0, 1, float("nan")), ("linear_cost", 0, 0, float("inf"))]
)
@pytest.mark.parametrize("command", ["oracle", "solve"])
def test_non_finite_instance_exit_code(tmp_path, name, i, j, value, command):
    # the oracle printed objective=nan proven=True and solve raised LinAlgError
    doc = json.loads(instance_to_json(_hand_made_3x3()))
    doc[name][i][j] = doc[name][j][i] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))  # json writes and reads NaN and Infinity
    args = [command, "--inst", str(path)]
    if command == "solve":
        args += ["--method", "gw", "--out", str(tmp_path / "r.json")]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "non-finite" in result.output


def test_gen_generation_failed_exit_code(tmp_path):
    # the generator refuses L2 on seed 0
    result = CliRunner().invoke(
        main, ["gen", "--spec", "L2", "--seed", "0", "--out", str(tmp_path / "x.json")]
    )
    assert result.exit_code == 4, result.output


def test_bench_generation_failed_exit_code(tmp_path):
    result = CliRunner().invoke(
        main,
        ["bench", "--specs", "L2", "--methods", "gw", "--seed", "0",
         "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 4, result.output


def test_bench_unknown_spec_exit_code(tmp_path):
    result = CliRunner().invoke(
        main,
        ["bench", "--specs", "S9", "--methods", "gw", "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2, result.output


def test_sweep_runs_on_the_files_instance(tmp_path):
    runner = CliRunner()
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    out = tmp_path / "sweep.csv"
    result = runner.invoke(
        main,
        ["sweep", "--kind", "alpha", "--inst", str(path), "--grid", "0.0", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    row = out.read_text().strip().split("\n")[1].split(",")
    report = tmp_path / "r.json"
    result = runner.invoke(
        main,
        ["solve", "--inst", str(path), "--method", "fgw", "--alpha", "0.0", "--out", str(report)],
    )
    assert result.exit_code == 0, result.output
    solved = json.loads(report.read_text())["reports"][0]
    assert float(row[4]) == solved["objective_binary"]


def test_sweep_zero_optimum_records_every_row(tmp_path):
    # the oracle proves objective 0, so no row has a gap, but each is recorded
    path = tmp_path / "zero.json"
    zero = make_instance(
        [2, 2], [1, 1], distance=[[0, 1], [1, 0]], linear=[[0, 1], [1, 0]]
    )
    path.write_text(instance_to_json(zero))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(
        main,
        ["sweep", "--kind", "alpha", "--inst", str(path), "--grid", "0.5",
         "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    (row,) = csv.DictReader(io.StringIO(out.read_text()))
    assert row["status"] == "ok" and row["objective_binary"] == "0"
    assert row["gap_pct"] == ""


def test_bench_has_no_workers_option(tmp_path):
    runner = CliRunner()
    assert "--workers" not in runner.invoke(main, ["bench", "--help"]).output
    result = runner.invoke(
        main,
        ["bench", "--specs", "S1", "--methods", "gw", "--workers", "2",
         "--out", str(tmp_path / "r.csv")],
    )
    assert result.exit_code == 2, result.output
    assert "--workers" in result.output


def test_sweep_on_generated_file_matches_library(tmp_path):
    from gwqap import InstanceSpec, SeedPolicy, emit_report, generate_instance, sweep

    runner = CliRunner()
    inst_path = tmp_path / "inst.json"
    runner.invoke(main, ["gen", "--spec", "S2", "--seed", "5", "--out", str(inst_path)])
    spec = InstanceSpec.named("S2", SeedPolicy(5))

    def rows(text):
        rows = list(csv.reader(io.StringIO(text)))
        for row in rows:
            del row[CSV_COLUMNS.index("runtime_s")]
        return rows

    for kind, method, grid in (("alpha", "fgw", [0.0, 0.5]), ("epsilon", "egw", [0.8, 3.0])):
        out = tmp_path / f"{kind}.csv"
        result = runner.invoke(
            main,
            ["sweep", "--kind", kind, "--inst", str(inst_path),
             "--grid", ",".join(map(str, grid)), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        expected = emit_report(sweep(spec, generate_instance(spec), method, grid), "csv")
        assert rows(out.read_text()) == rows(expected.decode())


def test_solve_bad_param_value_exit_code(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    for flags in (
        ["--method", "ga", "--ga-pop", "1"], ["--method", "egw", "--epsilon", "0"],
        ["--method", "egw", "--epsilon", "inf"],
    ):
        result = CliRunner().invoke(
            main, ["solve", "--inst", str(path), *flags, "--out", str(tmp_path / "r.json")]
        )
        assert result.exit_code == 2, (flags, result.output)


def test_solve_negative_ga_generations_exit_code(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    result = CliRunner().invoke(
        main,
        ["solve", "--inst", str(path), "--method", "ga", "--ga-gens", "-1",
         "--out", str(tmp_path / "r.json")],
    )
    assert result.exit_code == 2, result.output
    assert "generations must be >= 0" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["gen", "solve", "bench"])
def test_negative_seed_exit_code(tmp_path, command):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    args = {
        "gen": ["gen", "--spec", "S1"],
        "solve": ["solve", "--inst", str(path), "--method", "gw"],
        "bench": ["bench", "--specs", "S1", "--methods", "exact"],
    }[command]
    result = CliRunner().invoke(
        main, [*args, "--seed", "-1", "--out", str(tmp_path / "out")]
    )
    assert result.exit_code == 2, result.output
    assert "master_seed must be >= 0" in result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "out").exists()


def test_sweep_non_numeric_grid_exit_code(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    result = CliRunner().invoke(
        main,
        ["sweep", "--kind", "alpha", "--inst", str(path), "--grid", "0.5,a",
         "--out", str(tmp_path / "s.csv")],
    )
    assert result.exit_code == 2, result.output
    assert "--grid value 'a' is not a number" in result.output
    assert "Traceback" not in result.output


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_oracle_node_cap_below_one_exit_code(tmp_path, cap):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    result = CliRunner().invoke(main, ["oracle", "--inst", str(path), "--node-cap", cap])
    assert result.exit_code == 2, result.output
    assert "node_cap must be >= 1" in result.output


def test_oracle_default_node_cap_is_the_library_default():
    (param,) = [p for p in main.commands["oracle"].params if p.name == "node_cap"]
    assert param.default == ORACLE_NODE_CAP
    assert inspect.signature(solve_exact_enum).parameters["node_cap"].default == ORACLE_NODE_CAP


def test_internal_value_error_is_not_a_validation_exit(tmp_path, monkeypatch):
    import gwqap.cli as cli

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(cli, "solve_with_method", broken)
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    result = CliRunner().invoke(
        main, ["solve", "--inst", str(path), "--method", "gw", "--out", str(tmp_path / "r.json")]
    )
    assert result.exit_code != 2
    assert isinstance(result.exception, ValueError)


def test_solve_report_times_the_solve(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    report = tmp_path / "r.json"
    result = CliRunner().invoke(
        main, ["solve", "--inst", str(path), "--method", "gw", "--out", str(report)]
    )
    assert result.exit_code == 0, result.output
    assert json.loads(report.read_text())["reports"][0]["runtime_s"] > 0


def test_solve_no_convergence_exit_code(tmp_path, monkeypatch):
    import gwqap.gw as gw

    # one Frank-Wolfe step does not meet the stopping test on this instance
    monkeypatch.setattr(gw, "FW_MAX_ITER", 1)
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    report = tmp_path / "r.json"
    result = CliRunner().invoke(
        main, ["solve", "--inst", str(path), "--method", "gw", "--out", str(report)]
    )
    assert result.exit_code == 3, result.output
    assert "status=NoConvergence" in result.output
    assert json.loads(report.read_text())["reports"][0]["status"] == "NoConvergence"


def test_sweep_rejects_seed(tmp_path):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    result = CliRunner().invoke(
        main,
        ["sweep", "--kind", "alpha", "--inst", str(path), "--grid", "0.0",
         "--seed", "1", "--out", str(tmp_path / "s.csv")],
    )
    assert result.exit_code == 2
    assert "--seed" in result.output


# each way a file is tampered with: the field, its new value from the old,
# and a word of the error it must give
_TAMPERINGS = {
    "asymmetric": ("flow", lambda f: [[*f[0][:2], f[0][2] + 1.0], *f[1:]], "symmetric"),
    "negative": ("distance", lambda d: (np.asarray(d) - 3.0).tolist(), "negative"),
    "string-capacity": ("capacity", lambda u: ["1", "2", "3"], "numbers"),
    "bool-capacity": ("capacity", lambda u: [True, True, True], "boolean"),
    "bool-flow": ("flow", lambda f: [[f[0][0], True, f[0][2]], [True, *f[1][1:]], f[2]], "boolean"),
}


def _tampered_file(tmp_path, kind):
    """The hand-made instance with one field changed as ``_TAMPERINGS`` says."""
    doc = json.loads(instance_to_json(_hand_made_3x3()))
    field, change, _ = _TAMPERINGS[kind]
    doc[field] = change(doc[field])
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("kind", list(_TAMPERINGS))
@pytest.mark.parametrize("command", ["solve", "oracle", "sweep"])
def test_invalid_structure_file_exit_code(tmp_path, kind, command):
    path = str(_tampered_file(tmp_path, kind))
    out = str(tmp_path / "out")
    args = {
        "solve": ["solve", "--inst", path, "--method", "gw", "--out", out],
        "oracle": ["oracle", "--inst", path],
        "sweep": ["sweep", "--kind", "alpha", "--inst", path, "--grid", "0.5", "--out", out],
    }[command]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 2, result.output
    assert _TAMPERINGS[kind][2] in result.output


def test_oracle_runs_above_25_agents(tmp_path):
    runner = CliRunner()
    path = tmp_path / "wide.json"
    result = runner.invoke(
        main, ["gen", "--agents", "26", "--tasks", "3", "--seed", "0", "--out", str(path)]
    )
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["oracle", "--inst", str(path)])
    assert result.exit_code == 0, result.output
    assert "proven=True" in result.output
    result = runner.invoke(main, ["oracle", "--inst", str(path), "--node-cap", "5"])
    assert result.exit_code == 3, result.output
    assert "proven=False" in result.output


def test_solve_method_choices_are_the_catalogue():
    from gwqap.bench import METHODS
    from gwqap.cli import solve

    (option,) = [p for p in solve.params if p.name == "method"]
    assert list(option.type.choices) == list(METHODS)


@pytest.mark.parametrize(
    "method, params",
    [
        ("exact", {}),
        ("gw", {}),
        ("gw-multi", {"trials": 20}),
        ("egw", {"epsilon": 0.8}),
        ("fgw", {"alpha": 0.5}),
        ("ga", {"population": 100, "generations": 200}),
    ],
)
def test_solve_writes_the_catalogue_defaults(tmp_path, method, params):
    path = tmp_path / "hand.json"
    path.write_text(instance_to_json(_hand_made_3x3()))
    report = tmp_path / "r.json"
    result = CliRunner().invoke(
        main, ["solve", "--inst", str(path), "--method", method, "--out", str(report)]
    )
    assert result.exit_code == 0, result.output
    written = json.loads(report.read_text())["reports"][0]["params"]
    assert list(written.items()) == list(params.items())
