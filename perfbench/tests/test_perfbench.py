"""Self-test of the benchmark: smoke runs print every declared metric, and
the correctness gate rejects corrupted outputs."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from gwqap.bench import InstanceSpec, MethodSpec, generate_instance, solve_with_method  # noqa: E402
from gwqap.core import SeedPolicy  # noqa: E402
from gwqap.cqap import round_coupling, solve_exact_enum  # noqa: E402

from perfbench import calib, gate  # noqa: E402
from perfbench.stats import hd_quantile, tail  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _smoke(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout.strip().splitlines()


# fw-L is defined and kept working although BENCHMARK.json leaves it out
SMOKED = sorted({w["name"] for w in BENCHMARK["workloads"]} | {"fw-L"})


@pytest.mark.parametrize("workload", SMOKED)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_prints_every_metric_with_its_unit(workload, trace, key):
    lines = _smoke(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
        # end-to-end metrics are bounded relative to their median, so never 0
        assert key == "per_layer" or m["value"] > 0, name
        assert any(line.startswith(name + " ") and line.split()[2] == m["unit"]
                   for line in lines[:-1]), f"{name} not in the printed table"


@pytest.fixture(scope="module")
def solved():
    inst = generate_instance(InstanceSpec.named("S2", SeedPolicy(3)))
    relaxed, binary, feasible, _, status, coupling = solve_with_method(
        inst, MethodSpec("gw"), SeedPolicy(3))
    x = round_coupling(inst, coupling).x
    result = gate.MethodResult("gw", status, relaxed, binary, feasible,
                               plan=coupling.plan, x=x)
    return inst, result


def test_gate_passes_solver_output(solved):
    inst, r = solved
    assert gate.check(inst, r) == []


def test_gate_catches_corrupted_coupling(solved):
    inst, r = solved
    plan = r.plan.copy()
    i, j = np.unravel_index(np.argmax(plan), plan.shape)
    plan[i, j] *= 1.0 + 1e-6
    bad = gate.MethodResult(**{**vars(r), "plan": plan})
    assert any("marginals" in p for p in gate.check(inst, bad))


def test_gate_catches_corrupted_assignment(solved):
    inst, r = solved
    x = r.x.copy()
    x[0, 0] = 1 - x[0, 0]
    bad = gate.MethodResult(**{**vars(r), "x": x})
    problems = gate.check(inst, bad)
    assert any("objective" in p for p in problems)


def test_gate_checks_oracle_gap_and_ga_history(solved):
    inst, _ = solved
    x, opt, proven = solve_exact_enum(inst)
    exact = gate.MethodResult("exact", "ok", opt, opt, True, gap=0.0, x=x.x, proven=proven)
    assert gate.check(inst, exact, optimum=opt) == []
    unproven = gate.MethodResult(**{**vars(exact), "proven": False})
    assert any("not proven" in p for p in gate.check(inst, unproven, optimum=opt))
    wrong_gap = gate.MethodResult(**{**vars(exact), "gap": 5.0})
    assert any("gap" in p for p in gate.check(inst, wrong_gap, optimum=opt))
    beaten = gate.check(inst, exact, optimum=opt * 1.5)
    assert any("beats proven optimum" in p for p in beaten)
    ga = gate.MethodResult("ga", "ok", opt, opt, True, gap=0.0, x=x.x,
                           history=np.array([5.0, 4.0, 4.5]))
    assert any("history" in p for p in gate.check(inst, ga, optimum=opt))


def test_tail_keeps_ten_samples_beyond_and_never_drops_below_median():
    xs = [float(i) for i in range(1, 41)]
    value, pct, beyond = tail(xs)
    assert (pct, beyond) == (75.0, 10) and 29.0 < value < 32.0
    value, pct, beyond = tail(xs[:12])
    assert beyond == 5 and value > hd_quantile(xs[:12], 0.5)


def test_hd_quantile_matches_the_median_of_symmetric_samples():
    assert hd_quantile([3.0, 1.0, 2.0], 0.5) == pytest.approx(2.0)
    assert hd_quantile([1.0] * 7, 0.8) == pytest.approx(1.0)


def test_calibration_scales_to_nominal_speed():
    assert calib.factor([calib.NOMINAL_S] * 3) == pytest.approx(1.0)
    # a machine running at half speed doubles the kernel time and halves the factor
    assert calib.factor([2 * calib.NOMINAL_S, 5.0, 2 * calib.NOMINAL_S]) == pytest.approx(0.5)
    out, f = calib.calibrated(lambda: "done", k=1)
    assert out == "done" and np.isfinite(f) and f > 0
