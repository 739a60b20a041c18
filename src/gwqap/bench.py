"""Instance generation, experiment orchestration and report emission.

Named instance specs pin (agents, tasks) for the small/medium/large test
series; everything else about an instance is drawn from its seed. The suite
runner times every (instance, method) cell, evaluates both objective
conventions (relaxed coupling value and binary rounded value) and computes
gaps against the exact oracle whenever it proves optimality.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .core import Coupling, SeedPolicy, SymCostMatrix, check_count
from .cqap import (
    CqapInstance,
    coupling_objective,
    cqap_objective,
    check_feasible,
    gap_percent,
    round_coupling,
    solve_exact_enum,
    to_fgw_problem,
    to_gw_problem,
)
from .errors import (
    GenerationFailed,
    Infeasible,
    NonEmptyRequired,
    UnknownFormat,
    ValidationError,
)
from .ga import GaConfig, solve_ga
from .gw import (
    MultiInitConfig, solve_entropic_gw, solve_fgw, solve_gw, solve_gw_multi_init
)

INSTANCE_SCHEMA = "cqap/1"
REPORT_SCHEMA = "cqap-report/1"

# named test sizes: id -> (agents, tasks)
NAMED_SPECS = {
    "S1": (3, 3),
    "S2": (4, 4),
    "S3": (5, 6),
    "S4": (6, 5),
    "M1": (10, 10),
    "M2": (12, 14),
    "M3": (15, 12),
    "M4": (20, 20),
    "L1": (30, 30),
    "L2": (40, 50),
    "L3": (50, 40),
    "L4": (60, 60),
    "L5": (100, 100),
}

_CAP_LOW, _CAP_HIGH = 1, 6  # inclusive integer range for capacities/demands
_GENERATION_ATTEMPTS = 100  # demand draws before generation fails
_FEASIBILITY_PRECHECK_CELLS = 20  # packing pre-check limit (n*m)
# the suite runs the oracle when its search tree has at most this many leaves
_ORACLE_LEAVES = 1_000_000


@dataclass(frozen=True)
class InstanceSpec:
    test_id: str
    n_agents: int
    n_tasks: int
    seed: SeedPolicy

    def __post_init__(self):
        check_count("n_agents", self.n_agents, 1)
        check_count("n_tasks", self.n_tasks, 1)
        if self.test_id in NAMED_SPECS:
            expect = NAMED_SPECS[self.test_id]
            if (self.n_agents, self.n_tasks) != expect:
                raise ValidationError(
                    f"{self.test_id} is pinned to {expect}, "
                    f"got ({self.n_agents}, {self.n_tasks})"
                )

    @classmethod
    def named(cls, test_id: str, seed: SeedPolicy) -> "InstanceSpec":
        if test_id not in NAMED_SPECS:
            raise ValidationError(f"unknown named spec {test_id!r}")
        n, m = NAMED_SPECS[test_id]
        return cls(test_id, n, m, seed)


class Method(NamedTuple):
    label: str  # report label, a format string over the parameters
    defaults: dict  # every parameter the method takes -> its default
    config: type | None = None  # built from the values to check them


def _config_params(config: type) -> dict:
    return {f.name: f.default for f in fields(config) if f.name != "seed"}


# every method, in seed-stream order: a new method goes at the end
METHODS = {
    "exact": Method("Exact", {}),
    "gw": Method("GW_Default", {}),
    "gw-multi": Method("GW_MultiInit", _config_params(MultiInitConfig), MultiInitConfig),
    "egw": Method("EGW({epsilon})", {"epsilon": 0.8}),
    "fgw": Method("FGW({alpha})", {"alpha": 0.5}),
    "ga": Method("GA", _config_params(GaConfig), GaConfig),
}


def _finite_number(value) -> bool:
    """Whether value is a finite real number; a bool is not a number."""
    return (
        isinstance(value, numbers.Real) and not isinstance(value, bool)
        and (isinstance(value, numbers.Integral) or math.isfinite(value))
    )


@dataclass(frozen=True)
class MethodSpec:
    """A solver selection plus its parameters, as used by the suite runner."""

    name: str  # a key of METHODS
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in METHODS:
            raise ValidationError(f"unknown method {self.name!r}")
        # a copy: the caller's dict may change after validation
        object.__setattr__(self, "params", dict(self.params))
        method = METHODS[self.name]
        unknown = sorted(set(self.params) - set(method.defaults))
        if unknown:
            raise ValidationError(f"method {self.name!r} takes no parameter {unknown}")
        bad = {k: v for k, v in self.params.items() if not _finite_number(v)}
        if bad:
            raise ValidationError(
                f"method {self.name!r} parameters must be finite numbers: {bad}"
            )
        p = self.settings
        if method.config:
            method.config(**p)
        if not p.get("epsilon", 1.0) > 0:
            raise ValidationError("epsilon must be positive")
        if not 0.0 <= p.get("alpha", 0.0) <= 1.0:
            raise ValidationError("alpha must lie in [0, 1]")

    @property
    def settings(self) -> dict:
        """Every parameter of the method: the given ones over the defaults."""
        return {**METHODS[self.name].defaults, **self.params}

    def label(self) -> str:
        return METHODS[self.name].label.format(**self.settings)


@dataclass
class SolveReport:
    instance_id: str
    method: str
    params: dict
    objective_relaxed: float | None
    objective_binary: float | None
    feasible: bool | None
    gap_pct: float | None
    runtime_s: float
    iterations: int
    seed: int
    status: str = "ok"

    @classmethod
    def of(
        cls, instance_id, method: MethodSpec, res: MethodResult, gap_pct, runtime_s, seed
    ):
        """The report row of one method's result on one instance."""
        return cls(
            instance_id, method.label(), dict(method.params), res.relaxed,
            res.binary, res.feasible, gap_pct, runtime_s, res.iterations, seed,
            res.status,
        )


CSV_COLUMNS = [f.name for f in fields(SolveReport)]

# the JSON value types each report field accepts, matched exactly, so a
# bool is not an int
_OPTIONAL_NUMBER = (int, float, type(None))
_REPORT_VALUE_TYPES = {
    "instance_id": (str,),
    "method": (str,),
    "params": (dict,),
    "objective_relaxed": _OPTIONAL_NUMBER,
    "objective_binary": _OPTIONAL_NUMBER,
    "feasible": (bool, type(None)),
    "gap_pct": _OPTIONAL_NUMBER,
    "runtime_s": (int, float),
    "iterations": (int,),
    "seed": (int,),
    "status": (str,),
}


def _distances(a, b):
    """Euclidean distances between the rows of a and the rows of b."""
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt((diff**2).sum(axis=-1))


def generate_instance(spec: InstanceSpec) -> CqapInstance:
    """Draw a random CQAP instance fully determined by the spec seed.

    Positions are Uniform([0,10]^2); capacities and demands are uniform
    integers in {1..6}. Demands are redrawn (same stream, at most
    _GENERATION_ATTEMPTS draws) until the instance passes a feasibility
    check. Up to _FEASIBILITY_PRECHECK_CELLS cells a first-feasible search
    proves a feasible assignment exists, the decision the exact oracle's
    Infeasible makes; above that only sum u >= sum d is checked, so a
    larger instance may admit no feasible assignment.
    """
    rng = spec.seed.generator()
    n, m = spec.n_agents, spec.n_tasks
    agent_pos = rng.uniform(0.0, 10.0, size=(n, 2))
    task_pos = rng.uniform(0.0, 10.0, size=(m, 2))
    capacity = rng.integers(_CAP_LOW, _CAP_HIGH + 1, size=n)

    F = SymCostMatrix(_distances(agent_pos, agent_pos))
    D = SymCostMatrix(_distances(task_pos, task_pos))
    C = _distances(agent_pos, task_pos)

    for _ in range(_GENERATION_ATTEMPTS):
        demand = rng.integers(_CAP_LOW, _CAP_HIGH + 1, size=m)
        inst = CqapInstance(
            agent_pos=agent_pos,
            task_pos=task_pos,
            capacity=capacity,
            demand=demand,
            flow=F,
            distance=D,
            linear_cost=C,
        )
        if _instance_feasible(inst):
            return inst
    raise GenerationFailed(
        f"no feasible demand vector found in {_GENERATION_ATTEMPTS} attempts"
    )


def _instance_feasible(inst: CqapInstance) -> bool:
    if inst.capacity.sum() < inst.demand.sum():
        return False
    if inst.n * inst.m <= _FEASIBILITY_PRECHECK_CELLS:
        return _packs(inst.capacity.tolist(), sorted(inst.demand.tolist(), reverse=True))
    return True


def _packs(residual: list, demand: list, k: int = 0) -> bool:
    """Whether tasks k.. of ``demand`` each fit on one agent without
    overfilling any: a depth-first search that stops at the first feasible
    assignment, the decision the exact oracle's Infeasible makes. Agents
    with equal residuals are interchangeable, so each task tries only the
    first agent of each residual that holds it; ``residual`` is restored on
    return. The caller sorts the demands in decreasing order, so the
    hardest tasks are placed first."""
    if k == len(demand):
        return True
    d, tried = demand[k], set()
    for i, r in enumerate(residual):
        if r >= d and r not in tried:
            tried.add(r)
            residual[i] = r - d
            fits = _packs(residual, demand, k + 1)
            residual[i] = r
            if fits:
                return True
    return False


def instance_to_json(inst: CqapInstance, test_id: str = "custom", seed: int = 0) -> str:
    doc = {
        "schema": INSTANCE_SCHEMA,
        "test_id": test_id,
        "agent_pos": inst.agent_pos.tolist(),
        "task_pos": inst.task_pos.tolist(),
        "capacity": inst.capacity.tolist(),
        "demand": inst.demand.tolist(),
        "flow": inst.flow.entries.tolist(),
        "distance": inst.distance.entries.tolist(),
        "linear_cost": inst.linear_cost.tolist(),
        "seed": seed,
    }
    return json.dumps(doc, indent=2)


def _holds_bool(value) -> bool:
    """Whether a parsed JSON value is, or nests in its lists, a boolean; each
    list's element types are gathered in one C-level pass."""
    if type(value) is not list:
        return type(value) is bool
    types = set(map(type, value))
    return bool in types or (list in types and any(map(_holds_bool, value)))


def instance_from_json(text: str) -> tuple[CqapInstance, str, int]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance document is not JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != INSTANCE_SCHEMA:
        raise ValidationError(f"unsupported instance schema {schema!r}")
    test_id = doc.get("test_id", "custom")
    if type(test_id) is not str:
        raise ValidationError(f"test_id must be a string, got {test_id!r}")
    for name, value in doc.items():
        # numpy reads a list that mixes true with numbers as numbers
        if _holds_bool(value):
            raise ValidationError(f"{name} holds a boolean, not a number")
    try:
        seed = doc.get("seed", 0)
        check_count("seed", seed, 0)
        inst = CqapInstance(
            agent_pos=doc["agent_pos"],
            task_pos=doc["task_pos"],
            capacity=doc["capacity"],
            demand=doc["demand"],
            flow=SymCostMatrix(doc["flow"]),
            distance=SymCostMatrix(doc["distance"]),
            linear_cost=doc["linear_cost"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed instance document: {exc!r}") from exc
    return inst, test_id, seed


class MethodResult(NamedTuple):
    """One method's outcome; ``coupling`` is set by the (F/E)GW methods."""

    relaxed: float | None
    binary: float | None
    feasible: bool | None
    iterations: int
    status: str
    coupling: Coupling | None = None


def _oracle_fits(inst: CqapInstance) -> bool:
    """Whether the oracle's one-agent-per-task search tree, with
    prod_j #{i : u_i >= d_j} leaves, is small enough for the suite."""
    holders = (inst.capacity[:, None] >= inst.demand[None, :]).sum(axis=0)
    return math.prod(holders.tolist()) <= _ORACLE_LEAVES


def solve_with_method(
    inst: CqapInstance, method: MethodSpec, seed: SeedPolicy
) -> MethodResult:
    """Run one method on one instance."""
    name = method.name
    p = method.settings
    if name == "exact":
        if not _oracle_fits(inst):
            return MethodResult(None, None, None, 0, "SkippedTooLarge")
        _, obj, proven = solve_exact_enum(inst)
        return MethodResult(obj, obj, True, 0, "ok" if proven else "NotProven")

    if name == "ga":
        x, obj, history = solve_ga(inst, GaConfig(**p, seed=seed))
        ok, _ = check_feasible(inst, x)
        return MethodResult(obj, obj, ok, len(history) - 1, "ok")

    if name == "fgw":
        sol = solve_fgw(to_fgw_problem(inst, p["alpha"]))
    elif name == "gw":
        sol = solve_gw(to_gw_problem(inst))
    elif name == "gw-multi":
        sol = solve_gw_multi_init(to_gw_problem(inst), MultiInitConfig(**p, seed=seed))
    else:
        sol = solve_entropic_gw(to_gw_problem(inst), epsilon=p["epsilon"])

    relaxed = coupling_objective(inst, sol.coupling)
    rounded = round_coupling(inst, sol.coupling)
    ok, _ = check_feasible(inst, rounded)
    binary = cqap_objective(inst, rounded)
    status = "ok" if sol.converged else "NoConvergence"
    return MethodResult(relaxed, binary, ok, sol.iterations, status, sol.coupling)


def run_suite(
    specs: list[InstanceSpec],
    methods: list[MethodSpec],
    workers: int = 1,
    measure_time: bool = True,
) -> list[SolveReport]:
    """Solve every (instance, method) cell and collect reports.

    Cells run one after another on the calling thread, in (instance,
    method) order; each draws from its own seed substream, so the reports
    depend only on the seeds. Per-cell failures become status entries,
    never aborts. Each cell's runtime is one wall-clock measurement.
    ``workers`` must be 1; it stays only for callers that still pass it.
    """
    if workers != 1:
        raise ValidationError(f"the suite runs on one thread, got workers={workers!r}")
    if not specs or not methods:
        raise NonEmptyRequired("specs and methods must both be non-empty")
    instances = [(spec, generate_instance(spec)) for spec in specs]
    return _solve_cells(instances, methods, measure_time)


def _solve_cells(instances, methods, measure_time):
    def run(spec, inst, method):
        t0 = time.perf_counter()
        try:
            res = solve_with_method(
                inst, method, spec.seed.substream(_method_stream(method))
            )
            elapsed = time.perf_counter() - t0 if measure_time else 0.0
        except Exception as exc:  # noqa: BLE001 - cell failures are recorded
            kind = "Infeasible" if isinstance(exc, Infeasible) else "error"
            res, elapsed = MethodResult(None, None, None, 0, f"{kind}: {exc}"), 0.0
        return res, elapsed

    reports = []
    for spec, inst in instances:
        # one oracle run per instance: it is the Exact cell and, when it
        # proves a positive optimum, the reference of every gap
        exact = run(spec, inst, MethodSpec("exact"))
        optimum = exact[0].binary if exact[0].status == "ok" else 0.0
        for method in methods:
            res, elapsed = exact if method.name == "exact" else run(spec, inst, method)
            gap = None
            if optimum > 0 and res.binary is not None and res.feasible:
                gap = gap_percent(res.binary, optimum)
            reports.append(SolveReport.of(
                spec.test_id, method, res, gap, elapsed, spec.seed.master_seed
            ))
    return reports


def _method_stream(method: MethodSpec) -> int:
    # fixed per-method stream offsets keep cells order-independent
    return 1000 * (list(METHODS).index(method.name) + 1)


def sweep(
    spec: InstanceSpec, inst: CqapInstance, method: str, values: list
) -> list[SolveReport]:
    """One timed ``method`` cell on ``inst`` per grid value of the method's
    one parameter (EGW's epsilon, FGW's alpha); ``spec`` names the rows and
    seeds the cells, and ``MethodSpec`` checks the values."""
    params = MethodSpec(method).settings
    if len(params) != 1:
        raise ValidationError(f"method {method!r} does not take exactly one parameter")
    (key,) = params
    if not values:
        raise NonEmptyRequired(f"{key} grid must be non-empty")
    if len(set(values)) != len(values):
        raise ValidationError(f"duplicate {key} values in grid")
    methods = [MethodSpec(method, {key: v}) for v in values]
    return _solve_cells([(spec, inst)], methods, True)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_report(reports: list[SolveReport], format: str = "csv") -> bytes:
    """Serialize reports as csv, json or markdown."""
    if not reports:
        raise NonEmptyRequired("no reports to emit")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in reports:
            writer.writerow(
                json.dumps(r.params, sort_keys=True) if col == "params"
                else _fmt(getattr(r, col))
                for col in CSV_COLUMNS
            )
        return buf.getvalue().encode()
    if format == "json":
        doc = {
            "schema": REPORT_SCHEMA,
            "reports": [vars(r) for r in reports],
        }
        return json.dumps(doc, indent=2).encode()
    if format == "markdown":
        return _emit_markdown(reports).encode()
    raise UnknownFormat(f"unknown report format {format!r}")


def parse_reports(data: bytes) -> list[SolveReport]:
    try:
        doc = json.loads(data.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"report document is not JSON: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != REPORT_SCHEMA:
        raise ValidationError(f"unsupported report schema {schema!r}")
    try:
        reports = [SolveReport(**r) for r in doc["reports"]]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed report document: {exc!r}") from exc
    for report in reports:
        for name, types in _REPORT_VALUE_TYPES.items():
            value = getattr(report, name)
            if type(value) not in types:
                raise ValidationError(f"report field {name} has the wrong type: {value!r}")
            if float in types and value is not None and not _finite_number(value):
                raise ValidationError(f"report field {name} is not finite: {value!r}")
        bad = {k: v for k, v in report.params.items() if not _finite_number(v)}
        if bad:
            raise ValidationError(f"report params must be finite numbers: {bad}")
    return reports


def _emit_markdown(reports: list[SolveReport]) -> str:
    lines = [
        "| Instance | Method | Objective (relaxed) | Objective (binary) | Gap (%) | Runtime (s) | Status |",
        "|---|---|---|---|---|---|---|",
    ]
    # bold the best binary objective per instance
    best: dict[str, float] = {}
    for r in reports:
        if r.objective_binary is not None and r.feasible:
            cur = best.get(r.instance_id)
            if cur is None or r.objective_binary < cur:
                best[r.instance_id] = r.objective_binary
    for r in reports:
        obj_b = _fmt(r.objective_binary)
        if (
            r.objective_binary is not None
            and r.feasible
            and r.objective_binary == best.get(r.instance_id)
        ):
            obj_b = f"**{obj_b}**"
        lines.append(
            f"| {r.instance_id} | {r.method} | {_fmt(r.objective_relaxed)} "
            f"| {obj_b} | {_fmt(r.gap_pct)} | {_fmt(r.runtime_s)} | {r.status} |"
        )
    return "\n".join(lines) + "\n"
