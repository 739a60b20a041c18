"""Per-op correctness gate.

Objective, feasibility and gap are recomputed here from the instance data
with plain numpy and compared with what gwqap reported. The binary
assignments, GA histories and oracle proofs that ``solve_with_method`` and
``run_suite`` do not return are taken from a ``Capture`` of three calls.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gwqap.core import Coupling, Histogram, marginal_violation

from .trace import Patcher

MARGINAL_TOL = 1e-9  # gwqap.core.MARGINAL_TOL, the post-solve contract
REL_TOL = 1e-9


class Record(NamedTuple):
    kind: str  # the captured function's name
    inst: object  # its CqapInstance argument
    args: tuple  # the remaining positional arguments
    out: object  # what it returned


class Capture:
    """Keeps the return values of ``round_coupling``, ``solve_exact_enum``
    and ``solve_ga`` as called from ``gwqap.bench``; thread-safe."""

    KINDS = ("round_coupling", "solve_exact_enum", "solve_ga")

    def __init__(self):
        self._lock = threading.Lock()
        self._records: list[Record] = []
        self._patcher = Patcher()

    def install(self, bench_module):
        for kind in self.KINDS:
            self._patcher.replace(
                bench_module, kind, lambda fn, k=kind: self._recording(k, fn))

    def _recording(self, kind, fn):
        @functools.wraps(fn)
        def recorded(inst, *args, **kwargs):
            out = fn(inst, *args, **kwargs)
            with self._lock:
                self._records.append(Record(kind, inst, args, out))
            return out

        return recorded

    def take(self):
        """Return and forget everything recorded since the last take."""
        with self._lock:
            records, self._records = self._records, []
        return records

    def close(self):
        self._patcher.close()


@dataclass
class MethodResult:
    """One method's output on one instance, as reported plus as captured."""

    method: str
    status: str
    relaxed: float | None = None
    binary: float | None = None
    feasible: bool | None = None
    gap: float | None = None
    plan: np.ndarray | None = None
    x: np.ndarray | None = None
    history: np.ndarray | None = None
    proven: bool | None = None


def objective(inst, x) -> float:
    """sum F[i,k] D[j,l] x[i,j] x[k,l] + sum C[i,j] x[i,j]."""
    x = np.asarray(x, dtype=np.float64)
    F, D = inst.flow.entries, inst.distance.entries
    quad = np.einsum("ik,ij,kl,jl->", F, x, x, D, optimize=True)
    return float(quad + np.einsum("ij,ij->", inst.linear_cost, x))


def feasible(inst, x) -> bool:
    x = np.asarray(x)
    load = (x * inst.demand[None, :]).sum(axis=1)
    cover = (x * inst.capacity[:, None]).sum(axis=0)
    return bool(np.all(load <= inst.capacity) and np.all(cover >= inst.demand))


def marginal_error(inst, plan) -> float:
    u = inst.capacity.astype(np.float64)
    d = inst.demand.astype(np.float64)
    coupling = Coupling(np.asarray(plan), Histogram(u / u.sum()), Histogram(d / d.sum()))
    return max(marginal_violation(coupling))


def _close(a, b) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check(inst, r: MethodResult, optimum: float | None = None) -> list[str]:
    """Problems with one ok result; an empty list means it passed."""
    problems = []
    if r.plan is not None:
        err = marginal_error(inst, r.plan)
        if not err <= MARGINAL_TOL:
            problems.append(f"{r.method}: coupling marginals off by {err:.3e}")
        if r.relaxed is not None:
            scaled = float(inst.capacity.sum()) * np.asarray(r.plan)
            if not _close(objective(inst, scaled), r.relaxed):
                problems.append(f"{r.method}: relaxed objective {r.relaxed} does not recompute")
    if r.x is None:
        return problems + [f"{r.method}: no binary assignment captured"]
    if not np.isin(r.x, (0, 1)).all():
        problems.append(f"{r.method}: assignment is not binary")
        return problems
    ok = feasible(inst, r.x)
    if ok != bool(r.feasible):
        problems.append(f"{r.method}: reported feasible={r.feasible}, recomputed {ok}")
    value = objective(inst, r.x)
    if r.binary is None or not _close(value, r.binary):
        problems.append(f"{r.method}: reported objective {r.binary}, recomputed {value}")
    if r.proven is not None:
        if not r.proven:
            problems.append(f"{r.method}: oracle result not proven")
        if not ok:
            problems.append(f"{r.method}: oracle optimum is infeasible")
    if r.history is not None and np.any(np.diff(r.history) > 0):
        problems.append(f"{r.method}: GA best-fitness history increases")
    if optimum is not None and ok:
        if value < optimum - REL_TOL * max(1.0, abs(optimum)):
            problems.append(f"{r.method}: objective {value} beats proven optimum {optimum}")
        expect = (value - optimum) / optimum * 100.0
        if r.gap is None or abs(r.gap - expect) > 1e-6 * max(1.0, abs(expect)):
            problems.append(f"{r.method}: reported gap {r.gap}, recomputed {expect}")
    return problems
