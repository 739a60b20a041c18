"""The four benchmark workloads and how one op of each runs.

A run walks a stream of slots. Slot i draws its instance from
``SeedPolicy(seed, 1000 * (i + 1))`` with the spec ``cycle[i % len(cycle)]``;
the warm-up op of set-up uses stream 0, which no slot uses. One op is one
slot's instance run through the workload's methods.
"""

from __future__ import annotations

from dataclasses import dataclass

import gwqap.bench as bench
from gwqap.bench import InstanceSpec, MethodSpec
from gwqap.core import SeedPolicy
from gwqap.errors import GenerationFailed

from .gate import MethodResult

# The default GaConfig (population 100 x 200 generations) takes about 4.5 s
# per S1 cell, which leaves too few ops in a run for a tail percentile; this
# budget keeps GA the largest cell of a suite-S op.
SUITE_GA = {"population": 50, "generations": 50}
# One worker thread. With two, on the two-vCPU reference machine, the GA and
# gw-multi cells contend for the GIL: ops got slower than with one worker and
# their median drifted by 40% within minutes, past any usable bound.
SUITE_WORKERS = 1


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[str, ...]
    methods: tuple[MethodSpec, ...]
    # every run completes at least this many slots, in whole cycles; the
    # result-quality figures are taken over exactly these slots
    min_slots: int
    suite: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "multistart-M",
            ("M1", "M2", "M3", "M4"),
            (MethodSpec("gw-multi", {"trials": 20}),),
            min_slots=48,
        ),
        # Not in BENCHMARK.json: its latency spread between seeds is too wide
        # for 0.25 bounds at the run length the time budget allows (see
        # README.md). L2 (40 x 50) is left out of the cycle: the generator
        # refuses it on about two seeds in three, and the number of L2 ops a
        # seed happens to get moved the median latency by 25% between seeds.
        Workload(
            "fw-L",
            ("L1", "L3", "L4", "L5"),
            (MethodSpec("gw"), MethodSpec("fgw", {"alpha": 0.5})),
            min_slots=24,
        ),
        # Not in BENCHMARK.json: solve_entropic_gw returns couplings that miss
        # the 1e-9 marginal contract on most of these instances, so the gate
        # fails it (see README.md).
        Workload(
            "entropic-sweep",
            ("S3", "S4", "M1", "M2"),
            tuple(MethodSpec("egw", {"epsilon": e}) for e in (0.05, 0.2, 0.8, 3.0)),
            min_slots=20,
        ),
        Workload(
            "suite-S",
            ("S1", "S2"),
            (MethodSpec("exact"), MethodSpec("gw-multi", {"trials": 20}),
             MethodSpec("ga", SUITE_GA)),
            min_slots=60,
            suite=True,
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload on the smallest named spec, for the self-test."""
    methods = tuple(
        MethodSpec("ga", {"population": 10, "generations": 5}) if m.name == "ga" else m
        for m in w.methods
    )
    return Workload(w.name, ("S1",), methods, min_slots=2, suite=w.suite)


def slot_seed(seed: int, slot: int) -> SeedPolicy:
    return SeedPolicy(seed, 1000 * (slot + 1))


def slot_spec(w: Workload, seed: int, slot: int) -> InstanceSpec:
    tid = w.cycle[slot % len(w.cycle)] if slot >= 0 else w.cycle[0]
    return InstanceSpec.named(tid, slot_seed(seed, slot))


def generate(w: Workload, seed: int, slot: int):
    """The slot's instance, or None when the generator refuses the spec.

    A refused slot is never redrawn with another seed; suite-S generates
    inside ``run_suite`` instead, so its slots return the spec.
    """
    spec = slot_spec(w, seed, slot)
    if w.suite:
        return spec
    try:
        return bench.generate_instance(spec)
    except GenerationFailed:
        return None


def run_op(w: Workload, seed: int, slot: int, inst):
    """Run the op and return its raw outputs; the gate reads them later."""
    if w.suite:
        return bench.run_suite(
            [inst], list(w.methods), workers=SUITE_WORKERS, measure_time=False)
    return [
        bench.solve_with_method(inst, m, slot_seed(seed, slot).substream(500))
        for m in w.methods
    ]


def results(w: Workload, inst, raw, records) -> tuple[object, list[MethodResult], float | None]:
    """Pair each method's reported output with its captured assignment.

    Returns (instance, results, proven optimum or None).
    """
    rounds = [rec for rec in records if rec.kind == "round_coupling"]
    if not w.suite:
        out = []
        it = iter(rounds)
        for m, (relaxed, binary, ok, _iters, status, coupling) in zip(w.methods, raw):
            r = MethodResult(m.name, status, relaxed, binary, ok)
            if coupling is not None:
                r.plan = coupling.plan
                rec = next(it, None)
                r.x = rec.out.x if rec is not None else None
            out.append(r)
        return inst, out, None

    # run_suite generated the instance itself; take it from a captured call
    ga = [rec for rec in records if rec.kind == "solve_ga"]
    final = (rounds or ga)[0].inst if (rounds or ga) else None
    # the generator's feasibility check, the suite's oracle and the exact
    # cell all enumerate the final instance; each (x, objective, proven)
    exact = [rec.out for rec in records
             if rec.kind == "solve_exact_enum" and rec.inst is final]
    out = []
    for m, rep in zip(w.methods, raw):
        r = MethodResult(m.name, rep.status, rep.objective_relaxed,
                         rep.objective_binary, rep.feasible, rep.gap_pct)
        if m.name == "exact" and exact:
            r.x = exact[-1][0].x
            r.proven = all(proven for _, _, proven in exact)
        elif m.name == "gw-multi" and rounds:
            r.plan = rounds[0].args[0].plan
            r.x = rounds[0].out.x
        elif m.name == "ga" and ga:
            best_x, _, history = ga[0].out
            r.x, r.history = best_x.x, history
        out.append(r)
    optimum = None
    if exact and all(proven for _, _, proven in exact):
        optimum = exact[-1][1]
    return final, out, optimum
