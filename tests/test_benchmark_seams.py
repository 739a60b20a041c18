"""Every module reference the benchmark wraps is still reached.

perfbench traces and gates gwqap by replacing module attributes that the
library looks up at call time (``perfbench.trace.TRACE_POINTS`` and
``perfbench.gate.Capture.KINDS``). perfbench's own smoke run accepts a
per-layer count of 0, so a refactor that bypasses one of these references,
say Frank-Wolfe calling ``TransportLp`` instead of ``gw.solve_exact_ot``,
would blind the benchmark without failing it. This test runs every method
once and checks that each reference was called.
"""

from collections import Counter

import gwqap.bench as bench
import gwqap.ga as ga
import gwqap.gw as gw
from gwqap import InstanceSpec, MethodSpec, SeedPolicy
from perfbench.gate import Capture
from perfbench.trace import TRACE_POINTS

MODULES = {"gw": gw, "bench": bench, "ga": ga}


def test_every_benchmark_seam_is_reached(monkeypatch):
    seams = {(module, attr) for module, attr, _, _ in TRACE_POINTS}
    seams |= {("bench", kind) for kind in Capture.KINDS}
    calls = Counter()

    def counting(seam, fn):
        def counted(*args, **kwargs):
            calls[seam] += 1
            return fn(*args, **kwargs)

        return counted

    for seam in seams:
        module, attr = seam
        monkeypatch.setattr(
            MODULES[module], attr, counting(seam, getattr(MODULES[module], attr))
        )

    spec = InstanceSpec.named("S1", SeedPolicy(0))
    bench.run_suite(
        [spec],
        [
            MethodSpec("exact"),
            MethodSpec("gw-multi", {"trials": 2}),
            MethodSpec("ga", {"population": 4, "generations": 2}),
        ],
    )
    inst = bench.generate_instance(spec)
    for method in ("gw", "fgw", "egw"):
        bench.solve_with_method(inst, MethodSpec(method), SeedPolicy(0))

    assert len(seams) == 15
    assert sorted(s for s in seams if calls[s] == 0) == []
