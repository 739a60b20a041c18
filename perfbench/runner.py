"""One benchmark run: set-up, closed-loop measurement, gate, report.

Imported by ``run.py`` only after it has pinned the BLAS thread count and
put this checkout's ``src/`` first on ``sys.path``.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gwqap.bench
import gwqap.ga
import gwqap.gw
from gwqap.errors import GenerationFailed

from . import calib, gate, stats
from . import workloads as wl
from .trace import Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # this process plus two fresh ones


def set_up(w, seed, tracer=None):
    """Instance generation for the quality slots plus one warm-up op."""
    pre = [wl.generate(w, seed, slot) for slot in range(w.min_slots)]
    warm = wl.generate(w, seed, -1)
    if warm is not None:
        op = lambda: wl.run_op(w, seed, -1, warm)  # noqa: E731
        try:
            tracer.run_op(-1, op) if tracer else op()
        except GenerationFailed:
            pass  # run_suite refused the warm-up instance, as generate() can
    return pre


def timed_setup(w, seed, import_s, tracer=None, pre=None) -> float:
    """Calibrated set-up time: import plus set_up(); set_up's slots go to pre."""
    def timed():
        t0 = time.perf_counter()
        out = set_up(w, seed, tracer)
        return out, time.perf_counter() - t0
    (slots, seconds), f = calib.calibrated(timed)
    if pre is not None:
        pre.extend(slots)
    return (import_s + seconds) * f


def probe_setup(args) -> float:
    """Calibrated set-up time of a fresh process: import, generation,
    warm-up op."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def measure(w, seed, seconds, pre, capture, tracer=None):
    """Closed loop: run slots until ``seconds`` passed and min_slots are done,
    stopping at a cycle boundary. A calibration kernel runs before the first
    slot and after each one, and each slot's times are scaled by the kernel
    runs around it (calib.interval_factors). Returns (ops, refused slots,
    wall time, calibrated busy time); busy time leaves the kernel runs out."""
    ops, refused, slot_s = [], [], []
    slot = 0
    kernel = [calib.sample()]
    start = time.perf_counter()
    while True:
        if tracer:
            tracer.op = slot
        t_slot = time.perf_counter()
        inst = pre[slot] if slot < len(pre) else wl.generate(w, seed, slot)
        if inst is None:
            refused.append(slot)
        else:
            capture.take()
            fn = lambda: wl.run_op(w, seed, slot, inst)  # noqa: E731
            t0 = time.perf_counter()
            try:
                raw, error = (tracer.run_op(slot, fn) if tracer else fn()), None
            except GenerationFailed:
                # run_suite generates its own instance: a refused slot, as above
                raw, error = None, "refused"
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                raw, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t0
            if error == "refused":
                refused.append(slot)
            else:
                ops.append({"slot": slot, "inst": inst, "raw": raw, "error": error,
                            "wall": wall, "records": capture.take()})
        slot_s.append(time.perf_counter() - t_slot)
        kernel.append(calib.sample())
        slot += 1
        if (slot >= w.min_slots and slot % len(w.cycle) == 0
                and time.perf_counter() - start >= seconds):
            break
    wall = time.perf_counter() - start
    f = calib.interval_factors(kernel)
    for op in ops:
        op["latency"] = op["wall"] * f[op["slot"]]
    return ops, refused, wall, sum(t * fi for t, fi in zip(slot_s, f))


def judge(w, ops):
    """Run the gate over every op; fills op["ok"], op["why"], op["results"]."""
    problems = []
    for op in ops:
        op["results"], op["why"] = [], op["error"]
        if op["raw"] is None:
            continue
        inst, res, optimum = wl.results(w, op["inst"], op["raw"], op["records"])
        op["results"] = res
        bad = [r.status for r in res if r.status != "ok"]
        if bad and op["why"] is None:
            op["why"] = ",".join(bad)
        for r in res:
            if r.status == "ok":
                found = gate.check(inst, r, optimum)
                problems += [f"slot {op['slot']}: {p}" for p in found]
                if found and op["why"] is None:
                    op["why"] = "gate"
    for op in ops:
        op["ok"] = op["why"] is None
    return problems


def e2e_metrics(w, ops, refused, wall, busy, setup_samples):
    """End-to-end metrics, their notes, and the figures printed without a bound.

    Times are calibrated seconds (see calib.py); the notes give wall times."""
    ok = [op for op in ops if op["ok"]]
    lat = [op["latency"] for op in ok]
    wall_lat = [op["wall"] for op in ok]
    slots = len(ops) + len(refused)
    quality = [r for op in ops if op["slot"] < w.min_slots for r in op["results"]
               if r.status == "ok" and r.binary is not None]
    tail_v, tail_p, beyond = stats.tail(lat)
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_s_p50": (stats.hd_quantile(lat, 0.5), "s"),
        "op_s_tail": (tail_v, "s"),
        "ops_per_s": (len(ok) / busy, "1/s"),
        "ok_rate": (len(ok) / slots, "ratio"),
        "objective_binary_mean": (statistics.fmean(r.binary for r in quality), "objective"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": "calibrated; median of "
                   + ", ".join(f"{s:.3f}" for s in setup_samples),
        "op_s_p50": f"calibrated Harrell-Davis, {len(lat)} ok ops; "
                    f"wall {stats.hd_quantile(wall_lat, 0.5):.4f} s",
        "op_s_tail": f"calibrated Harrell-Davis p{tail_p:.1f} of {len(lat)} ops, "
                     f"{beyond} beyond; wall {stats.tail(wall_lat)[0]:.4f} s",
        "ops_per_s": f"{len(ok)} ops in {busy:.2f} calibrated s; "
                     f"{len(ok) / wall:.4f} per wall s over {wall:.2f} s incl. calibration",
        "ok_rate": f"{len(ok)}/{slots} slots; {len(refused)} refused (GenerationFailed)",
        "objective_binary_mean": f"{len(quality)} assignments from slots 0..{w.min_slots - 1}",
    }
    feas = sum(bool(r.feasible) for r in quality)
    gaps = [r.gap for r in quality if r.gap is not None]
    report_only = [
        ("fail_rate", f"{len(ops) - len(ok)}/{len(ops)}", "ops",
         ", ".join(sorted({op["why"] for op in ops if not op["ok"]})) or "none"),
        ("feasible_rate", f"{feas}/{len(quality)}", "assignments",
         f"{feas / len(quality):.4f}" if quality else "n/a"),
        ("gap_pct_mean",
         f"{statistics.fmean(gaps):.4f}" if gaps else "n/a", "%",
         f"over {len(gaps)} results with a proven optimum" if gaps
         else "no proven optimum: the oracle skips S3 and larger"),
    ]
    return metrics, notes, report_only


def latency_by_spec(w, ops):
    by = {tid: [] for tid in w.cycle}
    for op in ops:
        if op["ok"]:
            by[w.cycle[op["slot"] % len(w.cycle)]].append(op["wall"])
    return {tid: v for tid, v in by.items() if v}


def replay(w, seed, ops, capture):
    """Re-run the first half of the ops untraced, calibrated as in measure();
    returns (n, traced s, untraced s) in calibrated seconds."""
    half = [op for op in ops if op["slot"] < max(len(w.cycle), len(ops) // 2)]
    plain, kernel = [], [calib.sample()]
    for op in half:
        t0 = time.perf_counter()
        try:
            wl.run_op(w, seed, op["slot"], op["inst"])
        except Exception:  # noqa: BLE001 - counted in the traced pass already
            pass
        plain.append(time.perf_counter() - t0)
        kernel.append(calib.sample())
        capture.take()
    plain_s = sum(t * f for t, f in zip(plain, calib.interval_factors(kernel)))
    return len(half), sum(op["latency"] for op in half), plain_s


def print_table(metrics, notes, report_only=()):
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<46} {value:>14.6g} {unit}{extra}")
    for name, value, unit, extra in report_only:
        print(f"{name:<46} {value:>14} {unit}  ({extra})")


def run(args, import_s: float, blas_threads: int) -> int:
    if args.workload not in wl.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    w = wl.WORKLOADS[args.workload]
    if args.smoke:
        w = wl.smoke(w)
    capture = gate.Capture()
    capture.install(gwqap.bench)
    tracer = None
    try:
        if args.setup_probe:
            print(timed_setup(w, args.seed, import_s))
            return 0

        print(f"# workload {w.name} seed {args.seed} seconds {args.seconds} "
              f"trace {args.trace}; cycle {'>'.join(w.cycle)}; methods "
              f"{', '.join(m.label() for m in w.methods)}; closed loop, 1 client; "
              f"BLAS threads {blas_threads}, nproc {os.cpu_count()}")
        if args.trace:
            tracer = Tracer()
            tracer.install({"gw": gwqap.gw, "bench": gwqap.bench, "ga": gwqap.ga})
            setup_samples = []
        else:
            setup_samples = [probe_setup(args) for _ in range(SETUP_SAMPLES - 1)]
        pre = []
        setup_samples.append(timed_setup(w, args.seed, import_s, tracer, pre))

        ops, refused, wall, busy = measure(w, args.seed, args.seconds, pre, capture, tracer)
        if tracer:
            tracer.close()
        problems = judge(w, ops)
        for p in problems:
            print(f"GATE FAIL {p}")
        if not any(op["ok"] for op in ops):
            print("no op completed; nothing to measure")
            return 1
        metrics, notes, report_only = e2e_metrics(w, ops, refused, wall, busy, setup_samples)
        if tracer:
            print("# end-to-end figures of the traced run (not comparable with --trace 0):")
        print_table(metrics, notes, report_only)
        print("# ok-op wall latency by spec: " + "; ".join(
            f"{tid} p50 {statistics.median(v):.3f} s of {len(v)}"
            for tid, v in latency_by_spec(w, ops).items()))
        if tracer:
            n, traced_s, plain_s = replay(w, args.seed, ops, capture)
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl"
            tracer.dump(span_file)
            metrics = layer_metrics(tracer.spans)
            metrics["trace.ops_per_s_delta"] = (n / plain_s - n / traced_s, "1/s")
            metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
            print_table(metrics, {"trace.overhead_pct":
                f"{n} ops: traced {traced_s:.3f} s, replayed untraced {plain_s:.3f} s (calibrated); "
                f"{len(tracer.spans)} spans in {span_file.relative_to(ROOT)}"})
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": sum(not op["ok"] for op in ops),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0 if not problems else 1
    finally:
        if tracer:
            tracer.close()
        capture.close()
