"""Call-boundary tracing and result capture for the benchmark.

Both work by replacing module-level references that gwqap code resolves at
call time (for example ``gwqap.gw.solve_exact_ot``, which ``_fw_solve``
looks up on every iteration), so the package itself is never edited. Every
replacement is undone when the owning object is closed.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field


class Patcher:
    """Replaces module attributes and restores the originals on close."""

    def __init__(self):
        self._saved = []

    def replace(self, module, attr, make):
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))

    def close(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _lp_vars(args, kwargs, out):
    n, m = getattr(args[0], "shape", (0, 0))
    return {"lp_vars": int(n) * int(m)}


def _sinkhorn_attrs(args, kwargs, out):
    return {"iterations": int(out[2]), "converged": bool(out[3])}


def _solution_attrs(args, kwargs, out):
    return {"iterations": int(out.iterations), "converged": bool(out.converged)}


def _multi_attrs(args, kwargs, out):
    config = args[1] if len(args) > 1 else kwargs["config"]
    return {"trial_of_origin": int(out.trial_of_origin), "trials": int(config.trials)}


def _enum_attrs(args, kwargs, out):
    return {"proven": bool(out[2])}


# (module, attribute, span name, attribute extractor). Span names are
# "<layer>.<function>"; the layer is the gwqap module that defines it.
TRACE_POINTS = (
    ("gw", "solve_exact_ot", "linear_ot.solve_exact_ot", _lp_vars),
    ("gw", "sinkhorn", "linear_ot.sinkhorn", _sinkhorn_attrs),
    ("gw", "sinkhorn_project", "linear_ot.sinkhorn_project", None),
    ("gw", "solve_gw", "gw.solve_gw", _solution_attrs),
    ("bench", "solve_gw", "gw.solve_gw", _solution_attrs),
    ("bench", "solve_fgw", "gw.solve_fgw", _solution_attrs),
    ("bench", "solve_gw_multi_init", "gw.solve_gw_multi_init", _multi_attrs),
    ("bench", "solve_entropic_gw", "gw.solve_entropic_gw", _solution_attrs),
    ("bench", "round_coupling", "cqap.round_coupling", None),
    ("bench", "solve_exact_enum", "cqap.solve_exact_enum", _enum_attrs),
    ("bench", "solve_ga", "ga.solve_ga", None),
    ("ga", "decode", "ga.decode", None),
    ("bench", "generate_instance", "bench.generate_instance", None),
    ("bench", "solve_with_method", "bench.solve_with_method", None),
    ("bench", "run_suite", "bench.run_suite", None),
)

OP_SPAN = "perfbench.op"


class Tracer:
    """Records one span per traced call; spans stay in memory until dumped.

    A span's parent is the innermost open span on its own thread. Worker
    threads started inside a traced call (``run_suite`` with workers > 1)
    have no open span of their own, so their top-level spans take the
    innermost span open on the client thread, which is blocked in that call.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = -1
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack = self._stack()
        self._patcher = Patcher()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._client_thread and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def wrap(self, name, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span_id, name, start, parent, stack, type(exc).__name__, {})
                raise
            extra = attrs(args, kwargs, out) if attrs is not None else {}
            self._close(span_id, name, start, parent, stack, None, extra)
            return out

        return traced

    def _close(self, span_id, name, start, parent, stack, error, extra):
        end = time.perf_counter()
        stack.pop()
        self.spans.append(
            Span(span_id, name, start, end, parent, self.op,
                 threading.get_ident(), error, extra)
        )

    def run_op(self, op_id, fn):
        """Run one benchmark op under a root span carrying its op id."""
        self.op = op_id
        return self.wrap(OP_SPAN, fn)()

    def install(self, modules):
        for mod_name, attr, span_name, attrs in TRACE_POINTS:
            self._patcher.replace(
                modules[mod_name], attr,
                lambda fn, n=span_name, a=attrs: self.wrap(n, fn, a),
            )

    def close(self):
        self._patcher.close()

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s.id] = s.duration - covered
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) computed from the spans."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}
    self_s = _self_times(spans)

    def named(name):
        return by_name.get(name, [])

    def busy(name):
        return sum(s.duration for s in named(name))

    def ok(name):
        return [s for s in named(name) if s.error is None]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p is not None else None

    exact_ot = named("linear_ot.solve_exact_ot")
    sinkhorn = ok("linear_ot.sinkhorn")
    fw = named("gw.solve_gw") + named("gw.solve_fgw")
    multi = ok("gw.solve_gw_multi_init")
    trials = sum(s.attrs["trials"] for s in multi)
    trial_fails = sum(
        1 for s in named("linear_ot.sinkhorn_project") + named("gw.solve_gw")
        if s.error is not None and parent_name(s) == "gw.solve_gw_multi_init"
    )
    entropic = named("gw.solve_entropic_gw")
    enum = named("cqap.solve_exact_enum")
    enum_ok = ok("cqap.solve_exact_enum")
    ga_busy = busy("ga.solve_ga")
    decode_busy = busy("ga.decode")
    gen = named("bench.generate_instance")
    suites = named("bench.run_suite")
    cells = [s for s in named("bench.solve_with_method")
             if parent_name(s) == "bench.run_suite"]

    return {
        "linear_ot.solve_exact_ot.calls": (len(exact_ot), "count"),
        "linear_ot.solve_exact_ot.busy_s": (busy("linear_ot.solve_exact_ot"), "s"),
        "linear_ot.solve_exact_ot.call_ms_p50": (
            1e3 * statistics.median(s.duration for s in exact_ot) if exact_ot else 0.0,
            "ms",
        ),
        "linear_ot.solve_exact_ot.lp_vars_mean": (
            _ratio(sum(s.attrs.get("lp_vars", 0) for s in exact_ot), len(exact_ot)),
            "count",
        ),
        "linear_ot.sinkhorn.calls": (len(named("linear_ot.sinkhorn")), "count"),
        "linear_ot.sinkhorn.busy_s": (busy("linear_ot.sinkhorn"), "s"),
        "linear_ot.sinkhorn.iterations": (
            sum(s.attrs["iterations"] for s in sinkhorn), "count"),
        "linear_ot.sinkhorn.converged_rate": (
            _ratio(sum(s.attrs["converged"] for s in sinkhorn),
                   len(named("linear_ot.sinkhorn"))),
            "ratio",
        ),
        "linear_ot.sinkhorn_project.calls": (
            len(named("linear_ot.sinkhorn_project")), "count"),
        "linear_ot.sinkhorn_project.busy_s": (busy("linear_ot.sinkhorn_project"), "s"),
        "linear_ot.sinkhorn_project.fail_count": (
            sum(1 for s in named("linear_ot.sinkhorn_project") if s.error), "count"),
        "gw.fw.self_s": (sum(self_s[s.id] for s in fw), "s"),
        "gw.fw.iterations": (
            sum(s.attrs.get("iterations", 0) for s in fw), "count"),
        "gw.multi.trial_fail_rate": (_ratio(trial_fails, trials), "ratio"),
        "gw.multi.random_win_rate": (
            _ratio(sum(1 for s in multi if s.attrs["trial_of_origin"] > 0), len(multi)),
            "ratio",
        ),
        "gw.entropic.outer_iterations": (
            sum(s.attrs.get("iterations", 0) for s in entropic), "count"),
        "gw.entropic.self_s": (sum(self_s[s.id] for s in entropic), "s"),
        "cqap.round_coupling.busy_s": (busy("cqap.round_coupling"), "s"),
        "cqap.solve_exact_enum.calls": (len(enum), "count"),
        "cqap.solve_exact_enum.busy_s": (busy("cqap.solve_exact_enum"), "s"),
        "cqap.solve_exact_enum.proven_rate": (
            _ratio(sum(s.attrs["proven"] for s in enum_ok), len(enum_ok)), "ratio"),
        "ga.solve_ga.busy_s": (ga_busy, "s"),
        "ga.decode.calls": (len(named("ga.decode")), "count"),
        "ga.decode.busy_s": (decode_busy, "s"),
        "ga.self_s": (sum(self_s[s.id] for s in named("ga.solve_ga")), "s"),
        "bench.generate_instance.busy_s": (busy("bench.generate_instance"), "s"),
        "bench.generate_instance.oracle_s": (
            sum(s.duration for s in enum if parent_name(s) == "bench.generate_instance"),
            "s",
        ),
        "bench.generate_instance.fail_count": (
            sum(1 for s in gen if s.error == "GenerationFailed"), "count"),
        "bench.run_suite.parallelism": (
            _ratio(sum(s.duration for s in cells), busy("bench.run_suite")), "ratio"),
    }
