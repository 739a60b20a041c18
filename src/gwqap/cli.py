"""Command-line interface: instance generation, solving, bench suites, sweeps.

Exit codes: 0 success, 2 validation error (including a malformed instance
file, or one with non-finite or non-integral data), 3 solver non-convergence
(best-effort output still written) or an oracle whose node cap stopped it
before any assignment (NoConvergence), 4 infeasible instance or an instance
the generator could not draw (GenerationFailed).
"""

from __future__ import annotations

import sys
import time

import click

from .bench import (
    METHODS,
    NAMED_SPECS,
    InstanceSpec,
    MethodSpec,
    emit_report,
    generate_instance,
    instance_from_json,
    instance_to_json,
    run_suite,
    solve_with_method,
    SolveReport,
    sweep as sweep_cells,
)
from .core import SeedPolicy
from .cqap import ORACLE_NODE_CAP, solve_exact_enum
from .errors import GenerationFailed, Infeasible, NoConvergence, ValidationError

EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INFEASIBLE = 4


class _Main(click.Group):
    """Maps library errors raised by any command to the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValidationError as exc:
            _fail(EXIT_VALIDATION, exc)
        except NoConvergence as exc:
            _fail(EXIT_NO_CONVERGENCE, exc)
        except (Infeasible, GenerationFailed) as exc:
            _fail(EXIT_INFEASIBLE, exc)


@click.group(cls=_Main)
def main():
    """Assignment problems as optimal transport: solvers and benchmarks."""


def _fail(code, message):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _load_instance(path):
    with open(path) as fh:
        return instance_from_json(fh.read())


@main.command()
@click.option("--spec", "spec_id", default="custom", help="Named spec S1..L5 or 'custom'.")
@click.option("--agents", type=int, default=None)
@click.option("--tasks", type=int, default=None)
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
def gen(spec_id, agents, tasks, seed, out):
    """Generate a random CQAP instance and write it as JSON."""
    policy = SeedPolicy(seed)
    if spec_id in NAMED_SPECS:
        spec = InstanceSpec.named(spec_id, policy)
    else:
        if agents is None or tasks is None:
            raise ValidationError("--agents and --tasks required for custom specs")
        spec = InstanceSpec(spec_id, agents, tasks, policy)
    inst = generate_instance(spec)
    with open(out, "w") as fh:
        fh.write(instance_to_json(inst, test_id=spec.test_id, seed=seed))
    click.echo(f"wrote {spec.test_id} instance ({spec.n_agents}x{spec.n_tasks}) to {out}")


# solve's method flags -> the parameter each sets; its default is the
# parameter's default in METHODS
_FLAGS = {"trials": "trials", "epsilon": "epsilon", "alpha": "alpha",
          "ga_pop": "population", "ga_gens": "generations"}
_DEFAULTS = {p: v for method in METHODS.values() for p, v in method.defaults.items()}


@main.command()
@click.option("--inst", "inst_path", type=click.Path(exists=True), required=True)
@click.option("--method", type=click.Choice(list(METHODS)), required=True)
@click.option("--trials", type=int, default=_DEFAULTS["trials"])
@click.option("--epsilon", type=float, default=_DEFAULTS["epsilon"])
@click.option("--alpha", type=float, default=_DEFAULTS["alpha"])
@click.option("--ga-pop", type=int, default=_DEFAULTS["population"])
@click.option("--ga-gens", type=int, default=_DEFAULTS["generations"])
@click.option("--seed", type=int, default=0)
@click.option("--out", type=click.Path(), required=True)
def solve(inst_path, method, seed, out, **flags):
    """Solve one instance with one method and write a JSON report."""
    inst, test_id, _ = _load_instance(inst_path)
    takes = METHODS[method].defaults
    spec = MethodSpec(method, {p: flags[f] for f, p in _FLAGS.items() if p in takes})
    t0 = time.perf_counter()
    res = solve_with_method(inst, spec, SeedPolicy(seed))
    runtime_s = time.perf_counter() - t0
    report = SolveReport.of(test_id, spec, res, None, runtime_s, seed)
    with open(out, "wb") as fh:
        fh.write(emit_report([report], "json"))
    click.echo(
        f"{spec.label()}: relaxed={res.relaxed} binary={res.binary} status={res.status}"
    )
    if res.status == "NoConvergence":
        sys.exit(EXIT_NO_CONVERGENCE)


@main.command()
@click.option("--specs", required=True, help="Comma-separated named specs, e.g. S1,S2.")
@click.option("--methods", required=True, help="Comma-separated method names.")
@click.option("--seed", type=int, default=0)
@click.option("--format", "fmt", type=click.Choice(["csv", "json", "markdown"]), default="csv")
@click.option("--no-timing", is_flag=True, help="Zero runtimes for byte-reproducible output.")
@click.option("--out", type=click.Path(), required=True)
def bench(specs, methods, seed, fmt, no_timing, out):
    """Run the full suite over named specs and methods."""
    spec_list = [
        InstanceSpec.named(s.strip(), SeedPolicy(seed, stream_id=i))
        for i, s in enumerate(specs.split(","))
    ]
    method_list = [MethodSpec(m.strip()) for m in methods.split(",")]
    reports = run_suite(spec_list, method_list, measure_time=not no_timing)
    with open(out, "wb") as fh:
        fh.write(emit_report(reports, fmt))
    click.echo(f"wrote {len(reports)} reports to {out}")


# sweep's --kind -> the one-parameter method it sweeps
_SWEEP_METHODS = {"epsilon": "egw", "alpha": "fgw"}


@main.command()
@click.option("--kind", type=click.Choice(list(_SWEEP_METHODS)), required=True)
@click.option("--inst", "inst_path", type=click.Path(exists=True), required=True)
@click.option("--grid", required=True, help="Comma-separated values, e.g. 0.3,0.5,0.8.")
@click.option("--out", type=click.Path(), required=True)
def sweep(kind, inst_path, grid, out):
    """Parameter sweep (EGW epsilon or FGW alpha) on the file's instance.

    ``bench.sweep`` runs and times one cell per value. EGW and FGW draw no
    random numbers; the rows carry the file's seed.
    """
    inst, test_id, inst_seed = _load_instance(inst_path)
    values = [_grid_value(v) for v in grid.split(",")]
    spec = InstanceSpec(test_id, inst.n, inst.m, SeedPolicy(inst_seed))
    reports = sweep_cells(spec, inst, _SWEEP_METHODS[kind], values)
    with open(out, "wb") as fh:
        fh.write(emit_report(reports, "csv"))
    click.echo(f"wrote {len(reports)} sweep rows to {out}")


def _grid_value(text):
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"--grid value {text!r} is not a number") from None


@main.command()
@click.option("--inst", "inst_path", type=click.Path(exists=True), required=True)
@click.option(
    "--node-cap", type=int, default=ORACLE_NODE_CAP,
    help="Nodes searched before giving up (default 10^8). The search costs "
    "about 10-16 us a node in Python, so on an M-size instance it does not "
    "prove the default runs some 17-27 minutes before it reports "
    "proven=False.",
)
def oracle(inst_path, node_cap):
    """Exact branch-and-bound oracle for one instance, any size; exits 3
    when --node-cap nodes did not prove the optimum, with no output if they
    found no assignment."""
    inst, _, _ = _load_instance(inst_path)
    x, obj, proven = solve_exact_enum(inst, node_cap=node_cap)
    click.echo(f"objective={obj!r} proven={proven}")
    for row in x.x:
        click.echo(" ".join(str(int(v)) for v in row))
    if not proven:
        sys.exit(EXIT_NO_CONVERGENCE)


if __name__ == "__main__":
    main()
