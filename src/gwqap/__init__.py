"""Optimal-transport solvers with a capacitated QAP benchmark harness."""

from .core import (
    Coupling,
    GaussianMeasure,
    gaussian_measure,
    Histogram,
    MmSpace,
    SeedPolicy,
    SymCostMatrix,
    marginal_violation,
    normalize_masses,
    product_coupling,
    validate_histogram,
    validate_sym_cost,
)
from .linear_ot import (
    Assignment,
    sinkhorn,
    sinkhorn_project,
    solve_exact_ot,
    solve_lap,
    w2_gaussian,
)
from .gw import (
    FgwProblem,
    GwProblem,
    GwSolution,
    MultiInitConfig,
    gw_gradient,
    gw_loss,
    solve_entropic_gw,
    solve_fgw,
    solve_gw,
    solve_gw_multi_init,
)
from .cqap import (
    AssignmentMatrix,
    CqapInstance,
    check_feasible,
    coupling_objective,
    cqap_objective,
    gap_percent,
    round_coupling,
    solve_exact_enum,
    to_fgw_problem,
    to_gw_problem,
)
from .ga import GaConfig, decode, solve_ga
from .bench import (
    InstanceSpec,
    MethodSpec,
    SolveReport,
    emit_report,
    generate_instance,
    instance_from_json,
    instance_to_json,
    parse_reports,
    run_suite,
    sweep,
)

__version__ = "0.1.0"
