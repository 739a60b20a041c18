"""Gromov-Wasserstein family: loss, gradient, conditional-gradient solver,
multi-initialization wrapper, entropic and fused variants.

The GW loss of a coupling pi is

    L(pi) = sum_{i,j,k,l} loss(C1[i,j], C2[k,l]) pi[i,k] pi[j,l]

for one of two losses of the f1(a) + f2(b) - h1(a) h2(b) family of Peyre,
Cuturi and Solomon (2016):

- ``"square"``, (a - b)^2: the GW discrepancy. It is zero for isometric
  spaces, which is what GW distances measure.
- ``"product"``, a * b: the Koopmans-Beckmann QAP objective
  sum C1[i,j] C2[k,l] pi[i,k] pi[j,l]. Minimizing it minimizes the flow
  times distance cost. The square loss would maximize that cost instead:
  its objective is a marginal-dependent constant minus twice the same
  double sum.

Frank-Wolfe (``solve_gw``, ``solve_fgw``, ``solve_gw_multi_init``)
minimizes L(pi) plus the problem's concavity term

    concavity * sum_{i,k} pi[i,k] (g[k] - pi[i,k]),

g the target marginal. The term is nonnegative on the polytope and zero on
every plan that sends each target atom to a single source atom
(pi[i,k] in {0, g[k]}). With concavity >= rho(C1) * rho(C2) it makes the
objective concave: every step is a full step to a vertex, Frank-Wolfe
stops at a vertex after a few of them, and each multi-start lands on its
own local minimum. Entropic GW leaves the term out: it smooths the plan
instead, and with the convex product loss its regularized problem has a
single minimizer, which its fixed-point iteration reaches.

Fused GW (``solve_fgw``) weighs that objective by alpha and adds
(1 - alpha) <M, pi>, M a feature cost. Frank-Wolfe always evaluates both
terms; they vanish at concavity 0 and at alpha = 1 (plain GW runs M = 0).

Everything is evaluated through contractions (never the 4-D tensor), so
each loss/gradient costs O(n^2 m + n m^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import (
    MARGINAL_TOL,
    Coupling,
    MmSpace,
    SeedPolicy,
    _as_float_array,
    marginal_violation,
    product_coupling,
)
from .errors import (
    AlphaOutOfRange, DimensionMismatch, GwqapError, InvalidInit, ValidationError
)
from .linear_ot import TransportLp, sinkhorn, sinkhorn_project, solve_exact_ot


LOSSES = ("square", "product")

# Frank-Wolfe stops after FW_MAX_ITER steps, or once a step changes the
# objective by less than FW_TOL relative to max(|objective|, 1)
FW_MAX_ITER = 1000
FW_TOL = 1e-9
# entropic GW: outer steps, Sinkhorn iterations per step, and the inf-norm
# change of the coupling that stops the outer loop
EGW_MAX_OUTER = 200
EGW_MAX_SINKHORN = 1000
EGW_TOL = 1e-7
# multi-init draws each random start as Uniform(0, 1) + INIT_JITTER
INIT_JITTER = 1e-6


@dataclass(frozen=True)
class GwProblem:
    """Two metric-measure spaces, the loss comparing their structures, and
    the weight of the concavity term Frank-Wolfe adds (see module doc)."""

    source: MmSpace
    target: MmSpace
    loss: str = "square"
    concavity: float = 0.0

    def __post_init__(self):
        if self.loss not in LOSSES:
            raise ValidationError(f"loss must be one of {LOSSES}, got {self.loss!r}")
        if not self.concavity >= 0.0:
            raise ValidationError("concavity must be nonnegative")

    @property
    def shape(self):
        return self.source.n, self.target.n

    def default_init(self) -> Coupling:
        return product_coupling(self.source.mass, self.target.mass)

    @cached_property
    def _squared_structures(self) -> tuple[np.ndarray, np.ndarray]:
        """C1**2 and C2**2, which every square-loss cross term uses."""
        return (
            self.source.structure.entries**2,
            self.target.structure.entries**2,
        )


@dataclass(frozen=True)
class FgwProblem:
    """A GW problem plus a finite feature cost M, weighed by 1 - alpha."""

    gw: GwProblem
    feature_cost: np.ndarray
    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise AlphaOutOfRange(f"alpha={self.alpha} outside [0, 1]")
        M = _as_float_array(self.feature_cost, 2, "feature cost")
        object.__setattr__(self, "feature_cost", M)
        if M.shape != self.gw.shape:
            raise DimensionMismatch(
                f"feature cost is {M.shape}, "
                f"problem is {self.gw.shape}"
            )


@dataclass(frozen=True)
class MultiInitConfig:
    trials: int = 20
    seed: SeedPolicy = field(default_factory=lambda: SeedPolicy(0))

    def __post_init__(self):
        if self.trials < 0:
            raise ValidationError("trials >= 0 required")


@dataclass(frozen=True)
class GwSolution:
    coupling: Coupling
    objective: float
    converged: bool
    iterations: int
    trial_of_origin: int = -1
    objective_history: tuple[float, ...] = ()
    # (trial, exception class name) of each multi-init trial that raised
    failed_trials: tuple[tuple[int, str], ...] = ()


def _check_plan(problem: GwProblem, plan) -> np.ndarray:
    p = plan.plan if isinstance(plan, Coupling) else np.asarray(plan, float)
    if p.shape != problem.shape:
        raise DimensionMismatch(
            f"plan is {p.shape}, problem is {problem.shape}"
        )
    return p


def _cross_term(problem: GwProblem, X):
    # E(X)[i,k] = sum_{j,l} loss(C1[i,j], C2[k,l]) X[j,l]
    C1 = problem.source.structure.entries
    C2 = problem.target.structure.entries
    if problem.loss == "product":
        return C1 @ X @ C2.T
    C1_sq, C2_sq = problem._squared_structures
    rX = X.sum(axis=1)
    cX = X.sum(axis=0)
    return C1_sq @ rX[:, None] + (cX @ C2_sq.T)[None, :] - 2.0 * C1 @ X @ C2.T


def gw_loss(problem: GwProblem, plan) -> float:
    """GW loss of a plan, via the contraction decomposition."""
    p = _check_plan(problem, plan)
    return float((_cross_term(problem, p) * p).sum())


def gw_gradient(problem: GwProblem, plan) -> np.ndarray:
    """Euclidean gradient of gw_loss at the plan (symmetric structures)."""
    p = _check_plan(problem, plan)
    return 2.0 * _cross_term(problem, p)


def _check_init(problem: GwProblem, init: Coupling | None) -> Coupling:
    """The problem's default init, or ``init`` once its shape and marginals
    (to MARGINAL_TOL) are checked against the problem."""
    if init is None:
        return problem.default_init()
    if init.shape != problem.shape:
        raise InvalidInit(f"init shape {init.shape} != {problem.shape}")
    row_err, col_err = marginal_violation(
        Coupling(init.plan, problem.source.mass, problem.target.mass)
    )
    if max(row_err, col_err) > MARGINAL_TOL:
        raise InvalidInit(f"init marginals off by ({row_err:.2e}, {col_err:.2e})")
    return init


def _fw_solve(
    problem: GwProblem,
    linear_cost: np.ndarray,
    alpha: float,
    init: Coupling | None,
    model: TransportLp | None = None,
) -> GwSolution:
    """Conditional gradient on alpha*(GW + concavity term) + (1-alpha)*<M, pi>.

    Starts from ``init`` (checked) or the default init. Each iteration
    linearizes at the current plan, finds the optimal polytope vertex by
    exact OT, and takes the closed-form quadratic line-search step clamped
    to [0, 1]. ``model``, a ``TransportLp`` for the problem's marginals, is
    reset and re-used; without one a fresh model is built.

    The objective, its gradient and the line search always evaluate the
    concavity and fused terms: they add exact zeros at concavity 0 and at
    alpha = 1 (``solve_gw`` passes M = 0).

    The cross term E = E(pi) is linear in pi, so one contraction per step,
    E(vertex), gives the gradient 2E, the curvature <E(vertex) - E, delta>
    of the line search and, with E updated along the step, the GW loss
    <E, pi>.
    """
    init = _check_init(problem, init)
    h, g = problem.source.mass, problem.target.mass
    M, mu, G = linear_cost, problem.concavity, g.weights[None, :]

    def objective(p, E):
        gw_part = alpha * float((E * p).sum()) + alpha * mu * float((p * (G - p)).sum())
        return gw_part + (1.0 - alpha) * float((M * p).sum())

    if model is None:
        model = TransportLp(h, g)
    else:
        model.reset()
    pi = init.plan.copy()
    E = _cross_term(problem, pi)
    history = [objective(pi, E)]
    converged = False
    iterations = 0
    for iterations in range(1, FW_MAX_ITER + 1):
        gw_grad = 2.0 * E + mu * (G - 2.0 * pi)
        grad = alpha * gw_grad + (1.0 - alpha) * M
        vertex, _ = solve_exact_ot(grad, h, g, model=model)
        delta = vertex.plan - pi
        dE = _cross_term(problem, vertex.plan) - E
        # 1-D restriction: a t^2 + b t
        a = alpha * float((dE * delta).sum()) - alpha * mu * float((delta * delta).sum())
        b = alpha * float((gw_grad * delta).sum()) + (1.0 - alpha) * float((M * delta).sum())
        t = min(1.0, max(0.0, -b / (2.0 * a))) if a > 0 else float(b <= 0)
        pi = pi + t * delta
        E = E + t * dE
        f_new = objective(pi, E)
        history.append(f_new)
        f_prev = history[-2]
        if abs(f_prev - f_new) / max(abs(f_prev), 1.0) < FW_TOL:
            converged = True
            break
    return GwSolution(
        coupling=Coupling(pi, h, g),
        objective=history[-1],
        converged=converged,
        iterations=iterations,
        objective_history=tuple(history),
    )


def solve_gw(
    problem: GwProblem,
    init: Coupling | None = None,
    *,
    model: TransportLp | None = None,
) -> GwSolution:
    """Conditional-gradient GW solver; returns a stationary point.

    The objective is gw_loss plus the problem's concavity term. The default
    initialization is the product coupling of the marginals. A
    ``TransportLp`` of the problem's marginals passed as ``model`` is reset
    and re-used for the exact-OT steps; the result is the same without it.
    """
    return _fw_solve(problem, np.zeros(problem.shape), 1.0, init, model)


def solve_fgw(problem: FgwProblem, init: Coupling | None = None) -> GwSolution:
    """Fused GW: conditional gradient on the alpha-blended objective."""
    return _fw_solve(problem.gw, problem.feature_cost, problem.alpha, init)


def solve_gw_multi_init(problem: GwProblem, config: MultiInitConfig) -> GwSolution:
    """Multi-start GW: default init plus T projected random couplings.

    Random trial t draws Uniform(0,1) + INIT_JITTER from its own derived
    RNG stream, projects onto the coupling polytope by alternating
    rescaling (to PROJECTION_DELTA), solves, and the lowest-objective
    solution wins. Ties break on the earliest trial (default init first). A trial that
    raises a library error is skipped and listed in ``failed_trials``; any
    other exception propagates. All starts share one transport model.
    """
    n, m = problem.shape
    h, g = problem.source.mass, problem.target.mass

    model = TransportLp(h, g)
    best = solve_gw(problem, None, model=model)
    failed = []
    for t in range(1, config.trials + 1):
        rng = config.seed.substream(t).generator()
        raw = rng.uniform(0.0, 1.0, size=(n, m)) + INIT_JITTER
        try:
            init = sinkhorn_project(raw, h, g)
            sol = solve_gw(problem, init, model=model)
        except GwqapError as exc:
            failed.append((t, type(exc).__name__))
            continue
        if sol.objective < best.objective:
            best = replace(sol, trial_of_origin=t)
    return replace(best, failed_trials=tuple(failed))


def solve_entropic_gw(problem: GwProblem, epsilon: float) -> GwSolution:
    """Entropic GW: alternate GW gradient with a Sinkhorn subproblem.

    Each outer step treats the current gradient as a linear cost and solves
    entropic OT with regularization epsilon; stops when the coupling's
    inf-norm change drops below EGW_TOL. It reports convergence only if it
    stopped so and the Sinkhorn solve of the returned coupling converged.
    Reported objective is the unregularized GW loss of the returned coupling.
    ``sinkhorn`` raises ValidationError unless epsilon > 0.
    """
    h, g = problem.source.mass, problem.target.mass
    coupling = problem.default_init()
    converged = False
    iterations = 0
    for iterations in range(1, EGW_MAX_OUTER + 1):
        grad = gw_gradient(problem, coupling)
        new, _, _, solved = sinkhorn(grad, h, g, epsilon, max_iter=EGW_MAX_SINKHORN)
        change = float(np.abs(new.plan - coupling.plan).max())
        coupling = new
        if change < EGW_TOL:
            # the returned coupling holds the marginals only if its solve did
            converged = solved
            break
    return GwSolution(
        coupling=coupling,
        objective=gw_loss(problem, coupling),
        converged=converged,
        iterations=iterations,
    )
