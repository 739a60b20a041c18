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
    _as_matrix,
    _marginal_errors,
    check_count,
    product_coupling,
)
from .errors import AlphaOutOfRange, GwqapError, InvalidInit, ValidationError
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
        M = _as_matrix(self.feature_cost, self.gw.shape, "feature cost")
        object.__setattr__(self, "feature_cost", M)


@dataclass(frozen=True)
class MultiInitConfig:
    trials: int = 20
    seed: SeedPolicy = field(default_factory=lambda: SeedPolicy(0))

    def __post_init__(self):
        check_count("trials", self.trials, 0)


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
    """The plan, a Coupling or an array, as a finite matrix of the problem's
    shape; a Coupling's plan was checked when the coupling was built."""
    if isinstance(plan, Coupling):
        if plan.shape == problem.shape:
            return plan.plan
        plan = plan.plan
    return _as_matrix(plan, problem.shape, "plan")


def _cross_term(problem: GwProblem, X):
    # E(X)[i,k] = sum_{j,l} loss(C1[i,j], C2[k,l]) X[j,l], for a plan X
    # (n, m) or for each slice of a stack of plans (T, n, m)
    C1 = problem.source.structure.entries
    C2 = problem.target.structure.entries
    if problem.loss == "product":
        return C1 @ X @ C2.T
    C1_sq, C2_sq = problem._squared_structures
    rX = X.sum(axis=-1)
    cX = X.sum(axis=-2)
    return C1_sq @ rX[..., None] + cX[..., None, :] @ C2_sq.T - 2.0 * C1 @ X @ C2.T


def gw_loss(problem: GwProblem, plan) -> float:
    """GW loss of a plan, via the contraction decomposition."""
    p = _check_plan(problem, plan)
    return float((_cross_term(problem, p) * p).sum())


def gw_gradient(problem: GwProblem, plan) -> np.ndarray:
    """Euclidean gradient of gw_loss at the plan (symmetric structures)."""
    p = _check_plan(problem, plan)
    return 2.0 * _cross_term(problem, p)


def _check_init(problem: GwProblem, init: Coupling | None) -> Coupling:
    """The problem's default init, or ``init`` once it is checked to be a
    Coupling of the problem's shape and marginals (to MARGINAL_TOL)."""
    if init is None:
        return problem.default_init()
    if not isinstance(init, Coupling):
        raise InvalidInit(f"init must be a Coupling, got {type(init).__name__}")
    if init.shape != problem.shape:
        raise InvalidInit(f"init shape {init.shape} != {problem.shape}")
    row_err, col_err = _marginal_errors(init.plan, problem.source.mass, problem.target.mass)
    if max(row_err, col_err) > MARGINAL_TOL:
        raise InvalidInit(f"init marginals off by ({row_err:.2e}, {col_err:.2e})")
    return init


def _sums(X):
    """The sum of each slice of the stack X (T, n, m), each in the order of
    one (n, m) matrix's ``sum()``."""
    return X.reshape(len(X), X.shape[1] * X.shape[2]).sum(axis=1)


def _fw_solve(
    problem: GwProblem,
    linear_cost: np.ndarray,
    alpha: float,
    inits: list[Coupling],
    model: TransportLp | None = None,
) -> list[GwSolution | GwqapError]:
    """Conditional gradient on alpha*(GW + concavity term) + (1-alpha)*<M, pi>
    from each of the couplings ``inits`` (each of the problem's shape and
    marginals), all starts in lockstep.

    The starts' plans form a stack (T, n, m). Each round linearizes every
    active start at its plan, finds its optimal polytope vertex by exact OT
    and takes the closed-form quadratic line-search step clamped to [0, 1].
    The vertices of a round come from one ``solve_exact_ot`` call on the
    stack of gradients (T, n*m), one LP per row, solved by the starts of a
    ``branch`` of ``model`` (a ``TransportLp`` for the problem's marginals,
    or a fresh one), each from its own last basis. The
    cross terms, gradients and the sums behind the line searches and
    objectives are array operations over the active starts, every per-start
    sum taken by ``_sums``; each start's step and objective are then
    combined from its sums in Python floats. A start leaves the stack at the
    step that converges it, so each start's solution is bitwise what a stack
    of that start alone gives.

    Returns, per start, its GwSolution or the library error its LP row
    failed with (``NonFinite`` for a non-finite gradient, ``NoConvergence``
    at the pivot cap); a failing start leaves the stack and the others go
    on. An exception the call raises propagates.

    The objective, its gradient and the line search always evaluate the
    concavity and fused terms: they add exact zeros at concavity 0 and at
    alpha = 1 (``solve_gw`` passes M = 0).

    The cross term E = E(pi) is linear in pi, so one contraction per step,
    E(vertex), gives the gradient 2E, the curvature <E(vertex) - E, delta>
    of the line search and, with E updated along the step, the GW loss
    <E, pi>.
    """
    h, g = problem.source.mass, problem.target.mass
    M, mu, G = linear_cost, problem.concavity, g.weights[None, :]

    def objectives(P, E):
        # each start's objective, in Python floats from its three sums
        sums = zip(_sums(E * P).tolist(), _sums(P * (G - P)).tolist(), _sums(M * P).tolist())
        return [alpha * ep + alpha * mu * cp + (1.0 - alpha) * mp for ep, cp, mp in sums]

    def solution(k, converged, iterations):
        return GwSolution(
            # a copy: a view would keep the whole stack alive
            coupling=Coupling(pi[k].copy(), h, g),
            objective=histories[active[k]][-1],
            converged=converged,
            iterations=iterations,
            objective_history=tuple(histories[active[k]]),
        )

    lp = (model or TransportLp(h, g)).branch(len(inits))
    results: list = [None] * len(inits)
    # the stack holds the active starts; active[k] is slice k's start
    active = list(range(len(inits)))
    pi = np.array([init.plan for init in inits]).reshape(len(inits), *problem.shape)
    E = _cross_term(problem, pi)
    histories = [[value] for value in objectives(pi, E)]
    for iteration in range(1, FW_MAX_ITER + 1):
        if not active:
            break
        gw_grad = 2.0 * E + mu * (G - 2.0 * pi)
        grad = alpha * gw_grad + (1.0 - alpha) * M
        vertex, errors = solve_exact_ot(grad.reshape(len(active), -1), h, g, model=lp)
        keep = [k for k, error in enumerate(errors) if error is None]
        if len(keep) < len(active):
            for start, error in zip(active, errors):
                if error is not None:
                    results[start] = error
            active = [active[k] for k in keep]
            lp.keep(keep)
            pi, E, gw_grad, vertex = pi[keep], E[keep], gw_grad[keep], vertex[keep]
        delta = vertex - pi
        dE = _cross_term(problem, vertex) - E
        steps = []
        for ed, dd, gd, md in zip(
            _sums(dE * delta).tolist(), _sums(delta * delta).tolist(),
            _sums(gw_grad * delta).tolist(), _sums(M * delta).tolist(),
        ):
            # the start's 1-D restriction: a t^2 + b t
            a = alpha * ed - alpha * mu * dd
            b = alpha * gd + (1.0 - alpha) * md
            steps.append(min(1.0, max(0.0, -b / (2.0 * a))) if a > 0 else float(b <= 0))
        t = np.array(steps)[:, None, None]
        pi = pi + t * delta
        E = E + t * dE
        keep = []
        for k, f_new in enumerate(objectives(pi, E)):
            history = histories[active[k]]
            f_prev = history[-1]
            history.append(f_new)
            if abs(f_prev - f_new) / max(abs(f_prev), 1.0) < FW_TOL:
                results[active[k]] = solution(k, True, iteration)
            else:
                keep.append(k)
        if len(keep) < len(active):
            active = [active[k] for k in keep]
            lp.keep(keep)
            pi, E = pi[keep], E[keep]
    for k, start in enumerate(active):
        results[start] = solution(k, False, FW_MAX_ITER)
    return results


def solve_gw(
    problem: GwProblem,
    init: Coupling | None = None,
    *,
    model: TransportLp | None = None,
) -> GwSolution:
    """Conditional-gradient GW solver; returns a stationary point.

    The objective is gw_loss plus the problem's concavity term. The default
    initialization is the product coupling of the marginals. A
    ``TransportLp`` of the problem's marginals passed as ``model`` lends its
    north-west-corner basis to the exact-OT steps, which start from that
    basis either way, so the result is bitwise the same with or without it;
    one of other marginals raises ValidationError. It runs ``_fw_solve`` on
    a one-start stack.

    With ``loss="product"`` and concavity 0, no term sends Frank-Wolfe to
    a vertex, and plain Frank-Wolfe converges sublinearly: it can run all
    FW_MAX_ITER steps without meeting FW_TOL, as every start did on random
    7 x 6 spaces. ``to_gw_problem`` sets the concavity, so the CQAP path is
    not affected.
    """
    return _solve_one(problem, np.zeros(problem.shape), 1.0, init, model)


def solve_fgw(problem: FgwProblem, init: Coupling | None = None) -> GwSolution:
    """Fused GW: conditional gradient on the alpha-blended objective."""
    return _solve_one(problem.gw, problem.feature_cost, problem.alpha, init, None)


def _solve_one(problem, linear_cost, alpha, init, model) -> GwSolution:
    """``_fw_solve`` from ``init`` (checked) or the default init alone; its
    solution, or the library error it failed with raised."""
    (sol,) = _fw_solve(problem, linear_cost, alpha, [_check_init(problem, init)], model)
    if isinstance(sol, GwqapError):
        raise sol
    return sol


def solve_gw_multi_init(problem: GwProblem, config: MultiInitConfig) -> GwSolution:
    """Multi-start GW: default init plus T projected random couplings.

    Random trial t draws Uniform(0,1) + INIT_JITTER from its own derived
    RNG stream. All T draws are projected onto the coupling polytope by one
    stacked ``sinkhorn_project`` call (alternating rescaling to
    PROJECTION_DELTA, each start stopping at its own sweep, so each start is
    bitwise what projecting it alone gives); if it raises a library error,
    each start is projected alone. A projected start needs no init check: it
    has the problem's shape and marginals within PROJECTION_DELTA (1e-12),
    well inside the check's MARGINAL_TOL (1e-9). The default init is solved
    by ``solve_gw``, then all projected starts by one lockstep ``_fw_solve``,
    whose LPs of a step are one batched transport simplex over the stack,
    each start from its own basis; both branch one ``TransportLp``. Every
    start's solution is bitwise what ``solve_gw`` gives it alone.

    The lowest-objective solution wins; only an exactly equal objective
    goes to the earlier trial (default init first). Starts that reach the
    same coupling can differ in the last bits of their objective, and then
    the lower value wins, not the earlier start. A trial whose projection
    or Frank-Wolfe run raises a library error is skipped and listed in
    ``failed_trials``; any other exception propagates.
    """
    h, g = problem.source.mass, problem.target.mass
    raw = np.empty((config.trials, *problem.shape))
    for t in range(config.trials):
        raw[t] = config.seed.substream(t + 1).generator().uniform(0.0, 1.0, size=problem.shape)
    inits = _project_starts(raw + INIT_JITTER, h, g)
    model = TransportLp(h, g)
    best = solve_gw(problem, None, model=model)
    starts = [init for init in inits if isinstance(init, Coupling)]
    solved = iter(_fw_solve(problem, np.zeros(problem.shape), 1.0, starts, model))
    failed = []
    for t, init in enumerate(inits, 1):
        sol = init if isinstance(init, GwqapError) else next(solved)
        if isinstance(sol, GwqapError):
            failed.append((t, type(sol).__name__))
        elif sol.objective < best.objective:
            best = replace(sol, trial_of_origin=t)
    return replace(best, failed_trials=tuple(failed))


def _project_starts(raw, h, g) -> list:
    """The coupling of each slice of the stack ``raw``, or the library error
    its projection raised; one stacked ``sinkhorn_project`` call unless it
    fails, then one call per slice, so each failing start has its own."""
    try:
        return sinkhorn_project(raw, h, g)
    except GwqapError:
        pass
    inits = []
    for start in raw:
        try:
            inits.append(sinkhorn_project(start, h, g))
        except GwqapError as exc:
            inits.append(exc)
    return inits


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
