"""Globalized semismooth Newton method on the penalized residual.

Each iteration takes one element C of the generalized Jacobian of Phi
at the current iterate (weight 1/2 on kink rows), the one that the
selection weights p of the selection arguments X pick.  With alpha and
t fixed for a solve, C depends on p alone, so the element is built
only when p differs from the previous iteration's, and kept otherwise
with its screen verdict and factors.  Building it assembles C as a
sparse matrix and first screens its nonzero pattern: when the pattern
admits no perfect matching between rows and columns (a maximum
transversal, Duff 1981, leaves a row unmatched), C is singular for any
values of its entries and is not factored.  Otherwise C is densified
and factored by LU with partial pivoting, and the factors are kept
when the factorization is numerically nonsingular (every pivot above
1e-12 times the matrix infinity norm).  At every iteration the kept
factors solve C d = -Phi(u), and the step is taken when d is finite
and passes the descent test

    grad_Psi(u)^T d <= -rho * ||d||^p_exp,

with Psi = 1/2 ||Phi||^2; otherwise the method falls back to the
steepest-descent direction -grad_Psi.  An Armijo backtracking search
with factor beta and slope fraction sigma picks the step size,
restarting from 1 at every outer iteration and capped at 60 halvings.
Its trials are evaluated in blocks: Phi and X of the first 16 step
sizes come from one product of the residual map with the stacked trial
points, those of the other 45 from a second one, and the first trial
that passes the Armijo test is taken.  Each iterate is thus evaluated
by exactly one product with the map, the start point by its own and
every later iterate by the block that accepted it: ||Phi||, the
selection arguments X that pick C, and grad_Psi = C^T Phi are all read
from that product's row.  The iteration stops as soon as
||Phi(u)|| <= delta, after max_iter steps, or at once when the residual
at the start point is not finite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import maximum_bipartite_matching

from .jacobian import assemble, selection_weights
from .problem import BilevelProblem, IterateU, PenaltyParams, unpack
from .residual import eval_pi, residual_and_selection, row_merits
# not called here: perfbench/tracing.py wraps these names of this module
from .jacobian import generalized_element  # noqa: F401
from .residual import eval_merit, eval_residual_vec  # noqa: F401

MAX_HALVINGS = 60
TRIAL_BLOCK = 16  # Armijo trials in the first merit block
PIVOT_REL_TOL = 1e-12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_LINESEARCH_STALL = "linesearch_stall"
STATUS_SINGULAR = "singular_unrecoverable"
STATUS_SCHEDULE_EXHAUSTED = "schedule_exhausted"
STATUS_NONFINITE = "nonfinite_residual"


@dataclass(frozen=True)
class NewtonElement:
    """The generalized-Jacobian element that the selection weights p
    pick, with what a direction needs of it.

    matrix is C as the CSR matrix of
    :func:`~ssnbilevel.jacobian.generalized_element`, counts its stored
    entries per row, and factors the LU factors of C when C passed the
    structural screen and the pivot test, else None.  With alpha and t
    fixed, all of them depend on p alone.
    """

    p: np.ndarray
    matrix: scipy.sparse.csr_array
    counts: np.ndarray
    factors: tuple | None


def newton_element(problem, p, params):
    """Build, screen and factor the element with selection weights p
    (weight 1/2 on kink rows).

    C is factored only when its nonzero pattern admits a perfect
    matching, and its factors are kept only when every pivot exceeds
    PIVOT_REL_TOL times the infinity norm of C.
    """
    C = assemble(problem, params, (p,))
    factors = None
    # a row left unmatched makes C singular whatever its values
    if not (maximum_bipartite_matching(C, perm_type="column") < 0).any():
        # a perfect matching leaves no row empty, as reduceat requires
        inf_norm = np.add.reduceat(np.abs(C.data), C.indptr[:-1]).max()
        with warnings.catch_warnings():
            # exact singularity is detected by the pivot test below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(C.toarray(), check_finite=False)
        if np.abs(np.diag(lu)).min() > PIVOT_REL_TOL * inf_norm:
            factors = (lu, piv)
    return NewtonElement(p=p, matrix=C, counts=np.diff(C.indptr),
                         factors=factors)


def newton_direction(phi, element, params):
    """Direction for one iteration from Phi at the current point and
    the element its selection arguments pick (:func:`newton_element`).
    Returns (d, grad_psi, used).

    used is 'newton' when the element's factors give a finite solution
    of C d = -Phi that passes the descent test
    grad_Psi^T d <= -rho ||d||^p; otherwise 'gradient' with
    d = -grad_psi.  grad_psi = C^T Phi is the classical merit gradient
    wherever Phi is differentiable.
    """
    C = element.matrix
    # C^T phi summed in CSR order, as the product with C.T sums it
    grad_psi = np.bincount(C.indices,
                           C.data * np.repeat(phi, element.counts),
                           minlength=C.shape[1])
    if element.factors is not None:
        d = scipy.linalg.lu_solve(element.factors, -phi, check_finite=False)
        if (np.all(np.isfinite(d)) and float(grad_psi @ d)
                <= -params.rho * np.linalg.norm(d) ** params.p_exp):
            return d, grad_psi, "newton"
    return -grad_psi, grad_psi, "gradient"


def line_search(evaluate, vec, direction, psi0, slope, params):
    """Armijo backtracking: smallest j <= MAX_HALVINGS with
    Psi(u + beta^j d) <= psi0 + sigma beta^j slope.

    evaluate maps a (J, N) stack of trial points to (Phi, X) with one
    C-contiguous row per trial, and Psi is 1/2 ||Phi||^2 of a row.  The
    trials j < TRIAL_BLOCK form one stack and the rest a second one,
    evaluated only when the first has no acceptable trial.  Returns
    (tau, psi_new, accepted, phi, X) with the Phi and X rows of the
    accepted trial; accepted is False when the halving cap is reached
    without sufficient decrease (a stall), and then tau is
    beta^(MAX_HALVINGS + 1) and psi_new, phi and X belong to the last
    trial.
    """
    # tau_j = tau_{j-1} * beta: one rounded product per trial
    taus = np.cumprod(np.r_[1.0, np.full(MAX_HALVINGS + 1, params.beta)])
    for lo, hi in ((0, TRIAL_BLOCK), (TRIAL_BLOCK, MAX_HALVINGS + 1)):
        block = taus[lo:hi]
        phi, X = evaluate(vec + block[:, None] * direction)
        psi = row_merits(phi)
        passed = psi <= psi0 + params.sigma * block * slope
        if passed.any():
            j = int(passed.argmax())
            return float(block[j]), float(psi[j]), True, phi[j], X[j]
    return float(taus[-1]), float(psi[-1]), False, phi[-1], X[-1]


@dataclass
class SolveReport:
    """Outcome of one Newton run at a fixed penalty weight.

    iterates holds one tuple (k, residual_norm, merit, step_type, tau)
    per iteration, starting with the entry for the initial point
    (step_type 'initial', tau 0).  The residual norm of the last entry
    is below delta exactly when status == 'converged'.
    """

    final_u: IterateU
    status: str
    iterates: list  # (k, residual_norm, merit, step_type, tau)
    alpha: float
    objective_value: float
    penalty_value: float
    message: str = ""

    @property
    def converged(self):
        return self.status == STATUS_CONVERGED

    @property
    def iterations(self):
        return int(self.iterates[-1][0])

    @property
    def residual_norm(self):
        return float(self.iterates[-1][1])

    @property
    def residual_history(self):
        return [entry[1] for entry in self.iterates]

    @property
    def step_kinds(self):
        return [entry[3] for entry in self.iterates[1:]]

    def as_dict(self):
        return {
            "status": self.status,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual_norm": self.residual_norm,
            "alpha": self.alpha,
            "objective_value": self.objective_value,
            "penalty_value": self.penalty_value,
            "iterates": [list(entry) for entry in self.iterates],
            "message": self.message,
            "x": self.final_u.x.tolist(),
            "y": self.final_u.y.tolist(),
            "z": self.final_u.z.tolist(),
        }


def default_start(problem: BilevelProblem, x0, y0) -> IterateU:
    """Standard warm start from primal guesses (x0, y0).

    z0 = A y0 - b is copied into lam2 and lam3, r0 = lam4 = lam7 = 0,
    s0 = lam5 = e, lam1 = |D x0 - d| and lam6 = 0.
    """
    x0 = np.asarray(x0, float).ravel()
    y0 = np.asarray(y0, float).ravel()
    z0 = problem.A @ y0 - problem.b
    l, n = problem.l, problem.n
    e = np.ones(l)
    return IterateU(x=x0, y=y0, z=z0.copy(), r=np.zeros(l), s=e.copy(),
                    lam1=np.abs(problem.D @ x0 - problem.d),
                    lam2=z0.copy(), lam3=z0.copy(),
                    lam4=np.zeros(l), lam5=e.copy(),
                    lam6=np.zeros(n), lam7=np.zeros(l))


def solve(problem: BilevelProblem, u0: IterateU, params: PenaltyParams,
          callback=None) -> SolveReport:
    """Run the globalized semismooth Newton method from u0."""
    u0.check_dims(problem)
    n, l, m = problem.n, problem.l, problem.m

    def evaluate(trials):
        return residual_and_selection(problem, trials, params)

    # Phi and X of every iterate come from one product with the map:
    # here for u0, then from the line-search row that accepted it
    u = u0.copy()
    phi, X = evaluate(u.vec)
    element = None  # the element of the last direction's selection
    res = float(np.linalg.norm(phi))
    psi = 0.5 * res * res
    iterates = [(0, res, psi, "initial", 0.0)]
    status = STATUS_MAX_ITER
    message = "reached the iteration limit"
    k = 0
    while k < params.max_iter:
        if res <= params.delta:
            status = STATUS_CONVERGED
            message = "residual below tolerance"
            break
        if not math.isfinite(res):  # an accepted trial has a finite merit
            status = STATUS_NONFINITE
            message = f"residual not finite at the start point: {res}"
            break
        p = selection_weights(X)
        if element is None or not np.array_equal(p, element.p):
            element = None  # frees the old factors before the new LU
            element = newton_element(problem, p, params)
        d, grad_psi, kind = newton_direction(phi, element, params)
        if kind == "newton":
            slope = float(grad_psi @ d)
        else:
            slope = -float(grad_psi @ grad_psi)
            if slope == 0.0:
                status = STATUS_SINGULAR
                message = ("merit gradient vanished at a point whose "
                           "residual is above tolerance")
                break
        tau, psi_new, accepted, phi, X = line_search(
            evaluate, u.vec, d, psi, slope, params)
        if not accepted:
            status = STATUS_LINESEARCH_STALL
            message = ("line search hit the halving cap without "
                       "sufficient decrease")
            break
        u = unpack(u.vec + tau * d, n, l, m)
        res = float(np.linalg.norm(phi))
        psi = psi_new
        k += 1
        iterates.append((k, res, psi, kind, tau))
        if callback is not None:
            callback(k, u, res, kind, tau)
    if res <= params.delta:
        status = STATUS_CONVERGED
        message = "residual below tolerance"
    return SolveReport(
        final_u=u, status=status, iterates=iterates, alpha=params.alpha,
        objective_value=float(problem.objective.eval(u.x, u.y)),
        penalty_value=eval_pi(problem, u.y, u.z), message=message)


def alpha_continuation(problem, u0, params, alphas, pi_tol=1e-8):
    """Solve for an increasing sequence of penalty weights, warm-starting
    each run at the previous final iterate.

    Stops at the first weight whose solution has penalty value
    pi(y, z) <= pi_tol and returns that report.  If the schedule runs
    out with pi still above pi_tol, the last report is returned with
    status 'schedule_exhausted'.
    """
    alphas = [float(a) for a in alphas]
    if not alphas or any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise ValueError("alpha schedule must be nonempty and "
                         "strictly increasing")
    u = u0
    rep = None
    for a in alphas:
        rep = solve(problem, u, params.with_alpha(a))
        if rep.penalty_value <= pi_tol:
            rep.message += f" (penalty weight {a} accepted)"
            return rep
        u = rep.final_u
    rep.status = STATUS_SCHEDULE_EXHAUSTED
    rep.message = (f"schedule exhausted with penalty value "
                   f"{rep.penalty_value:.3e} above {pi_tol:.1e}")
    return rep
