"""Globalized semismooth Newton method on the penalized residual.

Each iteration builds one element C of the generalized Jacobian of Phi
at the current iterate (weight 1/2 on kink rows) as a sparse matrix and
first screens its nonzero pattern: when the pattern admits no perfect
matching between rows and columns (a maximum transversal, Duff 1981,
leaves a row unmatched), C is singular for any values of its entries
and is not factored.  Otherwise C is densified and C d = -Phi(u) is
solved by LU with partial pivoting.  The step is kept when the
factorization is numerically nonsingular (every pivot above 1e-12
times the matrix infinity norm), d is finite and d passes the descent
test

    grad_Psi(u)^T d <= -rho * ||d||^p_exp,

with Psi = 1/2 ||Phi||^2; otherwise the method falls back to the
steepest-descent direction -grad_Psi.  An Armijo backtracking search
with factor beta and slope fraction sigma picks the step size,
restarting from 1 at every outer iteration and capped at 60 halvings.
The iteration stops as soon as ||Phi(u)|| <= delta or after max_iter
steps.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.sparse.csgraph import maximum_bipartite_matching

from .jacobian import generalized_element
from .problem import BilevelProblem, IterateU, PenaltyParams, pack, unpack
from .residual import eval_merit, eval_pi, eval_residual_vec

MAX_HALVINGS = 60
PIVOT_REL_TOL = 1e-12

STATUS_CONVERGED = "converged"
STATUS_MAX_ITER = "max_iter"
STATUS_LINESEARCH_STALL = "linesearch_stall"
STATUS_SINGULAR = "singular_unrecoverable"
STATUS_SCHEDULE_EXHAUSTED = "schedule_exhausted"


def newton_direction(problem, u, params):
    """Direction for one iteration.  Returns (d, grad_psi, used).

    used is 'newton' when the generalized-Jacobian element C gives a
    nonsingular system whose finite solution passes the descent test
    grad_Psi^T d <= -rho ||d||^p; otherwise 'gradient' with
    d = -grad_psi.  grad_psi = C^T Phi is the classical merit gradient
    wherever Phi is differentiable.  C is factored only when its
    nonzero pattern admits a perfect matching.
    """
    phi = eval_residual_vec(problem, u, params)
    element = generalized_element(problem, u, params)
    C = element.sparse
    grad_psi = C.T @ phi
    # a row left unmatched makes C singular whatever its values
    if (maximum_bipartite_matching(C, perm_type="column") < 0).any():
        return -grad_psi, grad_psi, "gradient"
    # a perfect matching leaves no row empty, as reduceat requires
    inf_norm = np.add.reduceat(np.abs(C.data), C.indptr[:-1]).max()
    with warnings.catch_warnings():
        # exact singularity is detected by the pivot test below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(element.matrix, check_finite=False)
    if np.abs(np.diag(lu)).min() > PIVOT_REL_TOL * inf_norm:
        d = scipy.linalg.lu_solve((lu, piv), -phi, check_finite=False)
        if (np.all(np.isfinite(d)) and float(grad_psi @ d)
                <= -params.rho * np.linalg.norm(d) ** params.p_exp):
            return d, grad_psi, "newton"
    return -grad_psi, grad_psi, "gradient"


def line_search(merit, u_vec, direction, psi0, slope, params):
    """Armijo backtracking: smallest j >= 0 with
    merit(u + beta^j d) <= psi0 + sigma beta^j slope.

    Returns (tau, psi_new, accepted); accepted is False when the
    halving cap is reached without sufficient decrease (a stall).
    """
    tau = 1.0
    for _ in range(MAX_HALVINGS + 1):
        psi_new = merit(u_vec + tau * direction)
        if psi_new <= psi0 + params.sigma * tau * slope:
            return tau, psi_new, True
        tau *= params.beta
    return tau, psi_new, False


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
    certificates: dict = field(default_factory=dict)
    message: str = ""

    @property
    def u(self):
        return self.final_u

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
            "certificates": self.certificates,
            "message": self.message,
            "x": self.final_u.x.tolist(),
            "y": self.final_u.y.tolist(),
            "z": self.final_u.z.tolist(),
        }


def default_start(problem: BilevelProblem, x0, y0, lam1=None) -> IterateU:
    """Standard warm start from primal guesses (x0, y0).

    z0 = A y0 - b is copied into lam2 and lam3, r0 = lam4 = lam7 = 0,
    s0 = lam5 = e, lam1 defaults to |D x0 - d| and lam6 = 0.
    """
    x0 = np.asarray(x0, float).ravel()
    y0 = np.asarray(y0, float).ravel()
    z0 = problem.A @ y0 - problem.b
    l, n = problem.l, problem.n
    e = np.ones(l)
    if lam1 is None:
        lam1 = np.abs(problem.D @ x0 - problem.d)
    return IterateU(x=x0, y=y0, z=z0.copy(), r=np.zeros(l), s=e.copy(),
                    lam1=np.asarray(lam1, float).ravel(),
                    lam2=z0.copy(), lam3=z0.copy(),
                    lam4=np.zeros(l), lam5=e.copy(),
                    lam6=np.zeros(n), lam7=np.zeros(l))


def _certificates(problem, u, params):
    """Regularity summary attached to converged reports."""
    from .regularity import (check_theorem_fullrank_yy,
                             check_theorem_invertibleA, index_sets,
                             probe_nonsingularity)

    sets = index_sets(problem, u, params)
    inv_a = check_theorem_invertibleA(problem, u, params)
    full_yy = check_theorem_fullrank_yy(problem, u, params)
    probe = probe_nonsingularity(problem, u, params)
    return {
        "index_sets": {k: [int(j) for j in v]
                       for k, v in sets.named().items()},
        "theorem_invertibleA": {"holds": inv_a.holds,
                                "failed": inv_a.failed()},
        "theorem_fullrank_yy": {"holds": full_yy.holds,
                                "failed": full_yy.failed()},
        "probe": {"nonsingular": probe.nonsingular,
                  "n_elements": probe.n_elements,
                  "n_ties": probe.n_ties,
                  "worst_cond": probe.worst_cond},
    }


def solve(problem: BilevelProblem, u0: IterateU, params: PenaltyParams,
          callback=None) -> SolveReport:
    """Run the globalized semismooth Newton method from u0."""
    u0.check_dims(problem)
    n, l, m = problem.n, problem.l, problem.m

    def merit(vec):
        return eval_merit(problem, unpack(vec, n, l, m), params)

    u = u0.copy()
    u_vec = pack(u)
    res = float(np.linalg.norm(eval_residual_vec(problem, u, params)))
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
        d, grad_psi, kind = newton_direction(problem, u, params)
        if kind == "newton":
            slope = float(grad_psi @ d)
        else:
            slope = -float(grad_psi @ grad_psi)
            if slope == 0.0:
                status = STATUS_SINGULAR
                message = ("merit gradient vanished at a point whose "
                           "residual is above tolerance")
                break
        tau, psi_new, accepted = line_search(merit, u_vec, d, psi, slope,
                                             params)
        if not accepted:
            status = STATUS_LINESEARCH_STALL
            message = ("line search hit the halving cap without "
                       "sufficient decrease")
            break
        u_vec = u_vec + tau * d
        u = unpack(u_vec, n, l, m)
        res = float(np.linalg.norm(eval_residual_vec(problem, u, params)))
        psi = psi_new
        k += 1
        iterates.append((k, res, psi, kind, tau))
        if callback is not None:
            callback(k, u, res, kind, tau)
    if res <= params.delta:
        status = STATUS_CONVERGED
        message = "residual below tolerance"
    certificates = (_certificates(problem, u, params)
                    if status == STATUS_CONVERGED else {})
    return SolveReport(
        final_u=u, status=status, iterates=iterates, alpha=params.alpha,
        objective_value=float(problem.objective.eval(u.x, u.y)),
        penalty_value=eval_pi(problem, u.y, u.z),
        certificates=certificates, message=message)


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
