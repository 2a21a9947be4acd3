"""Problem data, stacked solver variable and parameter containers.

The solver works on instances

    min  F(x, y)   s.t.  D x <= d,   y in Argmin_y { x^T y : A y <= b },

always as a minimization; applications that maximize (toll revenue)
supply the negated objective.  The stacked Newton variable is

    u = (x, y, z, r, s, lam1, lam2, lam3, lam4, lam5, lam6, lam7)

of total length 3n + 8l + m, where z are the lower-level multipliers,
(r, s) the complementarity-reformulation variables and lam1..lam7 the
multipliers of the penalized problem's first-order conditions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np


class DimensionError(ValueError):
    """Raised when a block of problem data has inconsistent dimensions."""

    def __init__(self, block, message):
        self.block = block
        super().__init__(f"{block}: {message}")


class UpperObjective:
    """Twice continuously differentiable upper-level objective.

    Wraps evaluator callbacks for F, its gradients and Hessian blocks.
    All callbacks take (x, y) as 1-d numpy arrays of length n.
    """

    def __init__(self, eval, grad_x, grad_y, hess_xx, hess_xy, hess_yy,
                 affine=False):
        self.eval = eval
        self.grad_x = grad_x
        self.grad_y = grad_y
        self.hess_xx = hess_xx
        self.hess_xy = hess_xy
        self.hess_yy = hess_yy
        self.affine = bool(affine)

    def hess_yx(self, x, y):
        return np.asarray(self.hess_xy(x, y)).T


def quadratic_objective(Qxx=None, Qxy=None, Qyy=None, kx=None, ky=None,
                        const=0.0, n=None):
    """Build an UpperObjective for F = 1/2 x'Qxx x + x'Qxy y + 1/2 y'Qyy y
    + kx'x + ky'y + const.  Missing blocks default to zero."""
    if n is None:
        for blk in (Qxx, Qxy, Qyy):
            if blk is not None:
                n = np.asarray(blk).shape[0]
                break
        else:
            for vec in (kx, ky):
                if vec is not None:
                    n = np.asarray(vec).shape[0]
                    break
    if n is None:
        raise DimensionError("objective", "cannot infer n from empty data")
    Qxx = np.zeros((n, n)) if Qxx is None else np.asarray(Qxx, float)
    Qxy = np.zeros((n, n)) if Qxy is None else np.asarray(Qxy, float)
    Qyy = np.zeros((n, n)) if Qyy is None else np.asarray(Qyy, float)
    kx = np.zeros(n) if kx is None else np.asarray(kx, float)
    ky = np.zeros(n) if ky is None else np.asarray(ky, float)
    for name, blk, shape in (("Qxx", Qxx, (n, n)), ("Qxy", Qxy, (n, n)),
                             ("Qyy", Qyy, (n, n)), ("kx", kx, (n,)),
                             ("ky", ky, (n,))):
        if blk.shape != shape:
            raise DimensionError(f"objective.{name}",
                                 f"expected shape {shape}, got {blk.shape}")
    Qxx = 0.5 * (Qxx + Qxx.T)
    Qyy = 0.5 * (Qyy + Qyy.T)
    affine = (not Qxx.any()) and (not Qxy.any()) and (not Qyy.any())

    def f(x, y):
        return (0.5 * x @ Qxx @ x + x @ Qxy @ y + 0.5 * y @ Qyy @ y
                + kx @ x + ky @ y + const)

    return UpperObjective(
        eval=f,
        grad_x=lambda x, y: Qxx @ x + Qxy @ y + kx,
        grad_y=lambda x, y: Qxy.T @ x + Qyy @ y + ky,
        hess_xx=lambda x, y: Qxx.copy(),
        hess_xy=lambda x, y: Qxy.copy(),
        hess_yy=lambda x, y: Qyy.copy(),
        affine=affine,
    )


@dataclass(frozen=True)
class BilevelProblem:
    """Immutable instance data: upper constraints Dx <= d, lower Ay <= b."""

    D: np.ndarray
    d: np.ndarray
    A: np.ndarray
    b: np.ndarray
    objective: UpperObjective

    def __post_init__(self):
        object.__setattr__(self, "D", np.atleast_2d(np.asarray(self.D, float)))
        object.__setattr__(self, "d", np.asarray(self.d, float).ravel())
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, float)))
        object.__setattr__(self, "b", np.asarray(self.b, float).ravel())

    @property
    def n(self):
        return self.A.shape[1]

    @property
    def l(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.D.shape[0]

    @property
    def size(self):
        """Dimension of the stacked Newton system."""
        return 3 * self.n + 8 * self.l + self.m


#: block names of the stacked variable, in pack order
BLOCK_ORDER = ("x", "y", "z", "r", "s",
               "lam1", "lam2", "lam3", "lam4", "lam5", "lam6", "lam7")


def block_lengths(n, l, m):
    return {"x": n, "y": n, "z": l, "r": l, "s": l,
            "lam1": m, "lam2": l, "lam3": l, "lam4": l, "lam5": l,
            "lam6": n, "lam7": l}


def block_slices(n, l, m):
    """Slice of each block inside the packed vector."""
    lengths = block_lengths(n, l, m)
    out = {}
    off = 0
    for name in BLOCK_ORDER:
        out[name] = slice(off, off + lengths[name])
        off += lengths[name]
    return out


@dataclass
class IterateU:
    """The stacked unknown u = (x, y, z, r, s, lam1..lam7)."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    r: np.ndarray
    s: np.ndarray
    lam1: np.ndarray
    lam2: np.ndarray
    lam3: np.ndarray
    lam4: np.ndarray
    lam5: np.ndarray
    lam6: np.ndarray
    lam7: np.ndarray

    def __post_init__(self):
        for name in BLOCK_ORDER:
            setattr(self, name, np.asarray(getattr(self, name), float).ravel())

    @classmethod
    def zeros(cls, n, l, m):
        lengths = block_lengths(n, l, m)
        return cls(**{name: np.zeros(lengths[name]) for name in BLOCK_ORDER})

    def copy(self):
        return IterateU(**{name: getattr(self, name).copy()
                           for name in BLOCK_ORDER})

    def check_dims(self, problem):
        lengths = block_lengths(problem.n, problem.l, problem.m)
        for name in BLOCK_ORDER:
            got = getattr(self, name).shape[0]
            if got != lengths[name]:
                raise DimensionError(
                    name, f"expected length {lengths[name]}, got {got}")


def pack(u: IterateU) -> np.ndarray:
    """Flatten an iterate into the canonical block order."""
    return np.concatenate([getattr(u, name) for name in BLOCK_ORDER])


def unpack(vec, n, l, m) -> IterateU:
    """Inverse of :func:`pack` for given dimensions."""
    vec = np.asarray(vec, float).ravel()
    expected = 3 * n + 8 * l + m
    if vec.shape[0] != expected:
        raise DimensionError("u", f"expected length {expected}, got {vec.shape[0]}")
    slices = block_slices(n, l, m)
    return IterateU(**{name: vec[slices[name]].copy() for name in BLOCK_ORDER})


@dataclass
class PenaltyParams:
    """Penalty weight, reformulation scalars and algorithm constants.

    Defaults mirror the toll experiments: t = (0.045, 0.049, 0.025,
    0.005, 0.0025), epsilon = 0.01, delta = 1e-6, 50 iterations.
    """

    alpha: float = 1.0
    t: np.ndarray = field(
        default_factory=lambda: np.array([0.045, 0.049, 0.025, 0.005, 0.0025]))
    epsilon: float = 0.01
    delta: float = 1e-6
    rho: float = 1e-8
    p_exp: float = 2.1
    beta: float = 0.5
    sigma: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        self.t = np.asarray(self.t, float).ravel()
        if self.t.shape[0] == 1:
            self.t = np.full(5, self.t[0])
        if self.t.shape[0] != 5:
            raise DimensionError("t", f"expected 5 components, got {self.t.shape[0]}")
        self.validate()

    def validate(self):
        checks = [
            (self.alpha > 0, "alpha must be positive"),
            (np.all(self.t > 0), "all t components must be positive"),
            (self.epsilon >= 0, "epsilon must be nonnegative"),
            (self.delta > 0, "delta must be positive"),
            (self.rho > 0, "rho must be positive"),
            (self.p_exp > 2, "p_exp must exceed 2"),
            (0 < self.beta < 1, "beta must lie in (0, 1)"),
            (0 < self.sigma < 0.5, "sigma must lie in (0, 1/2)"),
            (self.max_iter >= 1, "max_iter must be positive"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)

    def with_alpha(self, alpha):
        return replace(self, alpha=float(alpha))


def _fd_gradient(f, x, h):
    g = np.zeros_like(x)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def validate(problem: BilevelProblem, rng=None, fd_rel_tol=1e-4):
    """Check dimension consistency and spot-check objective derivatives.

    Returns a (possibly empty) list of diagnostic strings; an empty list
    means the instance is accepted.
    """
    diags = []
    n, l, m = problem.n, problem.l, problem.m
    if n < 1:
        diags.append("n: need at least one upper/lower variable")
    if l < 1:
        diags.append("l: need at least one lower-level constraint")
    if problem.D.shape[1] != n:
        diags.append(f"D: has {problem.D.shape[1]} columns, A has {n}")
    if problem.d.shape[0] != m:
        diags.append(f"d: length {problem.d.shape[0]}, D has {m} rows")
    if problem.b.shape[0] != l:
        diags.append(f"b: length {problem.b.shape[0]}, A has {l} rows")
    if diags:
        return diags

    rng = np.random.default_rng(0) if rng is None else rng
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    obj = problem.objective
    scale = max(1.0, float(np.abs(x).max()), float(np.abs(y).max()))
    h = 1e-6 * scale

    gx = np.asarray(obj.grad_x(x, y), float)
    gy = np.asarray(obj.grad_y(x, y), float)
    gx_fd = _fd_gradient(lambda v: obj.eval(v, y), x.copy(), h)
    gy_fd = _fd_gradient(lambda v: obj.eval(x, v), y.copy(), h)
    ref = max(1.0, float(np.abs(gx_fd).max()), float(np.abs(gy_fd).max()))
    if np.abs(gx - gx_fd).max() > fd_rel_tol * ref:
        diags.append("objective.grad_x: finite-difference mismatch")
    if np.abs(gy - gy_fd).max() > fd_rel_tol * ref:
        diags.append("objective.grad_y: finite-difference mismatch")

    Hxy = np.asarray(obj.hess_xy(x, y), float)
    Hyx = np.asarray(obj.hess_yx(x, y), float)
    if np.abs(Hxy - Hyx.T).max() > 1e-10 * max(1.0, np.abs(Hxy).max()):
        diags.append("objective.hess_xy: not the transpose of hess_yx")

    # Hessian blocks against finite differences of the gradients.
    Hxx = np.asarray(obj.hess_xx(x, y), float)
    Hyy = np.asarray(obj.hess_yy(x, y), float)
    for name, H, g_of in (("hess_xx", Hxx, "x"), ("hess_yy", Hyy, "y")):
        fd = np.zeros((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            if g_of == "x":
                fd[:, i] = (obj.grad_x(x + e, y) - obj.grad_x(x - e, y)) / (2 * h)
            else:
                fd[:, i] = (obj.grad_y(x, y + e) - obj.grad_y(x, y - e)) / (2 * h)
        ref = max(1.0, float(np.abs(fd).max()))
        if np.abs(H - fd).max() > fd_rel_tol * ref:
            diags.append(f"objective.{name}: finite-difference mismatch")
    return diags
