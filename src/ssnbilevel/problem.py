"""Problem data, stacked solver variable and parameter containers.

The solver works on instances

    min  F(x, y)   s.t.  D x <= d,   y in Argmin_y { x^T y : A y <= b },

always as a minimization; applications that maximize (toll revenue)
supply the negated objective.  The stacked Newton variable is

    u = (x, y, z, r, s, lam1, lam2, lam3, lam4, lam5, lam6, lam7)

of total length 3n + 8l + m, where z are the lower-level multipliers,
(r, s) the complementarity-reformulation variables and lam1..lam7 the
multipliers of the penalized problem's first-order conditions.  It is
one float vector with a named view per block (:class:`IterateU`, a
:class:`BlockVector`).  F is quadratic and held as data by
:class:`QuadraticObjective`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np


class DimensionError(ValueError):
    """Raised when a block of problem data has inconsistent dimensions."""

    def __init__(self, block, message):
        self.block = block
        super().__init__(f"{block}: {message}")


@dataclass(frozen=True, eq=False)
class QuadraticObjective:
    """Upper-level objective

        F(x, y) = 1/2 x'Qxx x + x'Qxy y + 1/2 y'Qyy y + kx'x + ky'y + const

    with symmetric Qxx and Qyy, so that its Hessian blocks are the
    constant matrices Qxx, Qxy, Qxy' and Qyy.  The arrays are read-only
    copies; build it with :func:`quadratic_objective`, which checks the
    shapes and symmetrizes Qxx and Qyy.
    """

    Qxx: np.ndarray
    Qxy: np.ndarray
    Qyy: np.ndarray
    kx: np.ndarray
    ky: np.ndarray
    const: float = 0.0

    def __post_init__(self):
        for name in ("Qxx", "Qxy", "Qyy", "kx", "ky"):
            arr = np.array(getattr(self, name), float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def affine(self):
        return not (self.Qxx.any() or self.Qxy.any() or self.Qyy.any())

    def eval(self, x, y):
        return (0.5 * x @ self.Qxx @ x + x @ self.Qxy @ y
                + 0.5 * y @ self.Qyy @ y + self.kx @ x + self.ky @ y
                + self.const)

    def grad_x(self, x, y):
        return self.Qxx @ x + self.Qxy @ y + self.kx

    def grad_y(self, x, y):
        return self.Qxy.T @ x + self.Qyy @ y + self.ky

    def hess_xx(self, x, y):
        return self.Qxx

    def hess_xy(self, x, y):
        return self.Qxy

    def hess_yy(self, x, y):
        return self.Qyy


def quadratic_objective(Qxx=None, Qxy=None, Qyy=None, kx=None, ky=None,
                        const=0.0, n=None):
    """Build the QuadraticObjective F = 1/2 x'Qxx x + x'Qxy y
    + 1/2 y'Qyy y + kx'x + ky'y + const from copies of the given blocks.
    Missing blocks default to zero; Qxx and Qyy are symmetrized."""
    given = {"Qxx": Qxx, "Qxy": Qxy, "Qyy": Qyy, "kx": kx, "ky": ky}
    if n is None:
        first = next((b for b in given.values() if b is not None), None)
        if first is None:
            raise DimensionError("objective", "cannot infer n from empty data")
        n = np.asarray(first).shape[0]
    blocks = {}
    for name, blk in given.items():
        shape = (n, n) if name.startswith("Q") else (n,)
        blk = np.zeros(shape) if blk is None else np.asarray(blk, float)
        if blk.shape != shape:
            raise DimensionError(f"objective.{name}",
                                 f"expected shape {shape}, got {blk.shape}")
        blocks[name] = 0.5 * (blk + blk.T) if name in ("Qxx", "Qyy") else blk
    return QuadraticObjective(**blocks, const=const)


@dataclass(frozen=True, eq=False)
class BilevelProblem:
    """Immutable instance data: upper constraints Dx <= d, lower Ay <= b.

    Compared and hashed by identity, as the cached residual map is.
    """

    D: np.ndarray
    d: np.ndarray
    A: np.ndarray
    b: np.ndarray
    objective: QuadraticObjective

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

    @cached_property
    def residual_map(self):
        """Phi of this problem as one sparse affine map, built on first
        use (see residual.py)."""
        from .residual import residual_map

        return residual_map(self)


#: block names of the stacked variable, in pack order
BLOCK_ORDER = ("x", "y", "z", "r", "s",
               "lam1", "lam2", "lam3", "lam4", "lam5", "lam6", "lam7")


def _lengths(n, l, m):
    return (n, n, l, l, l, m, l, l, l, l, n, l)


def block_lengths(n, l, m):
    return dict(zip(BLOCK_ORDER, _lengths(n, l, m)))


@lru_cache(maxsize=256)
def _slices(order, lengths):
    """Slice of each named block, shared by all vectors of one layout."""
    return {name: slice(end - length, end)
            for name, length, end in zip(order, lengths, accumulate(lengths))}


def block_slices(n, l, m):
    """Slice of each block inside the packed vector."""
    return dict(_slices(BLOCK_ORDER, _lengths(n, l, m)))


class _Block:
    """A block of a BlockVector: a view of vec, made on the first read and
    kept on the instance, so that the residual's ~40 reads are cheap."""

    def __init__(self, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        view = obj.__dict__[self.name] = obj.vec[obj._slices[self.name]]
        return view


class BlockVector:
    """One float vector ``vec`` split into named blocks.

    A subclass lists the block names in ORDER.  Each name reads as a
    view of vec, and assigning to it writes into vec (the length must
    match).  vec is never rebound, so the views stay valid.  The keyword
    constructor takes one array per name and stacks them into a new
    vector.
    """

    ORDER = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for name in cls.ORDER:
            setattr(cls, name, _Block(name))

    def __init__(self, **blocks):
        if blocks.keys() != set(self.ORDER):
            raise TypeError(f"{type(self).__name__} takes exactly the "
                            f"blocks {', '.join(self.ORDER)}")
        parts = [np.asarray(blocks[name], float).ravel()
                 for name in self.ORDER]
        self._attach(np.concatenate(parts), tuple(len(p) for p in parts))

    def _attach(self, vec, lengths):
        self.__dict__.update(vec=vec, lengths=lengths,
                             _slices=_slices(self.ORDER, lengths))

    def __setattr__(self, name, value):
        if name not in self.ORDER:
            raise AttributeError(f"{type(self).__name__} has no block "
                                 f"{name!r}; assign into a block or vec")
        getattr(self, name)[...] = value

    def __reduce__(self):  # copy and pickle rebuild the views
        return type(self).wrap, (self.vec, self.lengths)

    @classmethod
    def wrap(cls, vec, lengths):
        """Blocks of the given lengths over vec itself, without a copy."""
        out = cls.__new__(cls)
        out._attach(vec, tuple(lengths))
        return out

    def copy(self):
        return self.wrap(self.vec.copy(), self.lengths)


class IterateU(BlockVector):
    """The stacked unknown u = (x, y, z, r, s, lam1..lam7)."""

    ORDER = BLOCK_ORDER

    @classmethod
    def zeros(cls, n, l, m):
        return cls.wrap(np.zeros(3 * n + 8 * l + m), _lengths(n, l, m))

    def check_dims(self, problem):
        expected = _lengths(problem.n, problem.l, problem.m)
        for name, got, want in zip(self.ORDER, self.lengths, expected):
            if got != want:
                raise DimensionError(
                    name, f"expected length {want}, got {got}")


def pack(u: IterateU) -> np.ndarray:
    """Copy of the iterate's vector, in the canonical block order."""
    return u.vec.copy()


def unpack(vec, n, l, m) -> IterateU:
    """Inverse of :func:`pack`: an iterate over a copy of vec."""
    vec = np.asarray(vec, float).ravel()
    expected = 3 * n + 8 * l + m
    if vec.shape[0] != expected:
        raise DimensionError("u", f"expected length {expected}, got {vec.shape[0]}")
    return IterateU.wrap(vec.copy(), _lengths(n, l, m))


@dataclass(eq=False)
class PenaltyParams:
    """Penalty weight, reformulation scalars and algorithm constants.

    Defaults mirror the toll experiments: t = (0.045, 0.049, 0.025,
    0.005, 0.0025), epsilon = 0.01, delta = 1e-6, 50 iterations.
    Compared and hashed by identity.
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
        scalars = [self.alpha, self.epsilon, self.delta, self.rho,
                   self.p_exp, self.beta, self.sigma, self.max_iter]
        checks = [
            (np.isfinite(scalars).all() and np.isfinite(self.t).all()
             and not any(isinstance(v, (bool, np.bool_)) for v in scalars),
             "every parameter must be finite and not a bool"),
            (self.alpha > 0, "alpha must be positive"),
            (np.all(self.t > 0), "all t components must be positive"),
            (self.epsilon >= 0, "epsilon must be nonnegative"),
            (self.delta > 0, "delta must be positive"),
            (self.rho > 0, "rho must be positive"),
            (self.p_exp > 2, "p_exp must exceed 2"),
            (0 < self.beta < 1, "beta must lie in (0, 1)"),
            (0 < self.sigma < 0.5, "sigma must lie in (0, 1/2)"),
            (isinstance(self.max_iter, (int, np.integer))
             and self.max_iter >= 1, "max_iter must be a positive integer"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)

    def with_alpha(self, alpha):
        return replace(self, alpha=float(alpha))


def validate(problem: BilevelProblem):
    """Check that the blocks of the instance fit together.

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
    n_obj = problem.objective.Qxx.shape[0]
    if n_obj != n:
        diags.append(f"objective: n = {n_obj}, A has {n} columns")
    return diags
