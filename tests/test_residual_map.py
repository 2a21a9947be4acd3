"""The residual map against Phi written out block by block.

reference_phi holds the formulas eval_residual and selection_arguments
evaluated before Phi was held as one sparse affine map per problem;
reference_map builds the map with one scipy.sparse block per entry of
the block table.
"""

import numpy as np
import scipy.sparse

from ssnbilevel import (PenaltyParams, alpha_continuation, build_problem,
                        default_start, eval_residual_vec, preset, residual,
                        solve)
from ssnbilevel.problem import block_slices, unpack

from conftest import (make_ex_box, make_ex_fractional, random_instance,
                      random_iterate)


def reference_phi(problem, u, params):
    """(Phi(u), (X1, ..., X5)) from the block formulas."""
    A, D = problem.A, problem.D
    obj = problem.objective
    alpha, t = params.alpha, params.t
    Xs = (u.lam1 + t[0] * (D @ u.x - problem.d),
          u.lam2 + t[1] * (A @ u.y - problem.b),
          u.lam3 - t[2] * u.z,
          u.lam4 - t[3] * u.r,
          u.lam5 - t[4] * u.s)
    lams = (u.lam1, u.lam2, u.lam3, u.lam4, u.lam5)
    phi = np.concatenate([
        obj.grad_x(u.x, u.y) + D.T @ u.lam1 + u.lam6,  # stat_x
        obj.grad_y(u.x, u.y) - alpha * A.T @ u.s + A.T @ u.lam2,  # stat_y
        alpha * u.r + A @ u.lam6 - u.lam3,  # stat_z
        alpha * u.z + u.lam7 - u.lam4,  # stat_r
        alpha * (problem.b - A @ u.y) + u.lam7 - u.lam5,  # stat_s
        A.T @ u.z + u.x,  # eq_primal
        u.r + u.s - 1.0,  # eq_simplex
        *(lam - np.maximum(0.0, X) for lam, X in zip(lams, Xs)),  # comp
    ])
    return phi, Xs


def _cases(workloads):
    """(name, problem, params, iterates) over the instance families."""
    rng = np.random.default_rng(11)
    for i in range(20):
        problem = random_instance(rng)
        params = PenaltyParams(alpha=rng.uniform(0.5, 40.0),
                               t=rng.uniform(0.01, 1.0, 5))
        yield (f"random{i}", problem, params,
               [random_iterate(problem, rng, scale=3.0) for _ in range(10)])
    for name in ("network1", "network2"):
        ps = preset(name)
        yield (name, ps.problem, ps.params, [ps.start] + [
            random_iterate(ps.problem, rng) for _ in range(3)])
    network = workloads.toll_grid(3, np.random.default_rng(1))
    problem, layout = build_problem(network)
    start = default_start(problem, layout.costs, np.zeros(problem.n))
    yield ("grid3", problem, PenaltyParams(alpha=30.0), [start] + [
        random_iterate(problem, rng) for _ in range(3)])
    passes, _ = workloads.setup_warm(np.random.default_rng(1))
    for job in passes[0][2:]:  # one ex_box and one ex_fractional stack
        yield (job.name, job.problem, job.params, [job.u0, job.root])


def test_map_matches_block_formulas(workloads):
    for name, problem, params, iterates in _cases(workloads):
        for u in iterates:
            phi, Xs = reference_phi(problem, u, params)
            got = eval_residual_vec(problem, u, params)
            scale = max(1.0, np.abs(phi).max())
            assert np.abs(got - phi).max() <= 1e-13 * scale, name
            X = np.concatenate(Xs)
            got_X = residual.selection_arguments(problem, u, params)
            assert [a.shape for a in got_X] == [a.shape for a in Xs], name
            assert (np.abs(np.concatenate(got_X) - X).max()
                    <= 1e-13 * max(1.0, np.abs(X).max())), name


def reference_map(problem):
    """residual.residual_map with every table entry made a coo block."""
    n, l, m, N = problem.n, problem.l, problem.m, problem.size
    lengths = (n, n, l, l, l, n, l, m, l, l, l, l)
    order = residual.ResidualBlocks.ORDER
    size = dict(zip(order, lengths))
    start = dict(zip(order, np.cumsum((0,) + lengths)))
    cols = block_slices(n, l, m)
    offset = np.zeros(2 * N)
    i, j, v, part = [], [], [], []
    for rb, cb, mat, p in residual._table(problem):
        row = start[rb] + N * (p != residual.CONST)
        if cb is None:
            offset[row:row + size[rb]] = mat
            continue
        block = scipy.sparse.coo_array(mat * scipy.sparse.eye_array(size[rb])
                                       if np.isscalar(mat) else mat)
        i.append(start[rb] + block.row)
        j.append(cols[cb].start + block.col)
        v.append(block.data)
        part.append(np.full(block.nnz, p))
    i, j, v, part = map(np.concatenate, (i, j, v, part))
    stacked = scipy.sparse.csr_array(
        (v, (i + N * (part != residual.CONST), j)), shape=(2 * N, N))
    stacked.sort_indices()
    keys, position = np.unique(i * N + j, return_inverse=True)
    coef = np.zeros((3, keys.size))
    coef[part, position] = v
    rows = keys // N
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=N))))
    return residual.ResidualMap(
        lengths=lengths, head=int(start["comp1"]), stacked=stacked,
        offset=offset, indices=keys % N, indptr=indptr, rows=rows, coef=coef)


def _same_array(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.tobytes() == b.tobytes())


def test_map_equals_coo_block_build(workloads):
    """Every field of the map, dtypes included, is the one the coo block
    build gives."""
    for name, problem, _, _ in _cases(workloads):
        got, ref = residual.residual_map(problem), reference_map(problem)
        assert got.lengths == ref.lengths and got.head == ref.head, name
        for field in ("data", "indices", "indptr"):
            assert _same_array(getattr(got.stacked, field),
                               getattr(ref.stacked, field)), (name, field)
        assert got.stacked.shape == ref.stacked.shape, name
        for field in ("offset", "indices", "indptr", "rows", "coef"):
            assert _same_array(getattr(got, field),
                               getattr(ref, field)), (name, field)


def test_map_is_built_once_per_problem(monkeypatch):
    built = []

    def counting(problem):
        built.append(problem)
        return build(problem)

    build = residual.residual_map
    monkeypatch.setattr(residual, "residual_map", counting)
    problem = make_ex_box()
    u0 = default_start(problem, [1.5], [0.5])
    params = PenaltyParams(alpha=1.0, max_iter=5)
    rep = alpha_continuation(problem, u0, params, [1.0, 10.0, 30.0],
                             pi_tol=-np.inf)  # runs all three weights
    assert rep.status == "schedule_exhausted"
    solve(problem, u0, params.with_alpha(30.0))
    solve(problem, unpack(u0.vec, problem.n, problem.l, problem.m), params)
    assert len(built) == 1 and built[0] is problem
    other = make_ex_fractional()
    solve(other, default_start(other, [1.2], [0.5]), params)
    assert len(built) == 2 and built[1] is other
    assert other.residual_map is not problem.residual_map

