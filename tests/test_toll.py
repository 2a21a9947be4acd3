"""Toll-pricing front end: network encoding, presets, invariants."""

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ssnbilevel.oracle import lower_level_argmin
from ssnbilevel.toll import (InconsistencyError, NoPathError, TollNetwork,
                             VariableLayout, assemble_lower_level,
                             build_incidence, build_problem,
                             build_upper_constraints, preset, recover_tolls,
                             revenue, to_inequality_form)


def test_preset_network1_dimensions():
    ps = preset("network1")
    pr = ps.problem
    assert (pr.n, pr.l, pr.m) == (8, 18, 13)
    assert pr.size == 3 * 8 + 8 * 18 + 13 == 181
    assert ps.params.alpha == 0.45
    assert ps.layout.tolled == (2, 3, 7)


def test_preset_network2_dimensions():
    ps = preset("network2")
    pr = ps.problem
    assert (pr.n, pr.l, pr.m) == (8, 20, 14)
    assert pr.size == 3 * 8 + 8 * 20 + 14 == 198
    assert ps.params.alpha == 4.791
    assert ps.layout.links == ((3, 7),)


def test_preset_network1_equality_rows_verbatim():
    """The inequality matrix begins with the five conservation rows as
    published, including the redundant destination balance."""
    ps = preset("network1")
    eq = np.array([
        [1, 1, 1, 0, 0, 0, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 1],
        [-1, 0, 0, 1, 1, 0, 0, 0],
        [0, -1, 0, -1, 0, 1, 1, 0],
        [0, 0, 0, 0, -1, -1, 0, 1],
    ], float)
    assert np.array_equal(ps.problem.A[:5], eq)
    assert np.array_equal(ps.problem.A[5:10], -eq)
    assert np.array_equal(ps.problem.A[10:], -np.eye(8))
    assert np.array_equal(ps.problem.b[:5], [1, 1, 0, 0, 0])


def test_preset_network1_start_multipliers():
    """The default start sets lam1 = |D x0 - d|: zero on the satisfied
    pin rows, 5 on the two price components started above their base."""
    ps = preset("network1")
    expected = np.zeros(13)
    expected[1] = 5.0  # component 4 priced at 5 with zero base cost
    expected[2] = 5.0  # component 8 likewise
    assert np.allclose(ps.start.lam1, expected)
    assert np.array_equal(ps.start.y, ps.y0)
    assert np.array_equal(ps.start.x, ps.x0)


def test_preset_network2_upper_constraints():
    """Linked price copies x4 = x8 appear as an equality split; the two
    tolled components have no lower bound rows (unbounded tolls)."""
    ps = preset("network2")
    D, d = ps.problem.D, ps.problem.d
    # 6 pinned components * 2 rows + 1 link * 2 rows = 14
    assert D.shape == (14, 8)
    link = np.zeros(8)
    link[3], link[7] = 1.0, -1.0
    assert any(np.array_equal(row, link) for row in D)
    assert any(np.array_equal(row, -link) for row in D)
    # no row touches a tolled component alone (no lower bounds emitted)
    for row in D:
        nz = np.flatnonzero(row)
        assert not (nz.size == 1 and nz[0] in (3, 7))


def test_preset_unknown_name():
    with pytest.raises(ValueError):
        preset("network3")


def test_build_incidence_matches_printed_rows():
    """Mechanical incidence rows (destination dropped) reproduce the
    published conservation rows for the origin and interior nodes."""
    ps = preset("network1")
    A, b = build_incidence(ps.network, (1, 5, 1.0))
    assert A.shape == (4, 8)
    printed = ps.problem.A
    assert np.array_equal(A[0], printed[0])  # origin
    assert np.array_equal(A[1], printed[2])  # node 2
    assert np.array_equal(A[2], printed[3])  # node 3
    assert np.array_equal(A[3], printed[4])  # node 4
    assert np.array_equal(b, [1.0, 0.0, 0.0, 0.0])
    # columns of the full incidence matrix sum to zero, so the dropped
    # destination row is minus the sum of the kept rows; the published
    # version states it with flipped signs (flow into the destination)
    assert np.array_equal(A.sum(axis=0), printed[1])


def test_build_incidence_no_path():
    ps = preset("network1")
    with pytest.raises(NoPathError):
        build_incidence(ps.network, (5, 1, 1.0))  # all arcs point away


def test_network_validation():
    with pytest.raises(ValueError):
        TollNetwork(nodes=[1, 2], arcs=[(1, 1, 0.0)], tolled=(),
                    od_pairs=[(1, 2, 1.0)])
    with pytest.raises(ValueError):
        TollNetwork(nodes=[1, 2], arcs=[(1, 2, -1.0)], tolled=(),
                    od_pairs=[(1, 2, 1.0)])
    with pytest.raises(ValueError):
        TollNetwork(nodes=[1, 2], arcs=[(1, 2, 1.0)], tolled=(5,),
                    od_pairs=[(1, 2, 1.0)])
    with pytest.raises(ValueError):
        TollNetwork(nodes=[1, 2], arcs=[(1, 2, 1.0)], tolled=(),
                    od_pairs=[(1, 2, 0.0)])


@pytest.mark.parametrize("change", [
    {"arcs": [(1, 2, float("nan")), (2, 3, 1.0), (1, 3, 3.0)]},
    {"arcs": [(1, 2, float("inf")), (2, 3, 1.0), (1, 3, 3.0)]},
    {"od_pairs": [(1, 3, float("nan"))]},
    {"od_pairs": [(1, 3, float("inf"))]},
    {"toll_lb": {0: float("nan")}},
    {"toll_lb": {0: float("-inf")}},
    {"tolled": (0, 0)},
], ids=["cost-nan", "cost-inf", "demand-nan", "demand-inf", "toll_lb-nan",
        "toll_lb-inf", "tolled-repeated"])
def test_network_rejects_nonfinite_data_and_repeated_tolls(change):
    """NaN slipped past the cost and demand sign checks, and a repeated
    tolled index added a second bound row and doubled the revenue."""
    data = {"nodes": [1, 2, 3],
            "arcs": [(1, 2, 1.0), (2, 3, 1.0), (1, 3, 3.0)],
            "tolled": (0,), "od_pairs": [(1, 3, 1.0)]}
    TollNetwork(**data, toll_lb={0: None})
    with pytest.raises(ValueError):
        TollNetwork(**{**data, **change})


def test_to_inequality_form():
    A, b = to_inequality_form([[1.0, 1.0]], [3.0])
    assert A.shape == (4, 2)
    assert np.array_equal(A, [[1, 1], [-1, -1], [-1, 0], [0, -1]])
    assert np.array_equal(b, [3, -3, 0, 0])


def test_recover_tolls_and_revenue():
    layout = VariableLayout(n_vars=3, costs=[2.0, 0.0, 1.0], tolled=(1,))
    tolls = recover_tolls([2.0, 4.5, 1.0], layout)
    assert tolls == {1: 4.5}
    with pytest.raises(InconsistencyError):
        recover_tolls([2.2, 4.5, 1.0], layout)  # pinned component moved
    assert revenue([2.0, 4.5, 1.0], [0.0, 2.0, 1.0], layout) == 9.0


def test_build_problem_single_commodity_pipeline():
    """The generic pipeline on the 5-node network drops the redundant
    destination row, giving 4 equality rows -> 16 inequality rows."""
    ps = preset("network1")
    pr, layout = build_problem(ps.network)
    assert (pr.n, pr.l, pr.m) == (8, 16, 13)
    assert layout.tolled == (2, 3, 7)
    # zero tolls: both encodings share the lower-level optimum
    x = layout.costs.copy()
    val_a, _ = lower_level_argmin(pr.A, pr.b, x)
    val_b, _ = lower_level_argmin(ps.problem.A, ps.problem.b, x)
    assert val_a == pytest.approx(val_b)


def test_assemble_lower_level_two_commodities():
    ps = preset("network2")
    A_eq, b_eq, layout = assemble_lower_level(ps.network)
    n_arcs = ps.network.n_arcs
    # two per-commodity copies plus the aggregate block
    assert layout.n_vars == 3 * n_arcs
    assert A_eq.shape[1] == layout.n_vars
    # coupling rows: aggregate equals the sum of the copies
    copies = A_eq[-n_arcs:, :2 * n_arcs]
    agg = A_eq[-n_arcs:, 2 * n_arcs:]
    assert np.array_equal(agg, -np.eye(n_arcs))
    assert np.array_equal(copies, np.hstack([np.eye(n_arcs)] * 2))
    # a routing that sends each unit along its cheap path satisfies it
    flow1 = np.zeros(n_arcs)
    flow1[[1, 3, 2]] = 1.0  # 1 -> 3 -> 4 -> 2
    flow2 = np.zeros(n_arcs)
    flow2[[4, 3, 5]] = 1.0  # 5 -> 3 -> 4 -> 6
    stacked = np.concatenate([flow1, flow2, flow1 + flow2])
    assert np.abs(A_eq @ stacked - b_eq).max() == 0.0


def test_assemble_lower_level_general_block_form():
    """Three pairs with non-unit demands and one toll bound take the
    general path: A_eq = [[blockdiag(B_1, B_2, B_3), 0], [I I I, -I]]."""
    arcs = [(1, 2, 1.0), (2, 3, 2.0), (1, 3, 5.0), (3, 4, 1.0),
            (2, 4, 4.0), (1, 4, 9.0)]
    od = [(1, 3, 2.0), (2, 4, 0.5), (1, 4, 3.0)]
    network = TollNetwork(nodes=[1, 2, 3, 4], arcs=arcs, tolled=(1, 4),
                          od_pairs=od, toll_lb={4: 0.5})
    A_eq, b_eq, layout = assemble_lower_level(network)
    n_arcs, M = 6, 3
    # three incidence blocks of 3 rows each plus one coupling row per arc
    assert A_eq.shape == (3 * M + n_arcs, (M + 1) * n_arcs)
    assert b_eq.shape == (3 * M + n_arcs,)
    assert layout.n_vars == (M + 1) * n_arcs
    # each pair's shortest path, scaled by its demand, with the aggregate
    paths = ([0, 1], [1, 3], [0, 1, 3])  # 1-2-3, 2-3-4, 1-2-3-4
    flows = []
    for path, (_, _, demand) in zip(paths, od):
        flow = np.zeros(n_arcs)
        flow[path] = demand
        flows.append(flow)
    y = np.concatenate(flows + [sum(flows)])
    assert np.array_equal(A_eq @ y, b_eq)
    # the priced components are the aggregate block's
    offset = M * n_arcs
    assert layout.tolled == (offset + 1, offset + 4)
    assert layout.toll_lb == {offset + 4: 0.5}
    assert np.array_equal(layout.costs[:offset], np.zeros(offset))
    assert np.array_equal(layout.costs[offset:], network.costs())


def test_shortest_path_invariant_random_tolls():
    """For any nonnegative tolls, the lower-level optimal value of the
    published single-commodity program equals the shortest 1 -> 5
    distance under the tolled arc costs."""
    ps = preset("network1")
    network = ps.network
    rng = np.random.default_rng(0)
    node_index = {v: i for i, v in enumerate(network.nodes)}
    for _ in range(3):
        x = network.costs().copy()
        for a in ps.layout.tolled:
            x[a] += rng.uniform(0.0, 10.0)
        graph = np.zeros((5, 5))
        for (tail, head, _), w in zip(network.arcs, x):
            graph[node_index[tail], node_index[head]] = w + 1e-12
        dist = dijkstra(csr_matrix(graph), indices=node_index[1])
        val, _ = lower_level_argmin(ps.problem.A, ps.problem.b, x)
        assert val == pytest.approx(dist[node_index[5]], abs=1e-7)


def test_has_path():
    network = preset("network1").network
    assert network.has_path(1, 5)
    assert not network.has_path(5, 1)
