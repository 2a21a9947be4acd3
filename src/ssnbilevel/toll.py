"""Toll-pricing front end: build bilevel instances from road networks.

A road authority prices a subset of arcs; network users route their
demand at minimal travel cost.  With the change of variables
x_a = c_a + T_a (arc cost plus toll) the problem becomes a simple
bilevel program: the lower level is the users' routing LP min x^T y
over flow-conservation constraints, and the upper level maximizes toll
revenue sum (x_a - c_a) y_a subject to box constraints pinning the
untolled components of x to their fixed costs.

Two preset instances ship with the package (a 5-node single-commodity
network and a 6-node two-commodity network); they are encoded exactly
as the explicit programs they are known by, which occasionally deviate
from a mechanical incidence derivation (see the preset docstrings).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from .newton import default_start
from .problem import BilevelProblem, PenaltyParams, quadratic_objective


class NoPathError(ValueError):
    """Raised when an origin-destination pair has no directed path."""


class InconsistencyError(ValueError):
    """Raised when a candidate x violates a pinned component."""


@dataclass
class TollNetwork:
    """Directed road network with a tolled arc subset.

    arcs are (tail, head, cost) triples; tolled lists arc indices
    (0-based) owned by the authority; toll_lb maps tolled arc index to
    the lower toll bound l_a (default 0); od_pairs are
    (origin, destination, demand) triples.
    """

    nodes: list
    arcs: list
    tolled: tuple
    od_pairs: list
    toll_lb: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(set(self.tolled)) != len(self.tolled):
            raise ValueError(f"tolled indices repeat: {self.tolled}")
        self.tolled = tuple(sorted(self.tolled))
        node_set = set(self.nodes)
        for i, (tail, head, cost) in enumerate(self.arcs):
            if tail == head:
                raise ValueError(f"arc {i}: tail equals head ({tail})")
            if tail not in node_set or head not in node_set:
                raise ValueError(f"arc {i}: endpoint not a declared node")
            if not 0 <= cost < np.inf:
                raise ValueError(f"arc {i}: cost {cost} not finite and >= 0")
        if not all(np.isfinite(lb) for lb in self.toll_lb.values()
                   if lb is not None):
            raise ValueError(f"toll_lb not finite: {self.toll_lb}")
        for a in self.tolled:
            if not 0 <= a < len(self.arcs):
                raise ValueError(f"tolled index {a} out of range")
        for (o, dst, dem) in self.od_pairs:
            if o not in node_set or dst not in node_set:
                raise ValueError(f"od pair ({o},{dst}): unknown node")
            if not 0 < dem < np.inf:
                raise ValueError(f"od pair ({o},{dst}): demand {dem} not "
                                 "finite and > 0")

    @property
    def n_arcs(self):
        return len(self.arcs)

    def costs(self):
        return np.array([c for (_, _, c) in self.arcs], float)

    def has_path(self, origin, dest):
        out = {}
        for tail, head, _ in self.arcs:
            out.setdefault(tail, []).append(head)
        seen = {origin}
        queue = deque([origin])
        while queue:
            v = queue.popleft()
            if v == dest:
                return True
            for w in out.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return False


@dataclass
class VariableLayout:
    """Bookkeeping for the stacked flow/price variable.

    costs[i] is the base travel cost of component i, tolled the
    components the authority prices, links pairs of components forced
    equal, toll_lb the per-component lower toll bound.  Components not
    in tolled are pinned to costs[i] by the upper constraints.
    """

    n_vars: int
    costs: np.ndarray
    tolled: tuple
    links: tuple = ()
    toll_lb: dict = field(default_factory=dict)

    def __post_init__(self):
        self.costs = np.asarray(self.costs, float).ravel()
        self.tolled = tuple(sorted(self.tolled))

    @property
    def pinned(self):
        return tuple(i for i in range(self.n_vars) if i not in self.tolled)


def build_incidence(network: TollNetwork, od_pair):
    """Node-arc incidence system of one commodity, destination row
    dropped.

    Row per node (except the destination): +1 for arcs leaving the
    node, -1 for arcs entering.  Right-hand side carries the demand at
    the origin row.  The destination row is redundant (column sums of
    the full incidence matrix vanish) and is always the one omitted.
    """
    origin, dest, demand = od_pair
    if not network.has_path(origin, dest):
        raise NoPathError(f"no directed path from {origin} to {dest}")
    rows = [v for v in network.nodes if v != dest]
    A = np.zeros((len(rows), network.n_arcs))
    b = np.zeros(len(rows))
    index = {v: i for i, v in enumerate(rows)}
    for col, (tail, head, _) in enumerate(network.arcs):
        if tail in index:
            A[index[tail], col] += 1.0
        if head in index:
            A[index[head], col] -= 1.0
    b[index[origin]] = float(demand)
    return A, b


def assemble_lower_level(network: TollNetwork):
    """Equality system of the users' routing LP plus the variable layout.

    General case: one flow copy per commodity, each over every arc and
    carrying its own demand on the right-hand side, followed by the
    aggregate flow y_a = sum_od y^od_a,

        A_eq = [[blockdiag(B_1, ..., B_M), 0], [I ... I, -I]],

    with B_k the incidence block of commodity k.  A single commodity
    with unit demand collapses to the aggregate variables alone, since
    the per-commodity copy would be identical.
    """
    M = len(network.od_pairs)
    if M == 0:
        raise ValueError("need at least one od pair")
    n_arcs = network.n_arcs

    if M == 1 and network.od_pairs[0][2] == 1:
        A_eq, b_eq = build_incidence(network, network.od_pairs[0])
        layout = VariableLayout(
            n_vars=n_arcs, costs=network.costs(), tolled=network.tolled,
            toll_lb=dict(network.toll_lb))
        return A_eq, b_eq, layout

    blocks, rhs = zip(*(build_incidence(network, od)
                        for od in network.od_pairs))
    eye = np.eye(n_arcs)
    copies = block_diag(*blocks)
    # 0.0 - eye rather than -eye: the zeros of the coupling stay +0.0
    A_eq = np.block([[copies, np.zeros((copies.shape[0], n_arcs))],
                     [np.hstack([eye] * M), 0.0 - eye]])
    b_eq = np.concatenate([*rhs, np.zeros(n_arcs)])

    agg = M * n_arcs  # offset of the aggregate flow
    layout = VariableLayout(
        n_vars=agg + n_arcs,
        costs=np.concatenate([np.zeros(agg), network.costs()]),
        tolled=tuple(agg + a for a in network.tolled),
        toll_lb={agg + a: v for a, v in network.toll_lb.items()})
    return A_eq, b_eq, layout


def to_inequality_form(A_eq, b_eq):
    """Rewrite {A_eq y = b_eq, y >= 0} as A y <= b."""
    A_eq = np.atleast_2d(np.asarray(A_eq, float))
    b_eq = np.asarray(b_eq, float).ravel()
    n = A_eq.shape[1]
    A = np.vstack([A_eq, -A_eq, -np.eye(n)])
    b = np.concatenate([b_eq, -b_eq, np.zeros(n)])
    return A, b


def build_upper_constraints(layout: VariableLayout):
    """Price-variable constraints D x <= d.

    Tolled components get one lower-bound row x_a >= l_a + c_a (rows
    come first, in component order); every other component is pinned to
    its base cost by an equality split; linked components (shared tolls)
    contribute an equality split as well.  A toll_lb entry of None
    leaves the component unbounded below (no row emitted).
    """
    rows, rhs = [], []
    n = layout.n_vars
    for i in layout.tolled:
        lb = layout.toll_lb.get(i, 0.0)
        if lb is None:
            continue
        e = np.zeros(n)
        e[i] = -1.0
        rows.append(e)
        rhs.append(-(lb + layout.costs[i]))
    for i in layout.pinned:
        e = np.zeros(n)
        e[i] = 1.0
        rows.append(e)
        rhs.append(layout.costs[i])
        rows.append(-e)
        rhs.append(-layout.costs[i])
    for (i, j) in layout.links:
        e = np.zeros(n)
        e[i], e[j] = 1.0, -1.0
        rows.append(e)
        rhs.append(0.0)
        rows.append(-e)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def make_objective(layout: VariableLayout):
    """Negative toll revenue F(x, y) = -sum_tolled (x_a - c_a) y_a.

    Bilinear: the only nonzero second derivatives are the mixed ones,
    -1 on the tolled diagonal pairs.
    """
    n = layout.n_vars
    Qxy = np.zeros((n, n))
    ky = np.zeros(n)
    for i in layout.tolled:
        Qxy[i, i] = -1.0
        ky[i] = layout.costs[i]
    return quadratic_objective(Qxy=Qxy, ky=ky, n=n)


def recover_tolls(x, layout: VariableLayout, tol=1e-6):
    """Map a price vector back to tolls T_a = x_a - c_a on the tolled
    components, checking that the pinned components were respected."""
    x = np.asarray(x, float).ravel()
    for i in layout.pinned:
        if abs(x[i] - layout.costs[i]) > tol:
            raise InconsistencyError(
                f"component x{i + 1} is pinned to "
                f"{layout.costs[i]} but has value {x[i]}")
    return {i: float(x[i] - layout.costs[i]) for i in layout.tolled}


def revenue(x, y, layout: VariableLayout):
    """Toll revenue sum (x_a - c_a) y_a over the tolled components."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    return float(sum((x[i] - layout.costs[i]) * y[i] for i in layout.tolled))


@dataclass
class Preset:
    """A ready-to-solve benchmark instance."""

    name: str
    network: TollNetwork
    problem: BilevelProblem
    layout: VariableLayout
    params: PenaltyParams
    start: object  # IterateU
    x0: np.ndarray
    y0: np.ndarray


def _network1():
    # 5 nodes, 8 arcs, single commodity from node 1 to node 5
    arcs = [(1, 2, 2.0), (1, 3, 6.0), (1, 5, 5.0), (2, 3, 0.0),
            (2, 4, 4.0), (3, 4, 2.0), (3, 5, 6.0), (4, 5, 0.0)]
    return TollNetwork(nodes=[1, 2, 3, 4, 5], arcs=arcs, tolled=(2, 3, 7),
                       od_pairs=[(1, 5, 1.0)])


def _network2():
    # 6 nodes, 7 arcs, commodities (1 -> 2) and (5 -> 6) sharing arc 3
    arcs = [(1, 2, 8.0), (1, 3, 2.0), (4, 2, 1.0), (3, 4, 0.0),
            (5, 3, 3.0), (4, 6, 1.0), (5, 6, 6.0)]
    return TollNetwork(nodes=[1, 2, 3, 4, 5, 6], arcs=arcs, tolled=(3,),
                       od_pairs=[(1, 2, 1.0), (5, 6, 1.0)])


def preset(name):
    """Benchmark instances encoded exactly as their explicit programs.

    'network1': single commodity, flows y1..y8, priced components
    {3, 4, 8} (1-based), all five conservation rows kept as printed
    (including the redundant destination balance y3 + y7 + y8 = 1).
    'network2': two commodities over the reduced useful-path variables
    y1..y8, where y8 and y4 are the two commodities' flows on the one
    tolled road; their price copies are linked by x4 = x8.
    """
    if name == "network1":
        network = _network1()
        eq = np.array([
            [1, 1, 1, 0, 0, 0, 0, 0],   # flow out of the origin
            [0, 0, 1, 0, 0, 0, 1, 1],   # flow into the destination
            [-1, 0, 0, 1, 1, 0, 0, 0],  # node 2 balance
            [0, -1, 0, -1, 0, 1, 1, 0],  # node 3 balance
            [0, 0, 0, 0, -1, -1, 0, 1],  # node 4 balance
        ], float)
        beq = np.array([1.0, 1.0, 0.0, 0.0, 0.0])
        layout = VariableLayout(
            n_vars=8, costs=network.costs(), tolled=(2, 3, 7))
        x0 = np.array([2, 6, 5, 5, 4, 2, 6, 5], float)
        y0 = np.array([0, 1, 0, 0, 0, 1, 0, 0], float)
        alpha = 0.45
    elif name == "network2":
        network = _network2()
        # reduced variables: y1 = direct 1->2, (y2, y3, y8) the tolled
        # path of commodity 1, y7 = direct 5->6, (y5, y6, y4) the tolled
        # path of commodity 2; printed chains tie y2=y3=y4 and y5=y6=y8
        eq = np.array([
            [1, 1, 0, 0, 0, 0, 0, 0],    # y1 + y2 = 1
            [0, 0, 0, 0, 1, 0, 1, 0],    # y5 + y7 = 1
            [0, 1, -1, 0, 0, 0, 0, 0],   # y2 = y3
            [0, 0, 1, -1, 0, 0, 0, 0],   # y3 = y4
            [0, 0, 0, 0, 1, -1, 0, 0],   # y5 = y6
            [0, 0, 0, 0, 0, 1, 0, -1],   # y6 = y8
        ], float)
        beq = np.array([1.0, 1.0, 0.0, 0.0, 0.0, 0.0])
        # the printed program leaves the linked tolls unbounded below
        layout = VariableLayout(
            n_vars=8, costs=np.array([8, 2, 1, 0, 3, 1, 6, 0], float),
            tolled=(3, 7), links=((3, 7),), toll_lb={3: None, 7: None})
        x0 = np.array([8, 2, 1, 0, 3, 1, 6, 0], float)
        y0 = np.zeros(8)
        alpha = 4.791
    else:
        raise ValueError(f"unknown preset {name!r}")

    A, b = to_inequality_form(eq, beq)
    D, d = build_upper_constraints(layout)
    objective = make_objective(layout)
    problem = BilevelProblem(D=D, d=d, A=A, b=b, objective=objective)
    params = PenaltyParams(alpha=alpha)
    start = default_start(problem, x0, y0)
    return Preset(name=name, network=network, problem=problem, layout=layout,
                  params=params, start=start, x0=x0, y0=y0)


def build_problem(network: TollNetwork):
    """Generic pipeline: network -> BilevelProblem (plus the layout)."""
    A_eq, b_eq, layout = assemble_lower_level(network)
    A, b = to_inequality_form(A_eq, b_eq)
    D, d = build_upper_constraints(layout)
    objective = make_objective(layout)
    problem = BilevelProblem(D=D, d=d, A=A, b=b, objective=objective)
    return problem, layout
