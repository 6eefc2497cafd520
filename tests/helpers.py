"""Shared helpers and independent oracles for the test suite.

Everything here re-derives answers from first principles — plain Fraction
arithmetic and exhaustive enumeration — so library results are checked against
code that shares none of the implementation under test.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from zfun import (
    EXACT,
    BadParameters,
    FiniteMetricSpace,
    ProbMeasure,
    SolverFailure,
    metric_map,
    prob_measure,
    validate_space,
)
from zfun.generate import random_measure, random_space, rng_for
from zfun.kantorovich import _northwest_corner
from zfun.simplexlp import solve_inequality_lp


# ---------------------------------------------------------------------------
# frozen example spaces


def space_ab() -> FiniteMetricSpace:
    """Two points at distance 3/2."""
    return validate_space(["a", "b"], [["0", "3/2"], ["3/2", "0"]])


def space_abc() -> FiniteMetricSpace:
    """Three points: d(a,b)=3/2, d(a,c)=1, d(b,c)=1/2."""
    return validate_space(
        ["a", "b", "c"],
        [["0", "3/2", "1"], ["3/2", "0", "1/2"], ["1", "1/2", "0"]],
    )


def space_small_diam() -> FiniteMetricSpace:
    """Two points at distance 1/4 (diameter below one)."""
    return validate_space(["p", "q"], [["0", "1/4"], ["1/4", "0"]])


def space_square() -> FiniteMetricSpace:
    """Four points on a cycle: neighbors at 1, opposite corners at 2."""
    return validate_space(
        ["nw", "ne", "se", "sw"],
        [
            ["0", "1", "2", "1"],
            ["1", "0", "1", "2"],
            ["2", "1", "0", "1"],
            ["1", "2", "1", "0"],
        ],
    )


# ---------------------------------------------------------------------------
# independent metric-axiom scan


def brute_metric_violations(points, dist):
    """Four-axiom scan written independently of the library's validator.

    Returns the set of (axiom, witness-tuple) pairs that fail, comparing
    Fractions exactly.
    """
    d = [[Fraction(str(v)) for v in row] for row in dist]
    n = len(points)
    bad = set()
    for i in range(n):
        if d[i][i] != 0:
            bad.add(("identity", (points[i],)))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                bad.add(("symmetry", (points[i], points[j])))
            if not d[i][j] > 0:
                bad.add(("positivity", (points[i], points[j])))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if len({i, j, k}) < 3:
                    continue
                if d[i][k] > d[i][j] + d[j][k]:
                    bad.add(("triangle", (points[i], points[j], points[k])))
    return bad


def reference_metric_violations(points, dist, mode=EXACT):
    """The axiom scan through :class:`Mode`'s comparisons, value by value.

    The scan :func:`zfun.metric_violations` ran before it moved onto one
    integer lattice, kept as an oracle: the same four axioms in the same
    order, each compared by ``mode.is_zero``/``eq``/``positive``/``leq`` on
    the entries as given.  Returns the list of ``(axiom, witness)`` pairs.
    """
    n = len(points)
    bad = []
    for i in range(n):
        if not mode.is_zero(dist[i][i]):
            bad.append(("identity", (points[i],)))
    for i in range(n):
        for j in range(i + 1, n):
            if not mode.eq(dist[i][j], dist[j][i]):
                bad.append(("symmetry", (points[i], points[j])))
            if not mode.positive(dist[i][j]):
                bad.append(("positivity", (points[i], points[j])))
    for i, j, k in itertools.product(range(n), repeat=3):
        if i == j or j == k or i == k:
            continue
        if not mode.leq(dist[i][k], dist[i][j] + dist[j][k]):
            bad.append(("triangle", (points[i], points[j], points[k])))
    return bad


def reference_shrink(points, matrix, mode=EXACT):
    """The restart loop ``suites.shrink_matrix_violation`` ran before it made
    one ordered pass, kept as an oracle on :func:`reference_metric_violations`:
    drop the first point whose removal leaves a violation, then start over."""
    def violations_of(sub):
        return reference_metric_violations(
            [points[i] for i in sub], [[matrix[i][j] for j in sub] for i in sub], mode)

    current = list(range(len(points)))
    changed = True
    while changed and len(current) > 1:
        changed = False
        for i in current:
            cand = [j for j in current if j != i]
            if violations_of(cand):
                current = cand
                changed = True
                break
    found = violations_of(current)
    return tuple(points[i] for i in current), found[0][0] if found else "none"


# ---------------------------------------------------------------------------
# reference random metric on Fractions


def reference_random_distances(rng, size):
    """The distances ``generate.random_space`` draws, closed on Fractions.

    Draws one ``Fraction(randint(1, 40), randint(1, 8))`` per pair ``i < j``
    in row-major order and runs Floyd–Warshall on the Fraction matrix, as
    the library did before it moved onto integers.
    """
    d = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            d[i][j] = d[j][i] = Fraction(rng.randint(1, 40), rng.randint(1, 8))
    for k in range(size):
        for i in range(size):
            for j in range(size):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return d


# ---------------------------------------------------------------------------
# brute-force optimal transport

def _tree_flows(edges, supply, demand, m):
    """Flows on a spanning tree of the bipartite supply/demand graph.

    Vertices 0..m-1 are sources, m.. are sinks; ``edges`` are (i, j) source-
    sink pairs.  Returns None when the edges do not connect every vertex;
    otherwise peels leaves to obtain the unique balancing flow (which may be
    negative — the caller filters infeasible trees).
    """
    total = m + len(demand)
    incident = {v: set() for v in range(total)}
    for e in edges:
        i, j = e
        incident[i].add(e)
        incident[m + j].add(e)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for (i, j) in incident[v]:
            for w in (i, m + j):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    if len(seen) != total:
        return None

    need = {i: supply[i] for i in range(m)}
    need.update({m + j: demand[j] for j in range(len(demand))})
    flows = {}
    leaves = [v for v in range(total) if len(incident[v]) == 1]
    while leaves:
        v = leaves.pop()
        if not incident[v]:
            continue
        (edge,) = incident[v]
        i, j = edge
        other = m + j if v == i else i
        flows[edge] = need[v]
        need[other] -= need[v]
        need[v] = 0
        incident[v].discard(edge)
        incident[other].discard(edge)
        if len(incident[other]) == 1:
            leaves.append(other)
    return flows


def brute_min_transport_cost(mu: ProbMeasure, nu: ProbMeasure) -> Fraction:
    """Least transport cost by enumerating basic solutions.

    Every vertex of the transportation polytope is carried by a spanning tree
    of the complete bipartite graph over the two supports, so enumerating all
    edge sets of tree size, solving each by leaf peeling, and keeping the
    cheapest nonnegative solution yields the exact optimum.  Only sensible for
    supports of a handful of points.
    """
    space = mu.space
    rows = list(mu.weights)
    cols = list(nu.weights)
    m, n = len(rows), len(cols)
    cost_of = [
        [space.distance(p, q) for q, _ in cols] for p, _ in rows
    ]
    supply = [w for _, w in rows]
    demand = [w for _, w in cols]
    all_edges = [(i, j) for i in range(m) for j in range(n)]
    best = None
    for chosen in itertools.combinations(all_edges, m + n - 1):
        flows = _tree_flows(chosen, supply, demand, m)
        if flows is None or any(v < 0 for v in flows.values()):
            continue
        cost = sum(v * cost_of[i][j] for (i, j), v in flows.items())
        if best is None or cost < best:
            best = cost
    assert best is not None, "transportation polytope cannot be empty"
    return best


def assert_potential_feasible(space, values, slack=Fraction(0)):
    """Manual 1-Lipschitz check: |f(p) - f(q)| <= d(p, q) for all pairs."""
    for p in space.points:
        for q in space.points:
            gap = abs(values[p] - values[q])
            assert gap <= space.distance(p, q) + slack, (p, q, gap)


# Of 300 sparse 12-point draws from ``rng_for(73, "gauge")``, these 18, at
# distances times 10^6 in float mode, leave the dual LP's own potential up to
# 32 ulps of a distance off 1-Lipschitz, more than the tolerance 1e-9.
MILLION_DRAWS = (4, 15, 23, 35, 37, 49, 87, 95, 114, 134, 145, 167, 173, 202, 235, 242,
                 277, 297)


def million_draws():
    """``(draw, mu, nu)`` for each of :data:`MILLION_DRAWS`, exact and unscaled."""
    rng = rng_for(73, "gauge")
    for draw in range(MILLION_DRAWS[-1] + 1):
        space = random_space(rng, 12)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        if draw in MILLION_DRAWS:
            yield draw, mu, nu


def assert_plan_feasible(space, mu, nu, matrix):
    """Manual marginal check for a full-size coupling matrix."""
    n = len(space.points)
    for i, p in enumerate(space.points):
        assert sum(matrix[i]) == mu.weight(p), f"row marginal at {p}"
    for j, q in enumerate(space.points):
        assert sum(matrix[i][j] for i in range(n)) == nu.weight(q), (
            f"column marginal at {q}"
        )
    for row in matrix:
        for v in row:
            assert v >= 0


def reference_potential_verdict(space, values):
    """What ``lipschitz_potential`` raises, as a message, or None: the
    pairwise loop on the values and distances as given, no integer scale."""
    mode = space.mode
    pts = space.points
    missing = [p for p in pts if p not in values]
    if missing:
        return f"potential not defined at {missing!r}"
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = abs(values[pts[i]] - values[pts[j]])
            if not mode.leq(gap, space.dist[i][j]):
                return f"potential is not 1-Lipschitz at ({pts[i]!r}, {pts[j]!r})"
    return None


def reference_plan_verdict(source, target, matrix):
    """What ``transport_plan`` raises on a square matrix, as a message, or
    None: nonnegativity, then row sums, then column sums, each added left to
    right in the space's numbers."""
    mode = source.space.mode
    pts = source.space.points
    rows = [[mode.convert(v) for v in row] for row in matrix]
    if not all(mode.leq(0, v) for row in rows for v in row):
        return "plan entries must be nonnegative"
    for i, p in enumerate(pts):
        total = mode.zero
        for v in rows[i]:
            total = total + v
        if not mode.eq(total, source.weight(p)):
            return f"row marginal at {p!r} does not match the source"
    for j, q in enumerate(pts):
        total = mode.zero
        for row in rows:
            total = total + row[j]
        if not mode.eq(total, target.weight(q)):
            return f"column marginal at {q!r} does not match the target"
    return None


def plan_cost(space, matrix) -> Fraction:
    pts = space.points
    return sum(
        matrix[i][j] * space.distance(pts[i], pts[j])
        for i in range(len(pts))
        for j in range(len(pts))
    )


# ---------------------------------------------------------------------------
# exhaustive enumeration helpers


def compositions(total: int, parts: int):
    """All tuples of ``parts`` nonnegative ints summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in compositions(total - head, parts - 1):
            yield (head,) + rest


def grid_measures(space: FiniteMetricSpace, denominator: int):
    """Every measure with weights in multiples of 1/denominator."""
    pts = space.points
    for combo in compositions(denominator, len(pts)):
        weights = {
            p: Fraction(c, denominator) for p, c in zip(pts, combo) if c
        }
        yield prob_measure(space, weights)


def all_maps(domain: FiniteMetricSpace, codomain: FiniteMetricSpace):
    """Every total map from domain points to codomain points."""
    pts = domain.points
    for targets in itertools.product(codomain.points, repeat=len(pts)):
        yield metric_map(domain, codomain, dict(zip(pts, targets)))


# ---------------------------------------------------------------------------
# reference simplex on a Fraction tableau


def reference_inequality_lp(c, rows, b, max_pivots=100_000):
    """``max c.x : Ax <= b, x >= 0`` by Bland's rule on a plain Fraction tableau.

    The textbook divide-by-the-pivot simplex, kept as an oracle for the exact
    kernel in :mod:`zfun.simplexlp`: same pivot rule, none of its integer
    scaling.  Returns ``(value, vertex)``, or ``None`` when the program is
    unbounded.
    """
    n, m = len(c), len(rows)
    tab = [
        [Fraction(v) for v in rows[i]]
        + [Fraction(int(j == i)) for j in range(m)]
        + [Fraction(b[i])]
        for i in range(m)
    ]
    tab.append([-Fraction(v) for v in c] + [Fraction(0)] * (m + 1))
    basis = list(range(n, n + m))
    for _ in range(max_pivots):
        enter = next((j for j in range(n + m) if tab[m][j] < 0), None)
        if enter is None:
            x = [Fraction(0)] * n
            for i, var in enumerate(basis):
                if var < n:
                    x[var] = tab[i][-1]
            return tab[m][-1], x
        leave, best = None, None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    leave, best = i, ratio
        if leave is None:
            return None
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m + 1):
            factor = tab[i][enter]
            if i != leave and factor != 0:
                tab[i] = [v - factor * p for v, p in zip(tab[i], tab[leave])]
        basis[leave] = enter
    raise AssertionError("pivot budget exhausted")


# ---------------------------------------------------------------------------
# the network LP kernel on a dense tableau


def dense_network_lp(c, rows, b, eps, max_pivots=100_000):
    """:func:`zfun.simplexlp.solve_inequality_lp` as it was on a dense tableau.

    Every row is a list over all variables, slacks and the right-hand side,
    and a pivot rewrites each touched row across its whole width.  The
    numbers as given, the threshold ``eps``, Bland's rule and every
    ``v - f * q`` are the kernel's, so the sparse kernel must return the same
    ``(value, x)`` bit for bit.  Returns ``(value, x, pivots)``; raises
    :class:`SolverFailure` like the kernel.
    """
    n, m = len(c), len(rows)
    if any(bi < -eps for bi in b):
        raise BadParameters("right-hand side must be nonnegative")
    zero = 0 * eps
    tab = []
    for r, (i, j) in enumerate(rows):
        row = [0] * (n + m) + [b[r]]
        row[i] = row[n + r] = 1
        if j is not None:
            row[j] = -1
        tab.append(row)
    tab.append([-v for v in c] + [zero] * (m + 1))
    basis = list(range(n, n + m))
    for pivots in range(max_pivots):
        enter = next((j for j in range(n + m) if tab[m][j] < -eps), -1)
        if enter < 0:
            value = {var: row[-1] for var, row in zip(basis, tab)}
            return tab[m][-1], [value.get(j, zero) for j in range(n)], pivots
        # every eligible entry is 1, so the ratio is the right-hand side
        leave = min(
            (i for i in range(m) if tab[i][enter] > 0),
            key=lambda i: (tab[i][-1], basis[i]),
            default=-1,
        )
        if leave < 0:
            raise SolverFailure("linear program is unbounded")
        prow = tab[leave]
        for i in range(m + 1):
            f = tab[i][enter]
            if f and i != leave:
                tab[i] = [v - f * q for v, q in zip(tab[i], prow)]
        basis[leave] = enter
    raise SolverFailure("pivot budget exhausted")


def assert_kernel_matches_dense(c, rows, b, eps):
    """The kernel returns what :func:`dense_network_lp` returns, bit for bit.

    Values, types and signs of zero must agree, as ``repr`` shows them.
    Returns the kernel's ``(value, x)`` and the dense pivot count; a program
    the dense kernel fails on must fail alike, and the failure is re-raised.
    """
    try:
        *expected, pivots = dense_network_lp(c, rows, b, eps)
    except SolverFailure as failure:
        with pytest.raises(SolverFailure, match=str(failure)):
            solve_inequality_lp(c, rows, b, eps)
        raise
    got = solve_inequality_lp(c, rows, b, eps)
    assert repr(got) == repr(tuple(expected)), (c, rows, b)
    return got, pivots


# ---------------------------------------------------------------------------
# reference transport simplex that rebuilds its basis tree every pivot


def _reference_basis_tree(flow, costs, m, n, zero):
    """Potentials and parent links of the basis tree, walked from row 0.

    Nodes ``0..m-1`` are the rows and ``m..m+n-1`` the columns, so a cell
    ``(r, c)`` joins nodes ``r`` and ``m + c``.  The root's parent is -1.
    """
    adj = [[] for _ in range(m + n)]
    for r, c in flow:
        adj[r].append(m + c)
        adj[m + c].append(r)
    pot = [None] * (m + n)
    parent = [-1] * (m + n)
    pot[0] = zero
    stack = [0]
    while stack:
        i = stack.pop()
        for j in adj[i]:
            if pot[j] is None:
                cost = costs[i][j - m] if i < m else costs[j][i - m]
                pot[j] = cost - pot[i]
                parent[j] = i
                stack.append(j)
    assert all(x is not None for x in pot), "basis is not a spanning tree"
    return pot, parent


def reference_transport_simplex(costs, supply, demand, eps, zero, max_pivots=100_000):
    """The transport simplex that walks the whole basis tree before each pivot.

    The same Bland entering scan, θ, leaving tie-break and flow-dict order
    as :func:`zfun.kantorovich._transport_simplex`, which keeps its tree
    across pivots instead; the plans must agree cell for cell and in dict
    order.  Only the northwest start is the library's own.  Returns ``(flow, degenerate)``, where ``degenerate``
    counts the pivots with θ = 0.
    """
    m, n = len(supply), len(demand)
    flow = _northwest_corner(supply, demand, eps)
    degenerate = 0
    for _ in range(max_pivots):
        pot, parent = _reference_basis_tree(flow, costs, m, n, zero)
        entering = next(
            (
                (r, c)
                for r in range(m)
                for c in range(n)
                if (r, c) not in flow and costs[r][c] - pot[r] - pot[m + c] < -eps
            ),
            None,
        )
        if entering is None:
            return flow, degenerate
        # the cycle that entering closes: up from its column to the lowest
        # common ancestor with its row, then down to the row
        r0, c0 = entering
        up_row = [r0]
        while parent[up_row[-1]] >= 0:
            up_row.append(parent[up_row[-1]])
        up_col = [m + c0]
        while up_col[-1] not in up_row:
            up_col.append(parent[up_col[-1]])
        nodes = up_col + up_row[: up_row.index(up_col[-1])][::-1]
        cycle = [entering] + [
            (a, b - m) if a < m else (b, a - m) for a, b in zip(nodes, nodes[1:])
        ]
        minus = cycle[1::2]
        theta = min(flow[cell] for cell in minus)
        degenerate += theta == 0
        leaving = min(cell for cell in minus if flow[cell] == theta)
        flow[entering] = zero
        for i, cell in enumerate(cycle):
            if i % 2 == 0:
                flow[cell] = flow[cell] + theta
            else:
                flow[cell] = flow[cell] - theta
        del flow[leaving]
    raise AssertionError("pivot budget exhausted")
