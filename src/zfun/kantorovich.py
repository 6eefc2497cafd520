"""Kantorovich distance between probability measures, with dual certificates.

Two genuinely independent routes compute the same number:

* :func:`kantorovich_dual` — the defining supremum of integral differences
  over 1-Lipschitz potentials, solved as a linear program over the Lipschitz
  polytope (base point pinned to zero) by the exact simplex in
  :mod:`zfun.simplexlp`;
* :func:`kantorovich_primal` — the least transport cost, solved by a
  transportation simplex on the support of the two measures (northwest-corner
  start, deterministic Bland-style pivoting, and potentials on a basis tree
  kept across pivots: each pivot re-hangs one subtree and recomputes only
  its potentials).

In exact mode both are exact optima of dual linear programs, so
:func:`duality_gap` is exactly zero.  :func:`_kernel_numbers` hands both
kernels Python ``int``s there (the space's lattice and the weights scaled by
one common multiple), and the floats as given in float mode; each route
divides its results back once.  Both matrices are totally unimodular, so
integer data keep every vertex, flow and potential an integer without any
division.  The two routes share no solver code, only those numbers.

The dual keeps a Lipschitz or bound row only for an essential pair, one that
no third point splits, so its program has the rows of the transshipment view
(Ling & Okada 2007; Pele & Werman 2009) and not all (n-1)^2.  Exact mode
tests the split on integers; float mode accepts a split only when it is equal
to within a few ulps of the pair's distance, so a triangle that holds only
within the tolerance keeps its row, and keeps every row when the distances
are too coarse for a few ulps to fit in the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ulp
from operator import add, truediv
from typing import Mapping, Optional, Sequence

from .errors import (
    InfeasibleMass,
    InvalidWeights,
    SolverFailure,
    SpaceMismatch,
)
from .measures import ProbMeasure, integrate
from .numbers import Num, fold_sum, scaled
from .simplexlp import MAX_PIVOTS, solve_inequality_lp
from .spaces import FiniteMetricSpace


@dataclass(frozen=True)
class LipschitzPotential:
    """A 1-Lipschitz function on a space, the dual optimality certificate."""

    space: FiniteMetricSpace
    values: tuple[tuple[str, Num], ...]

    def value(self, label: str) -> Num:
        return dict(self.values)[label]

    def as_dict(self) -> dict[str, Num]:
        return dict(self.values)


def lipschitz_potential(
    space: FiniteMetricSpace, values: Mapping[str, Num]
) -> LipschitzPotential:
    """Validate the 1-Lipschitz property over all pairs and canonicalize.

    The test runs on :func:`_kernel_numbers`: exact mode checks
    ``|f_i - f_j| * s <= d_ij * t`` on the space's lattice ``d / s`` and the
    potential ``f / t`` on one integer scale, float mode the floats times 1.
    """
    mode = space.mode
    missing = [p for p in space.points if p not in values]
    if missing:
        raise InvalidWeights(f"potential not defined at {missing!r}")
    pts = space.points
    d, s, f, t, _, _ = _kernel_numbers(space, [values[p] for p in pts])
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            gap = f[i] - f[j]
            if gap < 0:
                gap = -gap
            if not mode.leq(gap * s, d[i][j] * t):
                raise InvalidWeights(
                    f"potential is not 1-Lipschitz at ({pts[i]!r}, {pts[j]!r})"
                )
    return LipschitzPotential(space, tuple((p, values[p]) for p in pts))


def potential_gap(f: LipschitzPotential, mu: ProbMeasure, nu: ProbMeasure) -> Num:
    """``|∫f dμ − ∫f dν|`` — what any feasible potential certifies as a lower bound."""
    table = f.as_dict()
    total = integrate(table, mu) - integrate(table, nu)
    return -total if total < 0 else total


@dataclass(frozen=True)
class TransportPlan:
    """A coupling of two measures on one space: the primal certificate."""

    source: ProbMeasure
    target: ProbMeasure
    matrix: tuple[tuple[Num, ...], ...]

    def cost(self) -> Num:
        space = self.source.space
        total = 0
        for i in range(len(space.points)):
            for j in range(len(space.points)):
                if self.matrix[i][j] != 0:
                    total += self.matrix[i][j] * space.dist[i][j]
        return total


def transport_plan(
    source: ProbMeasure, target: ProbMeasure, matrix: Sequence[Sequence[Num]]
) -> TransportPlan:
    """Validate marginals (and nonnegativity) of a coupling matrix.

    The test runs on :func:`_kernel_numbers`: exact mode puts the entries and
    both marginals on one integer scale, which keeps every sum and
    comparison, and checks them as ``int``s; float mode checks the floats.
    """
    if source.space != target.space:
        raise SpaceMismatch("a plan couples measures on one space")
    mode = source.space.mode
    pts = source.space.points
    n = len(pts)
    if len(matrix) != n or any(len(row) != n for row in matrix):
        raise InvalidWeights(f"plan matrix must be {n}x{n}")
    rows = tuple(tuple(map(mode.convert, row)) for row in matrix)
    zero, mu, nu = mode.zero, source.as_dict(), target.as_dict()
    entries = [v for row in rows for v in row]
    entries += [mu.get(p, zero) for p in pts] + [nu.get(q, zero) for q in pts]
    _, _, flat, _, _, _ = _kernel_numbers(source.space, entries)
    cells, a, b = flat[: n * n], flat[n * n: n * n + n], flat[n * n + n:]
    # mode.leq(0, v), written out: tolerance 0 on the exact ints
    if not all(0 - v <= mode.tolerance for v in cells):
        raise InvalidWeights("plan entries must be nonnegative")
    for i, p in enumerate(pts):
        if not mode.eq(fold_sum(cells[i * n: i * n + n]), a[i]):
            raise InvalidWeights(f"row marginal at {p!r} does not match the source")
    for j, q in enumerate(pts):
        if not mode.eq(fold_sum(cells[j::n]), b[j]):
            raise InvalidWeights(f"column marginal at {q!r} does not match the target")
    return TransportPlan(source, target, rows)


def _require_shared_space(mu: ProbMeasure, nu: ProbMeasure) -> FiniteMetricSpace:
    if mu.space != nu.space:
        raise SpaceMismatch("both measures must live on the same space")
    return mu.space


# ---------------------------------------------------------------------------
# dual route: LP over the Lipschitz polytope

# ulps of d(i, j) within which a float split of (i, j) counts as equality
_ULP_SLACK = 4


def _kernel_numbers(space: FiniteMetricSpace, weights: Sequence[Num]):
    """``(d, s, w, t, eps, unscale)``: what both kernels run on.

    ``d / s`` is the distance matrix and ``w / t`` the weights; ``eps`` is the
    kernels' zero threshold, and ``unscale(x, k)`` reads back a result on
    scale ``k``.  Exact mode gives the space's lattice, :func:`numbers.scaled`
    weights, ``0`` and ``Fraction``; float mode the floats as given, scales
    ``1``, ``Mode.pivot_eps`` and ``truediv``.  A positive scale keeps every
    comparison, so each kernel pivots as on the unscaled numbers.
    """
    if space.mode.is_exact:
        d, s = space.lattice
        w, t = scaled(weights)
        return d, s, w, t, 0, Fraction
    return space.dist, 1, weights, 1, space.mode.pivot_eps, truediv


def _essential_pairs(space: FiniteMetricSpace, d) -> list[list[bool]]:
    """``keep[i][j]``: no third point splits the ordered pair (i, j) of ``d``.

    Row (i, j) of the dual is ``g_i - g_j <= e(i, j) + d(0, i) - d(0, j)``,
    where ``e`` is ``d`` read with ``d(0, i)`` both ways at the base point
    (the bound row ``g_i <= 2 d(0, i)`` is row (i, 0)).  A point ``k`` splits
    (i, j) when ``e(i, k)`` and ``e(k, j)`` are both shorter than ``e(i, j)``
    and sum to it; rows (i, k) and (k, j) then add up to row (i, j).  Exact
    mode tests the sum on the space's lattice ``int``s, tolerance 0;
    there ``d`` is symmetric and positive off the diagonal, so ``keep`` is
    symmetric and both parts are shorter.

    Float mode accepts a sum within ``_ULP_SLACK`` ulps of ``e(i, j)`` and
    tests the strictness itself.  That slack covers the rounding of exact
    rational distances to floats and is far below the tolerance, so a
    triangle, or an asymmetry, that the validator accepted only within
    ``mode.tolerance`` splits nothing and its row stays.  A split also needs
    rows (i, k) and (k, j) whose right-hand sides are not raised from below
    zero by more than rounding, since a raised row no longer adds up.  Every
    dropped row is thus split into strictly shorter ones, down to kept rows,
    and is implied by them up to a few ulps per split.  When the distances
    are so coarse that those ulps, over a chain of up to ``n`` points, are
    not far below the tolerance, no row is dropped.
    """
    n = len(space.points)
    keep = [[False] * n for _ in range(n)]
    if space.mode.is_exact:
        for i, di in enumerate(d):
            for j in range(i + 1, n):
                # d(i, k) + d(k, j) for every k (d is symmetric); k = i and
                # k = j always give d(i, j) itself
                keep[i][j] = keep[j][i] = list(map(add, di, d[j])).count(di[j]) == 2
        return keep
    # a chain gains a few ulps of the largest distance per split and per row
    # that rounding raised, up to 2n of them, which must fit in the tolerance
    if 4 * n * _ULP_SLACK * ulp(max(map(max, d))) > space.mode.tolerance:
        return [[i != j for j in range(n)] for i in range(n)]
    e = [list(row) for row in d]
    for i in range(1, n):
        e[i][0] = d[0][i]
    cols = [list(col) for col in zip(*e)]
    d0 = d[0]
    # whether row (x, y) is raised by no more than rounding; rows at the base
    # point have right-hand sides 2 d(0, x) and 0
    adds_up = [
        [x == 0 or y == 0 or e[x][y] + d0[x] - d0[y] >= -_ULP_SLACK * ulp(d0[y])
         for y in range(n)]
        for x in range(n)
    ]
    # (i, j) and (j, i) split alike when e is symmetric and every row adds up
    mirror = e == cols and all(map(all, adds_up))
    for i, ei in enumerate(e):
        ai = adds_up[i]
        for j in range(i + 1 if mirror else 0, n):
            if i == j:
                continue
            cj, eij = cols[j], ei[j]
            slack = _ULP_SLACK * ulp(eij)
            # k = i and k = j sum to e(i, j) but are not strictly shorter
            keep[i][j] = not any(
                abs(s - eij) <= slack and ei[k] < eij and cj[k] < eij
                and ai[k] and adds_up[k][j]
                for k, s in enumerate(map(add, ei, cj))
            )
            if mirror:
                keep[j][i] = keep[i][j]
    return keep


def kantorovich_dual(mu: ProbMeasure, nu: ProbMeasure) -> tuple[Num, LipschitzPotential]:
    """Largest integral difference over 1-Lipschitz potentials, with certificate.

    The potential is normalized to vanish at the first point.  Substituting
    ``g_i = f_i + d(x0, xi)`` makes every variable nonnegative and every
    right-hand side nonnegative (triangle inequality), so the slack basis
    starts feasible.  In float mode a triangle may be violated within the
    tolerance, so a right-hand side below zero is raised to zero.

    A Lipschitz row ``g_i - g_j <= ...`` is kept only for an essential pair
    (i, j), and a bound row ``g_i <= 2 d(x0, xi)`` only for an essential pair
    (i, 0) (:func:`_essential_pairs`); kept rows stay in order.  A dropped
    row is the sum of kept ones along a chain of strictly shorter pairs, and
    ``g >= 0`` is the other side of each bound row, so the polytope and the
    optimum are those of the full program.  In float mode the chain may
    exceed the dropped row by a few ulps per split; a triangle or an
    asymmetry that holds only within the tolerance splits nothing, and no
    chain runs through a raised row, so neither drops a row that the kept
    ones do not imply.

    The potential returned is the c-transform ``f'(x_i) = min_j f(x_j) + d(i, j)``
    of the LP's ``f`` on the kernel numbers (McShane 1934; Villani 2009, ch. 5):
    1-Lipschitz up to one sum's rounding, however far float pivots drifted.
    On the exact lattice ``f`` is already 1-Lipschitz, so ``f' = f``.
    """
    space = _require_shared_space(mu, nu)
    pts = space.points
    n = len(pts)
    d, s, w, t, eps, unscale = _kernel_numbers(
        space, [mu.weight(p) - nu.weight(p) for p in pts]
    )
    zero = 0 * eps
    keep = _essential_pairs(space, d)
    c = w[1:]
    rows: list[tuple[int, Optional[int]]] = []
    rhs: list[Num] = []
    # bound rows: g_i <= 2 d(0, i)
    for i in range(1, n):
        if keep[i][0]:
            rows.append((i - 1, None))
            rhs.append(2 * d[0][i])
    # Lipschitz rows: g_i - g_j <= d(i, j) + d(0, i) - d(0, j)
    for i in range(1, n):
        for j in range(1, n):
            if i != j and keep[i][j]:
                rows.append((i - 1, j - 1))
                rhs.append(max(d[i][j] + d[0][i] - d[0][j], zero))
    z, g = solve_inequality_lp(c, rows, rhs, eps)
    shift = fold_sum((c[i - 1] * d[0][i] for i in range(1, n)), zero)
    value = unscale(z - shift, s * t)
    f = [zero] + [g[i - 1] - d[0][i] for i in range(1, n)]
    f = [min(map(add, f, row)) for row in d]  # the c-transform
    certificate = lipschitz_potential(space, {p: unscale(v, s) for p, v in zip(pts, f)})
    return value, certificate


# ---------------------------------------------------------------------------
# primal route: transportation simplex on the supports


def _northwest_corner(supply, demand, eps):
    """The starting basis: its cells, in walk order, are the keys of the flow."""
    m, n = len(supply), len(demand)
    a = list(supply)
    b = list(demand)
    flow: dict[tuple[int, int], Num] = {}
    r = c = 0
    while True:
        t = a[r] if a[r] <= b[c] else b[c]
        flow[(r, c)] = t
        a[r] -= t
        b[c] -= t
        if r == m - 1 and c == n - 1:
            return flow
        if a[r] <= eps and r < m - 1:
            r += 1
        else:
            c += 1


def _hang(node, adj, costs, m, pot, parent, depth):
    """Set parent, depth and potential of every node below ``node``.

    Nodes ``0..m-1`` are the rows and ``m..m+n-1`` the columns, so a cell
    ``(r, c)`` joins nodes ``r`` and ``m + c``.  ``node`` has its own three
    set already; the walk goes down ``adj`` away from ``parent[node]``, and
    each potential is the cell's cost minus its parent's potential.  Returns
    the number of nodes reached, ``node`` included.
    """
    stack = [node]
    reached = 0
    while stack:
        i = stack.pop()
        reached += 1
        up, below, pi = parent[i], depth[i] + 1, pot[i]
        for j in adj[i]:
            if j != up:
                parent[j] = i
                depth[j] = below
                pot[j] = (costs[i][j - m] if i < m else costs[j][i - m]) - pi
                stack.append(j)
    return reached


def _transport_simplex(costs, supply, demand, eps, walk_eps):
    """Optimal flows for the balanced transportation problem (Bland pivoting).

    ``eps`` is the zero threshold of the reduced costs and ``walk_eps`` that
    of the northwest walk; ``0 * walk_eps`` is the zero of the flows and
    potentials.  The keys of the flow dict are the basis cells.

    The basis tree, rooted at row 0, is built once from the northwest
    corner and then kept across pivots (Ahuja, Magnanti & Orlin, *Network
    Flows*, 1993, ch. 11).  The entering cell closes the cycle of its two
    ends' paths up to their lowest common ancestor.  The leaving cell cuts
    off the subtree below its lower end; that subtree is re-hung from the
    end of the entering cell inside it, and only its parents, depths and
    potentials are recomputed.  Every potential is still the cost minus
    the parent's potential along the one path from row 0, so float
    potentials, and with them every pivot, are those of a walk of the whole
    tree before each pivot.
    """
    m, n = len(supply), len(demand)
    zero = 0 * walk_eps
    flow = _northwest_corner(supply, demand, walk_eps)
    adj: list[list[int]] = [[] for _ in range(m + n)]
    for r, c in flow:
        adj[r].append(m + c)
        adj[m + c].append(r)
    pot: list[Num] = [zero] * (m + n)
    parent = [-1] * (m + n)
    depth = [0] * (m + n)
    # the northwest cells form a staircase path, so the walk ends; it
    # reaches every node only when they span
    if _hang(0, adj, costs, m, pot, parent, depth) != m + n:
        raise SolverFailure("transport basis is not a spanning tree")
    for _ in range(MAX_PIVOTS):
        col_pot = pot[m:]
        entering = next(
            (
                (r, c)
                for r in range(m)
                for c, pc in enumerate(col_pot)
                if costs[r][c] - pot[r] - pc < -eps and (r, c) not in flow
            ),
            None,
        )
        if entering is None:
            return flow
        # the cycle that entering closes: up from both of its ends, the
        # deeper one first, to their lowest common ancestor
        r0, c0 = entering
        from_col: list[int] = []
        from_row: list[int] = []
        u, v = m + c0, r0
        while u != v:
            if depth[u] >= depth[v]:
                from_col.append(u)
                u = parent[u]
            else:
                from_row.append(v)
                v = parent[v]
        # each node stands for the cell to its parent; the cycle runs from
        # the column end to the row end
        cycle = [entering] + [
            (x, parent[x] - m) if x < m else (parent[x], x - m)
            for x in from_col + from_row[::-1]
        ]
        minus = cycle[1::2]
        theta = min(flow[cell] for cell in minus)
        leaving = min(cell for cell in minus if flow[cell] == theta)
        flow[entering] = zero
        for i, cell in enumerate(cycle):
            if i % 2 == 0:
                flow[cell] = flow[cell] + theta
            else:
                flow[cell] = flow[cell] - theta
        del flow[leaving]
        # cut below the leaving cell and re-hang that subtree from the end
        # of the entering cell inside it
        rl, cl = leaving
        child = rl if parent[rl] == m + cl else m + cl
        if child in from_col:
            inner, outer = m + c0, r0
        elif child in from_row:
            inner, outer = r0, m + c0
        else:
            raise SolverFailure("transport basis is not a spanning tree")
        adj[rl].remove(m + cl)
        adj[m + cl].remove(rl)
        adj[r0].append(m + c0)
        adj[m + c0].append(r0)
        parent[inner] = outer
        depth[inner] = depth[outer] + 1
        pot[inner] = costs[r0][c0] - pot[outer]
        _hang(inner, adj, costs, m, pot, parent, depth)
    raise SolverFailure("pivot budget exhausted")


def kantorovich_primal(mu: ProbMeasure, nu: ProbMeasure) -> tuple[Num, TransportPlan]:
    """Least transport cost between two measures, with an optimal plan.

    Solved on the supports only; the returned plan matrix is indexed by the
    full point set (zero rows/columns off-support).

    One path serves both modes, on the numbers of :func:`_kernel_numbers`.
    On the exact lattice, threshold ``0`` keeps every flow and potential an
    integer, and a positive scale keeps every Bland choice, so the plan is
    the one the simplex finds on the ``Fraction``s.  Reduced costs are
    compared against the threshold times the largest cost (at least one):
    float rounding noise grows with the costs, and a fixed threshold let
    Bland's rule cycle at large distances.  The northwest walk keeps the
    plain threshold, as its weights sum to one.  A float flow below zero is
    simplex dust and reads as ``0.0``.
    """
    space = _require_shared_space(mu, nu)
    mode = space.mode
    total_mu = fold_sum((w for _, w in mu.weights), mode.zero)
    total_nu = fold_sum((w for _, w in nu.weights), mode.zero)
    if not mode.eq(total_mu, total_nu):
        raise InfeasibleMass(f"totals differ: {total_mu} vs {total_nu}")
    src = [space.index(p) for p, _ in mu.weights]
    snk = [space.index(q) for q, _ in nu.weights]
    d, s, w, t, eps, unscale = _kernel_numbers(
        space, [v for _, v in mu.weights + nu.weights]
    )
    zero = 0 * eps
    costs = [[d[i][j] for j in snk] for i in src]
    flow = _transport_simplex(
        costs, w[: len(src)], w[len(src):], eps * max(1, max(map(max, costs))), eps
    )
    matrix = [[mode.zero] * len(space.points) for _ in space.points]
    total = zero
    for (r, c), amount in flow.items():
        amount = max(zero, amount)
        matrix[src[r]][snk[c]] = unscale(amount, t)
        total += amount * costs[r][c]
    plan = transport_plan(mu, nu, matrix)
    return unscale(total, s * t), plan


# ---------------------------------------------------------------------------
# the metric itself


def kantorovich(mu: ProbMeasure, nu: ProbMeasure) -> Num:
    """The Kantorovich distance (computed by the defining dual route)."""
    value, _ = kantorovich_dual(mu, nu)
    return value


def duality_gap(mu: ProbMeasure, nu: ProbMeasure) -> Num:
    """Primal minus dual optimum: exactly zero in exact mode."""
    primal, _ = kantorovich_primal(mu, nu)
    dual, _ = kantorovich_dual(mu, nu)
    return primal - dual
