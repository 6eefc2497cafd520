"""Primal simplex for inequality-form linear programs.

Solves   max c.x   subject to   A x <= b,  x >= 0,   with b >= 0 entrywise,
so the all-slack basis is feasible and no phase-one is needed.  Pivoting uses
Bland's rule (smallest eligible column; ratio ties broken by smallest basic
variable), which is deterministic and provably cycle-free.

Exact mode pivots on integers (Edmonds 1967; Bareiss 1968).  The rows of
``A``, the right-hand side column and ``c`` are scaled to integers once, and
a pivot ``p`` turns every other entry ``v`` into ``(v*p - f*q) // D``, an
exact division by the previous pivot ``D``.  Positive scalings keep Bland's
pivots and vertex.  On a network matrix such as the Kantorovich dual's
``[I; e_i - e_j]`` every basis has determinant ±1, so ``D`` stays 1.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BadParameters, SolverFailure
from .numbers import EXACT, Mode, Num, scaled

MAX_PIVOTS = 100_000


def solve_inequality_lp(
    c: Sequence[Num],
    rows: Sequence[Sequence[Num]],
    b: Sequence[Num],
    mode: Mode = EXACT,
) -> tuple[Num, list[Num]]:
    """Optimal value and one optimal vertex of ``max c.x : Ax <= b, x >= 0``.

    Requires ``b >= 0``.  Raises :class:`SolverFailure` if the program is
    unbounded or the pivot budget is exhausted (neither can occur for the
    bounded programs built by this package).
    """
    n = len(c)
    m = len(rows)
    eps = mode.pivot_eps
    zero = mode.zero
    b = [mode.convert(v) for v in b]
    if any(bi < -eps for bi in b):
        raise BadParameters("right-hand side must be nonnegative")
    if any(len(row) != n for row in rows):
        raise BadParameters("constraint rows must match the objective length")
    if mode.is_exact:
        return _solve_integer(c, rows, b)

    # tableau: m constraint rows + objective row; columns: n vars, m slacks, rhs
    width = n + m + 1
    tab: list[list[Num]] = []
    for i in range(m):
        row = [mode.convert(v) for v in rows[i]]
        row += [mode.one if j == i else zero for j in range(m)]
        row.append(b[i])
        tab.append(row)
    obj = [-mode.convert(v) for v in c] + [zero] * m + [zero]
    tab.append(obj)
    basis = list(range(n, n + m))

    for _ in range(MAX_PIVOTS):
        # Bland: entering column = smallest index with a negative objective entry
        enter = -1
        for j in range(n + m):
            if tab[m][j] < -eps:
                enter = j
                break
        if enter < 0:
            x = [zero] * n
            for i, var in enumerate(basis):
                if var < n:
                    x[var] = tab[i][width - 1]
            return tab[m][width - 1], x
        # ratio test; ties -> smallest basic variable (Bland)
        leave = -1
        best: Num | None = None
        for i in range(m):
            a = tab[i][enter]
            if a > eps:
                ratio = tab[i][width - 1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise SolverFailure("linear program is unbounded")
        pivot = tab[leave][enter]
        tab[leave] = [v / pivot for v in tab[leave]]
        for i in range(m + 1):
            if i == leave:
                continue
            factor = tab[i][enter]
            if factor != 0:
                prow = tab[leave]
                tab[i] = [v - factor * p for v, p in zip(tab[i], prow)]
        basis[leave] = enter
    raise SolverFailure("pivot budget exhausted")


def _solve_integer(c, rows, b):
    """The exact simplex on the integer-scaled tableau (see the module notes)."""
    n, m = len(c), len(rows)
    scaled_rows = [scaled([EXACT.convert(v) for v in row]) for row in rows]
    rhs, scale_b = scaled([s * EXACT.convert(v) for (_, s), v in zip(scaled_rows, b)])
    cost, scale_c = scaled([-EXACT.convert(v) for v in c])
    tab = [row + [int(j == i) for j in range(m)] + [rhs[i]] for i, (row, _) in enumerate(scaled_rows)]
    tab.append(cost + [0] * (m + 1))
    basis = list(range(n, n + m))
    D = 1  # the last pivot: the integer tableau is D times the rational one
    for _ in range(MAX_PIVOTS):
        enter = next((j for j in range(n + m) if tab[m][j] < 0), -1)
        if enter < 0:
            value = {var: row[-1] for var, row in zip(basis, tab)}
            x = [Fraction(value.get(j, 0), D * scale_b) for j in range(n)]
            return Fraction(tab[m][-1], D * scale_b * scale_c), x
        # ratio test by cross-multiplication; the best ratio so far is top / p
        leave, top, p = -1, 0, 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                here, best = tab[i][-1] * p, top * a
                if leave < 0 or here < best or (here == best and basis[i] < basis[leave]):
                    leave, top, p = i, tab[i][-1], a
        if leave < 0:
            raise SolverFailure("linear program is unbounded")
        for i in range(m + 1):
            f = tab[i][enter]
            if i != leave and (f or p != D):
                tab[i] = [(v * p - f * q) // D for v, q in zip(tab[i], tab[leave])]
        D = p
        basis[leave] = enter
    raise SolverFailure("pivot budget exhausted")
