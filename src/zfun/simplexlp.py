"""Primal simplex for inequality-form linear programs.

Solves   max c.x   subject to   A x <= b,  x >= 0,   with b >= 0 entrywise,
so the all-slack basis is feasible and no phase-one is needed.  Pivoting uses
Bland's rule (smallest eligible column; ratio ties broken by smallest basic
variable), which is deterministic and provably cycle-free.

One pivot loop serves both modes (Edmonds 1967; Bareiss 1968).  A pivot ``p``
turns every other entry ``v`` into ``(v*p - f*q) div D``, a division by the
previous pivot ``D``, so the tableau is ``D`` times the rational one.  Exact
mode first scales the rows of ``A``, the right-hand side column and ``c`` to
integers; ``div`` is then an exact ``//`` and the thresholds are ``0``.
Positive scalings keep Bland's pivots and vertex.  Float mode runs on the
floats as given, with ``/`` and the threshold ``Mode.pivot_eps``.

When ``p == D == 1`` the update is plain ``v - f*q``.  On a network matrix
such as the Kantorovich dual's ``[I; e_i - e_j]`` every pivot is 1, so this is
the dual's only update: it saves a product and a division per entry (the
Bareiss form alone made float pivots 1.4× slower at n = 14–20), and in float
mode it repeats the divide-by-the-pivot tableau's operations bit for bit.
"""

from __future__ import annotations

from fractions import Fraction
from operator import floordiv, truediv
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
    n, m = len(c), len(rows)
    eps = mode.pivot_eps
    b = [mode.convert(v) for v in b]
    if any(bi < -eps for bi in b):
        raise BadParameters("right-hand side must be nonnegative")
    if any(len(row) != n for row in rows):
        raise BadParameters("constraint rows must match the objective length")
    rows = [[mode.convert(v) for v in row] for row in rows]
    cost = [-mode.convert(v) for v in c]
    if mode.is_exact:
        scaled_rows = [scaled(row) for row in rows]
        rows = [row for row, _ in scaled_rows]
        b, scale_b = scaled([s * v for (_, s), v in zip(scaled_rows, b)])
        cost, scale_c = scaled(cost)
        zero, one, eps, div, unscale = 0, 1, 0, floordiv, Fraction
    else:
        zero, one, scale_b, scale_c, div, unscale = 0.0, 1.0, 1, 1, truediv, truediv
    tab = [row + [one if j == i else zero for j in range(m)] + [b[i]] for i, row in enumerate(rows)]
    tab.append(cost + [zero] * (m + 1))
    basis = list(range(n, n + m))
    D = 1  # the last pivot
    for _ in range(MAX_PIVOTS):
        enter = next((j for j in range(n + m) if tab[m][j] < -eps), -1)
        if enter < 0:
            value = {var: row[-1] for var, row in zip(basis, tab)}
            x = [unscale(value.get(j, zero), D * scale_b) for j in range(n)]
            return unscale(tab[m][-1], D * scale_b * scale_c), x
        # ratio test by cross-multiplication; the best ratio so far is top / p
        leave, top, p = -1, zero, zero
        for i in range(m):
            a = tab[i][enter]
            if a > eps:
                here, best = tab[i][-1] * p, top * a
                if leave < 0 or here < best or (here == best and basis[i] < basis[leave]):
                    leave, top, p = i, tab[i][-1], a
        if leave < 0:
            raise SolverFailure("linear program is unbounded")
        unit, prow = p == D == 1, tab[leave]
        for i in range(m + 1):
            f = tab[i][enter]
            if i == leave or not (f or p != D):
                continue
            if unit:
                tab[i] = [v - f * q for v, q in zip(tab[i], prow)]
            else:
                tab[i] = [div(v * p - f * q, D) for v, q in zip(tab[i], prow)]
        D = p
        basis[leave] = enter
    raise SolverFailure("pivot budget exhausted")
