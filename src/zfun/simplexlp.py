"""Primal simplex for network linear programs in inequality form.

Solves   max c.x   subject to   A x <= b,  x >= 0,   with b >= 0 entrywise,
so the all-slack basis is feasible and no phase-one is needed.  Each row of
``A`` is an index pair: ``(i, j)`` for ``x_i - x_j`` and ``(i, None)`` for
``x_i``, the rows of the Kantorovich dual.  Pivoting uses Bland's rule
(smallest eligible column; ratio ties broken by smallest basic variable),
which is deterministic and provably cycle-free.

Such an ``A`` is the transpose of a node-arc incidence matrix with the root
row dropped, so ``[A I]`` is totally unimodular: every basis inverse, and
with it every tableau entry outside the objective row and the right-hand
side, stays 0 or ±1 (Schrijver, *Theory of Linear and Integer Programming*,
1986, ch. 19).  Every pivot is therefore 1, the ratio of an eligible row is
its right-hand side, and a pivot only adds or subtracts the pivot row.  Exact
mode scales the right-hand side and the objective to integers, each by one
positive common multiple, and pivots on Python ``int``s with threshold ``0``;
float mode pivots on the floats as given with ``Mode.pivot_eps``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import truediv
from typing import Optional, Sequence

from .errors import BadParameters, SolverFailure
from .numbers import EXACT, Mode, Num, scaled

MAX_PIVOTS = 100_000


def solve_inequality_lp(
    c: Sequence[Num],
    rows: Sequence[tuple[int, Optional[int]]],
    b: Sequence[Num],
    mode: Mode = EXACT,
) -> tuple[Num, list[Num]]:
    """Optimal value and one optimal vertex of ``max c.x : Ax <= b, x >= 0``.

    ``c`` and ``b`` hold numbers of ``mode``, and ``rows`` the index pairs
    of ``A``.  Requires ``b >= 0``.  Raises :class:`SolverFailure` if the
    program is unbounded or the pivot budget is exhausted (neither can occur
    for the bounded programs built by this package).
    """
    n, m = len(c), len(rows)
    eps = mode.pivot_eps
    if any(bi < -eps for bi in b):
        raise BadParameters("right-hand side must be nonnegative")
    cost = [-v for v in c]
    if mode.is_exact:
        b, scale_b = scaled(b)
        cost, scale_c = scaled(cost)
        zero, eps, unscale = 0, 0, Fraction
    else:
        zero, scale_b, scale_c, unscale = 0.0, 1, 1, truediv
    tab = []
    for r, (i, j) in enumerate(rows):
        row = [0] * (n + m) + [b[r]]
        row[i] = row[n + r] = 1
        if j is not None:
            row[j] = -1
        tab.append(row)
    tab.append(cost + [zero] * (m + 1))
    basis = list(range(n, n + m))
    for _ in range(MAX_PIVOTS):
        enter = next((j for j in range(n + m) if tab[m][j] < -eps), -1)
        if enter < 0:
            value = {var: row[-1] for var, row in zip(basis, tab)}
            x = [unscale(value.get(j, zero), scale_b) for j in range(n)]
            return unscale(tab[m][-1], scale_b * scale_c), x
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
