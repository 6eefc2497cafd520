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
its right-hand side, and a pivot only adds or subtracts the pivot row.  The
kernel pivots on the numbers it is given: ``int``s or ``Fraction``s with
threshold ``0`` (:mod:`zfun.kantorovich` hands it the space's lattice), and
floats with ``Mode.pivot_eps``.

The tableau ``B⁻¹[A I]`` of a network basis follows paths of the basis tree,
so its rows are mostly zero (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
ch. 11).  Each constraint row is a dict holding only its ±1 entries, with
the right-hand sides in a separate list; the objective row stays dense.  A
pivot visits the rows with a nonzero in the entering column and changes each
only at the pivot row's nonzeros, so it costs the touched rows times the
pivot row's nonzeros, not the touched rows times the tableau's width.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import BadParameters, SolverFailure
from .numbers import Num

MAX_PIVOTS = 100_000


def solve_inequality_lp(
    c: Sequence[Num],
    rows: Sequence[tuple[int, Optional[int]]],
    b: Sequence[Num],
    eps: Num,
) -> tuple[Num, list[Num]]:
    """Optimal value and one optimal vertex of ``max c.x : Ax <= b, x >= 0``.

    ``c`` and ``b`` hold numbers of one kind, ``rows`` the index pairs of
    ``A``, and ``eps`` the zero threshold: ``0`` for ``int``s and
    ``Fraction``s, ``Mode.pivot_eps`` for floats.  The results are numbers
    of that kind.  Requires ``b >= 0``.  Raises :class:`SolverFailure` if
    the program is unbounded or the pivot budget is exhausted (neither can
    occur for the bounded programs built by this package).
    """
    n, m = len(c), len(rows)
    if any(bi < -eps for bi in b):
        raise BadParameters("right-hand side must be nonnegative")
    zero = 0 * eps
    # constraint rows hold only their nonzero entries, all of them ±1
    tab = []
    for r, (i, j) in enumerate(rows):
        row = {i: 1, n + r: 1}
        if j is not None:
            row[j] = -1
        tab.append(row)
    rhs = list(b)
    obj, z = [-v for v in c] + [zero] * m, zero
    basis = list(range(n, n + m))
    for _ in range(MAX_PIVOTS):
        enter = next((j for j, v in enumerate(obj) if v < -eps), -1)
        if enter < 0:
            value = dict(zip(basis, rhs))
            return z, [value.get(j, zero) for j in range(n)]
        touched = [i for i, row in enumerate(tab) if enter in row]
        # every eligible entry is 1, so the ratio is the right-hand side
        leave = min(
            (i for i in touched if tab[i][enter] > 0),
            key=lambda i: (rhs[i], basis[i]),
            default=-1,
        )
        if leave < 0:
            raise SolverFailure("linear program is unbounded")
        prow, q = tab[leave], rhs[leave]
        for i in touched:
            if i != leave:
                row, f = tab[i], tab[i][enter]
                for k, p in prow.items():
                    v = row.get(k, 0) - f * p
                    if v:
                        row[k] = v
                    else:
                        del row[k]
                rhs[i] = rhs[i] - f * q
        f = obj[enter]
        for k, p in prow.items():
            obj[k] = obj[k] - f * p
        z = z - f * q
        basis[leave] = enter
    raise SolverFailure("pivot budget exhausted")
