"""Per-layer tracing of zfun from outside the package.

Each traced function is replaced, in every ``zfun`` module that holds it as an
attribute, by a wrapper that records a span (function, start, end, parent) in
memory.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall` puts the
original objects back, so untraced runs execute the unmodified code.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) pairs whose spans are recorded, in report order.
TRACED = (
    ("simplexlp", "solve_inequality_lp"),
    ("kantorovich", "kantorovich_dual"),
    ("kantorovich", "kantorovich_primal"),
    ("kantorovich", "lipschitz_potential"),
    ("kantorovich", "transport_plan"),
    ("spaces", "validate_space"),
    ("spaces", "metric_violations"),
    ("spaces", "glue_space"),
    ("generate", "random_space"),
    ("generate", "random_measure"),
    ("measures", "prob_measure"),
    ("measures", "pushforward"),
    ("scheme", "build_finite_fixture"),
    ("scheme", "extend_map"),
    ("scheme", "extend_metric"),
    ("stepspace", "step_function"),
    ("stepspace", "integral_metric"),
    ("fileio", "load_measure"),
    ("fileio", "dump_json"),
    ("cli", "main"),
)
NAMES = tuple(f"{mod}.{fn}" for mod, fn in TRACED)


def _tableau_cells(args, kwargs) -> int:
    # solve_inequality_lp(c, rows, b, ...): (rows+1) x (cols+rows+1) tableau
    c = kwargs["c"] if "c" in kwargs else args[0]
    rows = kwargs["rows"] if "rows" in kwargs else args[1]
    return (len(rows) + 1) * (len(c) + len(rows) + 1)


def _triples(args, kwargs) -> int:
    # metric_violations(points, dist, ...) scans every ordered triple
    n = len(kwargs["points"] if "points" in kwargs else args[0])
    return n * (n - 1) * (n - 2)


# work counts derived from call arguments: function -> (count name, formula)
WORK_COUNTS = {
    "simplexlp.solve_inequality_lp": ("simplexlp.tableau_cells", _tableau_cells),
    "spaces.metric_violations": ("spaces.triples_scanned", _triples),
}


class Tracer:
    """Wraps the traced functions and keeps every span of one traced unit."""

    def __init__(self):
        self.spans: list[list] = []  # [name index, start, end, parent index]
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, index: int, fn):
        spans, stack, work = self.spans, self._stack, self.work
        count = WORK_COUNTS.get(NAMES[index])
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if count is not None:
                work[count[0]] += count[1](args, kwargs)
            span = [index, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "zfun" or name.startswith("zfun."))]
        for index, (mod, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[f"zfun.{mod}"], fn_name)
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; return those that are not restored."""
        for module, attr, original in self._patched:
            setattr(module, attr, original)
        broken = [f"{module.__name__}.{attr}" for module, attr, original in self._patched
                  if getattr(module, attr) is not original]
        self._patched.clear()
        return broken

    def reset(self) -> None:
        self.spans.clear()
        self.work.clear()

    def summary(self, wall: float) -> tuple[dict, dict, float]:
        """Counts (calls per function and work), self time per function, remainder.

        A span's self time is its duration minus its children's durations.  The
        remainder is ``wall`` minus the time covered by top-level spans; it is
        computed separately so the caller can check that self times and
        remainder add up to the traced wall time.
        """
        calls = Counter()
        self_s = dict.fromkeys(NAMES, 0.0)
        child = [0.0] * len(self.spans)
        covered = 0.0
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
            else:
                covered += end - start
        for span, inner in zip(self.spans, child):
            name = NAMES[span[0]]
            calls[name] += 1
            self_s[name] += span[2] - span[1] - inner
        counts = {f"{name}.calls": calls[name] for name in NAMES}
        counts.update({key: self.work[key] for key, _ in WORK_COUNTS.values()})
        return counts, self_s, wall - covered
