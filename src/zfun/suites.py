"""Seeded property-check suites with JSON-serializable reports.

Each suite runs an ordered catalog of named checks, registered with
:func:`check`.  A check draws its own deterministic random stream (derived
from the global seed and the check's stream label), runs a batch of
instances, and collects failure witnesses.  A check that raises stops there
and every record it owns fails with an ``error`` witness; the other checks
still run.  Every record carries one label from the closed tag set below, so
reports can be filtered by the law a record exercises:

=========  ==============================================================
tag        law
=========  ==============================================================
(a)        extension assignment is a functor (identities, compositions)
(b)        extensions restrict to the original map
(c)        injectivity transfers both ways
(d)        image characterization / preimage witnesses round-trip
(e)        surjectivity transfers both ways
(g)        head witnesses avoid subset spaces that miss the head point
(h)        pushforward distances are dominated by sup distances
(i)        metric extension: restriction, diameter, sup-metric isometry
(Λ1)       functor laws of the underlying constructions
(Λ2)       fixture shape (sizes, charts, families)
(Λ3)       naturality with the canonical embeddings
(Λ4)       embeddings and restrictions are isometric
(Λ5)       induced actions on map spaces are isometric
plumbing   infrastructure (validators, solvers, serialization)
=========  ==============================================================

Reports serialize canonically (numbers as strings, fixed key order) and are
byte-reproducible for a fixed seed; wall-clock duration is kept off the
serialized form on purpose.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from . import fileio, generate
from .errors import AxiomViolation, ZfunError
from .kantorovich import (
    kantorovich,
    kantorovich_dual,
    kantorovich_primal,
    lipschitz_potential,
    potential_gap,
    transport_plan,
)
from .measures import (
    convex_combination,
    dirac,
    in_image,
    integrate,
    measures_equal,
    preimage_measure,
    pushforward,
)
from .numbers import EXACT, Mode, fold_sum, format_number as _fmt
from .scheme import (
    _bijections,
    build_finite_fixture,
    check_fixture_sizes,
    decompose_automorphism,
    extend_map,
    extend_metric,
    member_space,
)
from .spaces import (
    FiniteMetricSpace,
    compose,
    default_anchor,
    diameter,
    glue_map,
    glue_space,
    identity_map,
    image,
    is_bijective,
    is_injective,
    is_surjective,
    metric_map,
    metric_violations,
    sup_distance,
    validate_space,
)
from .stepspace import (
    compose_pushforward,
    dirac_const,
    integral_metric,
    phi_n_witness,
    select_preimage,
    step_function,
)

TAGS = (
    "(a)", "(b)", "(c)", "(d)", "(e)", "(g)", "(h)", "(i)",
    "(Λ1)", "(Λ2)", "(Λ3)", "(Λ4)", "(Λ5)",
    "plumbing",
)

SUITE_NAMES = ("metric", "measure", "kantorovich", "scheme", "step")

MAX_WITNESSES = 3


@dataclass
class RunConfig:
    """Everything a check run depends on; echoed into the report."""

    mode: Mode = EXACT
    seed: int = 0
    trials: int = 100
    n: int = 4
    k: int = 2
    inject_glue_defect: bool = False

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        check_fixture_sizes(self.n, self.k)

    def as_dict(self) -> dict:
        out = {
            "mode": self.mode.kind,
            "seed": str(self.seed),
            "trials": str(self.trials),
            "n": str(self.n),
            "k": str(self.k),
        }
        if not self.mode.is_exact:
            out["tolerance"] = repr(self.mode.tolerance)
        if self.inject_glue_defect:
            out["inject_glue_defect"] = "true"
        return out


@dataclass
class CheckRecord:
    name: str
    tag: str
    instances: int = 0
    failures: list = field(default_factory=list)

    def __post_init__(self):
        if self.tag not in TAGS:
            raise ValueError(f"unknown tag {self.tag!r}")

    @property
    def passed(self) -> bool:
        return not self.failures

    def fail(self, instance: int, **witness) -> None:
        if len(self.failures) < MAX_WITNESSES:
            entry = {"instance": str(instance)}
            entry.update({k: v for k, v in witness.items()})
            self.failures.append(entry)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "tag": self.tag,
            "instances": str(self.instances),
            "failures": self.failures,
        }


@dataclass
class Report:
    command: str
    config: RunConfig
    records: list[CheckRecord]
    duration: float = 0.0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def as_dict(self) -> dict:
        """Canonical serializable form (duration intentionally excluded)."""
        return {
            "command": self.command,
            "config": self.config.as_dict(),
            "records": [r.as_dict() for r in self.records],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return fileio.dump_json(self.as_dict(), None)


# ---------------------------------------------------------------------------
# shrinking helpers


def shrink_matrix_violation(points, matrix, mode: Mode) -> tuple[tuple[str, ...], str]:
    """Smallest point subset still violating some axiom, plus the axiom name;
    one ordered pass, as a point that a set needs, each of its subsets needs."""
    pts = list(points)
    rows = [list(r) for r in matrix]

    def violations_of(sub: list[int]):
        sub_pts = [pts[i] for i in sub]
        sub_rows = [[rows[i][j] for j in sub] for i in sub]
        return metric_violations(sub_pts, sub_rows, mode)

    current = list(range(len(pts)))
    for i in range(len(pts)):
        cand = [j for j in current if j != i]
        if cand and violations_of(cand):
            current = cand
    found = violations_of(current)
    return tuple(pts[i] for i in current), found[0][0] if found else "none"


# ---------------------------------------------------------------------------
# check registry

_log = logging.getLogger(__name__)


def _every_trial(cfg: RunConfig) -> int:
    return cfg.trials


def _half_trials(cfg: RunConfig) -> int:
    return max(1, cfg.trials // 2)


def _always(cfg: RunConfig) -> bool:
    return True


@dataclass(frozen=True)
class _Check:
    stream: str | None
    records: tuple[tuple[str, str], ...]
    body: Callable
    trials: Callable[[RunConfig], int] | None
    setup: Callable[[RunConfig], object] | None
    when: Callable[[RunConfig], bool]

    def run(self, cfg: RunConfig) -> list[CheckRecord]:
        records = [CheckRecord(name, tag) for name, tag in self.records]
        # a setup error ends the whole run; RunConfig has already rejected
        # the n and k that no fixture can be built from
        extra = () if self.setup is None else (self.setup(cfg),)
        try:
            if self.trials is None:
                self.body(records[0], cfg, *extra)
            else:
                rng = generate.rng_for(cfg.seed, self.stream)
                target = records[0] if len(records) == 1 else records
                for trial in range(self.trials(cfg)):
                    for rec in records:
                        rec.instances += 1
                    self.body(target, trial, rng, cfg.mode, *extra)
        except Exception as exc:  # one broken check must not abort the run
            _log.exception("check %s raised", self.records[0][0])
            error = f"{type(exc).__name__}: {exc}"
            for rec in records:
                rec.failures.append({"instance": str(rec.instances - 1), "error": error})
        return records


_CHECKS: dict[str, list[_Check]] = {suite: [] for suite in SUITE_NAMES}


def check(suite, stream, *records, trials=_every_trial, setup=None, when=_always):
    """Register the decorated function as the next check of ``suite``.

    ``records`` are the ``(name, tag)`` pairs the check reports on, and
    ``stream`` labels its random stream.  The registry makes the records and
    the stream, then calls ``body(rec, trial, rng, mode, *extra)`` once per
    trial, counting one instance on every record first; a check with several
    records gets the list in place of ``rec``.  ``trials(cfg)`` gives the
    trial count.  With ``trials=None`` the body runs once as
    ``body(rec, cfg, *extra)`` and counts its own instances.  ``extra`` is
    ``(setup(cfg),)`` when ``setup`` is given, built once per run of the
    check.  A check whose ``when(cfg)`` is false emits no records.  New
    checks draw their spaces with :func:`_spaces` and test the functor laws
    and the metric axioms with :func:`_functor_laws` and
    :func:`_metric_axioms`; a new metric functor runs the six laws that
    measures and step functions share.
    """

    def register(body):
        _CHECKS[suite].append(_Check(stream, records, body, trials, setup, when))
        return body

    return register


def _spaces(rng, mode: Mode, *ranges) -> list[FiniteMetricSpace]:
    """Spaces prefixed "a", "b", "c", each size drawn from its range just before it."""
    return [
        generate.random_space(rng, rng.randint(lo, hi), prefix=prefix, mode=mode)
        for prefix, (lo, hi) in zip("abc", ranges)
    ]


def _functor_laws(rec, trial, identity, composition, witnesses=({}, {})) -> None:
    """Fail ``rec`` on the identity law, or else on the composition law.

    Each law is a thunk that says whether it holds; ``composition`` runs only
    when ``identity`` holds.  ``witnesses`` adds fields to each law's failure.
    """
    if not identity():
        rec.fail(trial, law="identity", **witnesses[0])
    elif not composition():
        rec.fail(trial, law="composition", **witnesses[1])


def _metric_axioms(rec, trial, mode: Mode, dist, x, y, z, positivity=True) -> None:
    """Fail ``rec`` on the first of identity, positivity (unless ``positivity`` is
    false), symmetry and triangle that ``dist`` breaks on ``x, y, z``; nothing
    after it is computed, and ``dist(x, y)`` only once."""
    if not mode.is_zero(dist(x, x)):
        rec.fail(trial, law="identity")
        return
    xy = dist(x, y)
    if positivity and x != y and not mode.positive(xy):
        rec.fail(trial, law="positivity")
    elif not mode.eq(xy, dist(y, x)):
        rec.fail(trial, law="symmetry")
    elif not mode.leq(dist(x, z), xy + dist(y, z)):
        rec.fail(trial, law="triangle")


# ---------------------------------------------------------------------------
# metric suite


@check("metric", "metric:axiom-detection", ("axiom-detection", "plumbing"))
def _check_axiom_detection(rec, trial, rng, mode):
    space = generate.random_space(rng, rng.randint(2, 6), mode=mode)
    n = len(space.points)
    i, j = rng.sample(range(n), 2)
    top = diameter(space)
    breakers = {
        "identity": lambda m: m[i].__setitem__(i, mode.one),
        "symmetry": lambda m: m[i].__setitem__(j, m[i][j] + mode.one),
        "positivity": lambda m: (m[i].__setitem__(j, mode.zero),
                                 m[j].__setitem__(i, mode.zero)),
        "triangle": lambda m: (m[i].__setitem__(j, 2 * top + mode.one),
                               m[j].__setitem__(i, 2 * top + mode.one)),
    }
    for axiom, breaker in breakers.items():
        if axiom == "triangle" and n < 3:
            continue
        matrix = [list(row) for row in space.dist]
        breaker(matrix)
        try:
            validate_space(space.points, matrix, mode)
        except AxiomViolation as exc:
            tags = {a for a, _ in exc.violations}
            if axiom not in tags:
                rec.fail(trial, mutated=axiom, detected=sorted(tags))
        else:
            shrunk, found = shrink_matrix_violation(space.points, matrix, mode)
            rec.fail(trial, mutated=axiom, detected="nothing",
                     shrunk_points=list(shrunk), shrunk_axiom=found)


def _random_anchor(rng, mode: Mode, trial: int) -> FiniteMetricSpace | None:
    """None means the default two-point anchor."""
    if trial % 3 != 2:
        return None
    raw = generate.random_space(rng, rng.randint(2, 3), prefix="ω:a", mode=mode)
    return generate.normalize_diameter(raw)


# the gluing laws on an anchor (None: the default one), also run on the pad


def _glue_blocks(rec, trial, space, anchor, inject_defect=False) -> None:
    """Fail ``rec`` at the first cell of ``space`` glued to ``anchor`` that is
    off its block: the space, the anchor, or the cross ``max(diameter, 1)``."""
    mode = space.mode
    glued = glue_space(space, anchor)
    anc = anchor if anchor is not None else default_anchor(mode)
    n, m = len(space.points), len(anc.points)
    cross = max(diameter(space), mode.one)
    matrix = [list(row) for row in glued.dist]
    if inject_defect:
        matrix[n][0] = matrix[0][n] = cross + mode.one
    # (block, row, column, expected) in glued coordinates; the first cell
    # off its block is the witness, and a cross cell is read both ways
    cells = [("restriction", a, b, space.dist[a][b]) for a in range(n) for b in range(n)]
    cells += [("anchor", n + a, n + b, anc.dist[a][b]) for a in range(m) for b in range(m)]
    cells += [("cross", a, n + b, cross) for a in range(n) for b in range(m)]
    for block, a, b, expected in cells:
        both = block != "cross" or mode.eq(matrix[b][a], expected)
        if not (mode.eq(matrix[a][b], expected) and both):
            rec.fail(trial, block=block, pair=[glued.points[a], glued.points[b]],
                     expected=_fmt(expected), actual=_fmt(matrix[a][b]))
            break


def _glue_functor_laws(rec, trial, f, g, anchor=None) -> None:
    """Gluing sends identities to identities and ``g ∘ f`` to the composite."""
    a = f.domain
    _functor_laws(
        rec, trial,
        lambda: glue_map(identity_map(a), anchor) == identity_map(glue_space(a, anchor)),
        lambda: glue_map(compose(g, f), anchor) == compose(
            glue_map(g, anchor), glue_map(f, anchor)
        ),
        witnesses=({"space": list(a.points)}, {"domain": list(a.points)}),
    )


def _glue_naturality(rec, trial, f, anchor=None) -> None:
    """The glued ``f`` is ``f`` on its domain and matches the anchor copies."""
    gf = glue_map(f, anchor)
    for p in f.domain.points:
        if gf(p) != f(p):
            rec.fail(trial, point=p, expected=f(p), actual=gf(p))
            break
    dom_extra = gf.domain.points[len(f.domain.points):]
    cod_extra = gf.codomain.points[len(f.codomain.points):]
    for x, y in zip(dom_extra, cod_extra):
        if gf(x) != y:
            rec.fail(trial, anchor_point=x, expected=y, actual=gf(x))
            break


def _glue_sup_isometry(rec, trial, f, g, anchor=None) -> None:
    """Gluing keeps the sup distance of two maps with one domain and codomain."""
    plain = sup_distance(f, g)
    glued = sup_distance(glue_map(f, anchor), glue_map(g, anchor))
    if not f.domain.mode.eq(plain, glued):
        rec.fail(trial, plain=_fmt(plain), glued=_fmt(glued))


@check("metric", "metric:glue-blocks", ("glue-restriction-and-cross", "(Λ4)"),
       setup=lambda cfg: cfg.inject_glue_defect)
def _check_glue_blocks(rec, trial, rng, mode, inject_defect):
    space = generate.random_space(rng, rng.randint(1, 5), mode=mode)
    _glue_blocks(rec, trial, space, _random_anchor(rng, mode, trial), inject_defect)


@check("metric", "metric:glue-diameter", ("glue-diameter", "(i)"))
def _check_glue_diameter(rec, trial, rng, mode):
    space = generate.random_space(rng, rng.randint(1, 6), mode=mode)
    glued = glue_space(space, _random_anchor(rng, mode, trial))
    expected = max(diameter(space), mode.one)
    actual = diameter(glued)
    if not mode.eq(actual, expected):
        rec.fail(trial, expected=_fmt(expected), actual=_fmt(actual))


@check("metric", "metric:glue-functor-laws", ("glue-functor-laws", "(Λ1)"))
def _check_glue_functor_laws(rec, trial, rng, mode):
    a, b, c = _spaces(rng, mode, (1, 4), (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    g = generate.random_map(rng, b, c)
    _glue_functor_laws(rec, trial, f, g)


@check("metric", "metric:glue-naturality", ("glue-embedding-naturality", "(Λ3)"))
def _check_glue_naturality(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 5), (1, 5))
    _glue_naturality(rec, trial, generate.random_map(rng, a, b))


@check("metric", "metric:sup-axioms", ("sup-metric-axioms", "plumbing"))
def _check_sup_metric_axioms(rec, trial, rng, mode):
    dom, cod = _spaces(rng, mode, (1, 4), (2, 4))
    f = generate.random_map(rng, dom, cod)
    g = generate.random_map(rng, dom, cod)
    h = generate.random_map(rng, dom, cod)
    _metric_axioms(rec, trial, mode, sup_distance, f, g, h)


@check("metric", "metric:glue-sup-isometry", ("glue-sup-isometry", "(Λ5)"))
def _check_glue_sup_isometry(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 5), (2, 5))
    f = generate.random_map(rng, a, b)
    g = generate.random_map(rng, a, b)
    _glue_sup_isometry(rec, trial, f, g)


# ---------------------------------------------------------------------------
# the laws of a metric functor, run on measures and on step functions
#
# A functor takes its operations as arguments: ``draw(rng, space)`` draws an
# element over ``space``, ``unit(space, p)`` is the element at ``p``,
# ``push(f, x)`` carries ``x`` along a map, ``dist`` is the metric and
# ``same`` the equality.  Check bodies pass module globals, looked up when
# the check runs, so a function patched into this module (by a test or a
# tracer) is the one called.


def _functor_axioms(rec, trial, rng, mode, draw, dist) -> None:
    """The metric axioms of ``dist`` on three elements over a 2–5 point space."""
    space = generate.random_space(rng, rng.randint(2, 5), mode=mode)
    x, y, z = (draw(rng, space) for _ in range(3))
    _metric_axioms(rec, trial, mode, dist, x, y, z, positivity=mode.is_exact)


def _unit_isometry(rec, trial, rng, mode, unit, dist) -> None:
    """(Λ4) The units of two points of a 2–6 point space are as far apart as
    the points."""
    space = generate.random_space(rng, rng.randint(2, 6), mode=mode)
    p, q = rng.sample(space.points, 2)
    value = dist(unit(space, p), unit(space, q))
    if not mode.eq(value, space.distance(p, q)):
        rec.fail(trial, pair=[p, q], value=_fmt(value),
                 distance=_fmt(space.distance(p, q)))


def _push_functor_laws(rec, trial, rng, mode, draw, push, same) -> None:
    """(Λ1) ``push`` sends identities to identities and ``g ∘ f`` to the composite."""
    a, b, c = _spaces(rng, mode, (1, 4), (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    g = generate.random_map(rng, b, c)
    x = draw(rng, a)
    _functor_laws(
        rec, trial,
        lambda: same(push(identity_map(a), x), x),
        lambda: same(push(compose(g, f), x), push(g, push(f, x))),
    )


def _unit_naturality(rec, trial, rng, mode, unit, push, same, every_point) -> None:
    """(Λ3) ``push(f, unit(p))`` is ``unit(f(p))``, at every point of the
    domain or at one drawn point."""
    a, b = _spaces(rng, mode, (1, 5), (1, 5))
    f = generate.random_map(rng, a, b)
    for p in a.points if every_point else [rng.choice(a.points)]:
        if not same(push(f, unit(a, p)), unit(b, f(p))):
            rec.fail(trial, point=p)
            break


def _diameter_law(rec, trial, rng, mode, draw, unit, dist) -> None:
    """(i) Over a 2–5 point space, two units attain the diameter, and two
    drawn elements are no farther apart."""
    space = generate.random_space(rng, rng.randint(2, 5), mode=mode)
    diam = diameter(space)
    x, y = draw(rng, space), draw(rng, space)
    attained = max(dist(unit(space, p), unit(space, q))
                   for p, q in itertools.combinations(space.points, 2))
    if not mode.eq(attained, diam):
        rec.fail(trial, attained=_fmt(attained), diameter=_fmt(diam))
        return
    value = dist(x, y)
    if not mode.leq(value, diam):
        rec.fail(trial, sampled=_fmt(value), diameter=_fmt(diam))


def _sup_bound(rec, trial, rng, mode, draw, unit, push, dist, samples=1,
               attain=True) -> None:
    """(h) Two maps push each of ``samples`` drawn elements no farther apart
    than their sup distance; (Λ5) with ``attain``, the units attain it."""
    a, b = _spaces(rng, mode, (1, 4), (2, 4))
    phi = generate.random_map(rng, a, b)
    psi = generate.random_map(rng, a, b)
    bound = sup_distance(phi, psi)
    for x in [draw(rng, a) for _ in range(samples)]:
        value = dist(push(phi, x), push(psi, x))
        if not mode.leq(value, bound):
            rec.fail(trial, pushed=_fmt(value), bound=_fmt(bound))
            return
    if attain:
        attained = max(dist(push(phi, u), push(psi, u))
                       for u in (unit(a, p) for p in a.points))
        if not mode.eq(attained, bound):
            rec.fail(trial, attained=_fmt(attained), bound=_fmt(bound))


# ---------------------------------------------------------------------------
# measure suite


@check("measure", "measure:mass", ("mass-conservation", "plumbing"))
def _check_mass_conservation(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 5), (1, 5))
    f = generate.random_map(rng, a, b)
    mu = generate.random_measure(rng, a)
    nu = pushforward(f, mu)
    total = fold_sum((w for _, w in nu.weights), mode.zero)
    if not mode.eq(total, mode.one):
        rec.fail(trial, total=_fmt(total))
    if not set(nu.support()) <= set(image(f)):
        rec.fail(trial, stray=sorted(set(nu.support()) - set(image(f))))


@check("measure", "measure:functor-laws", ("pushforward-functor-laws", "(Λ1)"))
def _check_push_functor_laws(rec, trial, rng, mode):
    _push_functor_laws(rec, trial, rng, mode, generate.random_measure, pushforward,
                       measures_equal)


@check("measure", "measure:dirac-naturality", ("dirac-naturality", "(Λ3)"))
def _check_dirac_naturality(rec, trial, rng, mode):
    _unit_naturality(rec, trial, rng, mode, dirac, pushforward, measures_equal,
                     every_point=True)


@check("measure", "measure:affinity", ("pushforward-affinity", "plumbing"))
def _check_affinity(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 5), (1, 5))
    f = generate.random_map(rng, a, b)
    mu = generate.random_measure(rng, a)
    nu = generate.random_measure(rng, a)
    t = Fraction(rng.randint(0, 10), 10)
    lhs = pushforward(f, convex_combination(t, mu, nu))
    rhs = convex_combination(t, pushforward(f, mu), pushforward(f, nu))
    if not measures_equal(lhs, rhs):
        rec.fail(trial, coefficient=_fmt(mode.convert(t)))


@check("measure", "measure:change-of-variables", ("change-of-variables", "plumbing"))
def _check_change_of_variables(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 5), (1, 5))
    f = generate.random_map(rng, a, b)
    mu = generate.random_measure(rng, a)
    g = {
        q: mode.convert(Fraction(rng.randint(-20, 20), rng.randint(1, 5)))
        for q in b.points
    }
    lhs = integrate(g, pushforward(f, mu))
    rhs = integrate({p: g[f(p)] for p in a.points}, mu)
    if not mode.eq(lhs, rhs):
        rec.fail(trial, lhs=_fmt(lhs), rhs=_fmt(rhs))


@check("measure", "measure:image", ("image-characterization", "(d)"))
def _check_image_characterization(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    if trial % 2 == 0:
        nu = pushforward(f, generate.random_measure(rng, a))
    else:
        nu = generate.random_measure(rng, b)
    witness = preimage_measure(f, nu)
    claimed = in_image(f, nu)
    if claimed != (witness is not None):
        rec.fail(trial, in_image=claimed, witness_found=witness is not None)
        return
    if witness is not None and not measures_equal(pushforward(f, witness), nu):
        rec.fail(trial, round_trip="pushforward of witness differs")


@check("measure", "measure:injectivity", ("injectivity-transfer", "(c)"))
def _check_injectivity_transfer(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    pushed = [pushforward(f, dirac(a, p)) for p in a.points]
    for (p, mu), (q, nu) in itertools.combinations(zip(a.points, pushed), 2):
        if measures_equal(mu, nu) != (f(p) == f(q)):
            rec.fail(trial, pair=[p, q])
            break


@check("measure", "measure:surjectivity", ("surjectivity-transfer", "(e)"))
def _check_surjectivity_transfer(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    surjective = is_surjective(f)
    dirac_hits = all(in_image(f, dirac(b, q)) for q in b.points)
    if surjective != dirac_hits:
        rec.fail(trial, surjective=surjective, every_dirac_hit=dirac_hits)


# ---------------------------------------------------------------------------
# kantorovich suite


@check("kantorovich", "kantorovich:duality", ("duality-gap", "plumbing"))
def _check_duality_gap(rec, trial, rng, mode):
    size = 2 + trial % 7
    space = generate.random_space(rng, size, mode=mode)
    mu = generate.random_measure(rng, space)
    nu = generate.random_measure(rng, space)
    dual, potential = kantorovich_dual(mu, nu)
    primal, plan = kantorovich_primal(mu, nu)
    if not mode.eq(primal - dual, mode.zero):
        rec.fail(trial, gap=_fmt(primal - dual), size=str(size))
        return
    if not mode.eq(potential_gap(potential, mu, nu), dual):
        rec.fail(trial, certificate="potential does not attain the optimum")
        return
    if not mode.eq(plan.cost(), primal):
        rec.fail(trial, certificate="plan cost differs from the optimum")


@check("kantorovich", "kantorovich:dirac-isometry", ("dirac-isometry", "(Λ4)"))
def _check_dirac_isometry(rec, trial, rng, mode):
    _unit_isometry(rec, trial, rng, mode, dirac, kantorovich)


@check("kantorovich", "kantorovich:diameter", ("diameter-preservation", "(i)"),
       trials=_half_trials)
def _check_diameter_preservation(rec, trial, rng, mode):
    _diameter_law(rec, trial, rng, mode, generate.random_measure, dirac, kantorovich)


@check("kantorovich", "kantorovich:map-isometry", ("map-pushforward-isometry", "(Λ5)"),
       trials=_half_trials)
def _check_map_isometry(rec, trial, rng, mode):
    _sup_bound(rec, trial, rng, mode, generate.random_measure, dirac, pushforward,
               kantorovich, samples=2)


@check("kantorovich", "kantorovich:axioms", ("kantorovich-metric-axioms", "plumbing"),
       trials=_half_trials)
def _check_kantorovich_axioms(rec, trial, rng, mode):
    _functor_axioms(rec, trial, rng, mode, generate.random_measure, kantorovich)


@check("kantorovich", "kantorovich:certificates", ("certificate-feasibility", "plumbing"),
       trials=_half_trials)
def _check_certificates(rec, trial, rng, mode):
    space = generate.random_space(rng, rng.randint(2, 6), mode=mode)
    mu = generate.random_measure(rng, space)
    nu = generate.random_measure(rng, space)
    _, potential = kantorovich_dual(mu, nu)
    _, plan = kantorovich_primal(mu, nu)
    try:
        lipschitz_potential(space, potential.as_dict())
        transport_plan(mu, nu, plan.matrix)
    except ZfunError as exc:
        rec.fail(trial, rejected=str(exc))
        return
    base = space.points[0]
    if not mode.is_zero(potential.as_dict()[base]):
        rec.fail(trial, normalization="potential does not vanish at the base point")


@check("kantorovich", "kantorovich:convergence", ("pointwise-convergence-bound", "(h)"),
       trials=_half_trials)
def _check_convergence_bound(rec, trial, rng, mode):
    _sup_bound(rec, trial, rng, mode, generate.random_measure, dirac, pushforward,
               kantorovich, attain=False)


# ---------------------------------------------------------------------------
# scheme suite


def _fixture(cfg: RunConfig, h_seed: int | None = None):
    return build_finite_fixture(cfg.n, cfg.k, cfg.seed, cfg.mode, h_seed=h_seed)


def _wide_pad(cfg: RunConfig) -> bool:
    """Whether the fixture's pad, which has n - k points, has at least two.

    A one-point pad has diameter 0, so ``glue_space`` rejects it; every check
    that glues the pad runs only when this holds.
    """
    return cfg.n - cfg.k >= 2


def _family_map(ctx, rng):
    """A random map between random family members."""
    dom = member_space(ctx, rng.choice(ctx.family))
    cod = member_space(ctx, rng.choice(ctx.family))
    return generate.random_map(rng, dom, cod)


@check("scheme", None, ("fixture-shape", "(Λ2)"), trials=None, setup=_fixture)
def _check_fixture_shape(rec, cfg, ctx):
    rec.instances += 1
    if len(ctx.family) != math.comb(cfg.n, cfg.k):
        rec.fail(0, family_size=str(len(ctx.family)))
    if set(ctx.pad.points) & set(ctx.ambient.points):
        rec.fail(0, overlap=sorted(set(ctx.pad.points) & set(ctx.ambient.points)))
    for member in ctx.family:
        padded = member + ctx.pad.points
        if len(padded) != len(ctx.ambient.points):
            rec.fail(0, member=list(member), padded_size=str(len(padded)))
            break
        chart = ctx.chart(member)
        if sorted(chart.values()) != sorted(ctx.ambient.points):
            rec.fail(0, member=list(member), chart="not a bijection onto ambient")
            break
        if {chart[x] for x in member} != set(member):
            rec.fail(0, member=list(member), chart="member not carried onto itself")
            break


# the laws of the extension functor, shared with ``zfun extend --check-laws``


def extension_restricts(rec, trial, phi, hat) -> bool:
    """Law (b): fail ``rec`` at the first point of ``phi``'s domain that the
    ambient self-map ``hat`` sends elsewhere than ``phi`` does; say whether
    the law held."""
    for x in phi.domain.points:
        if hat(x) != phi(x):
            rec.fail(trial, point=x, original=phi(x), extended=hat(x))
            return False
    return True


def factorization_law(rec, idx, ctx, member, h, u, v) -> bool:
    """Law (a) on ``h == u ∘ v``: ``u`` fixes ``member`` pointwise, ``v`` is the
    extension of ``h`` restricted to it, and ``u`` is a bijection.  Each part
    is a thunk; fail ``rec`` at the first that breaks and say whether all held."""
    member_sp = member_space(ctx, member)
    restriction = {x: h(x) for x in member}
    for holds, witness in (
        (lambda: compose(u, v) == h, "u∘v differs from h"),
        (lambda: all(u(x) == x for x in member), "u moves a member point"),
        (lambda: v == extend_map(ctx, metric_map(member_sp, member_sp, restriction)).extension,
         "v is not the extension of the restriction"),
        (lambda: is_bijective(u), "u is not a pointwise-fixing bijection"),
    ):
        if not holds():
            rec.fail(idx, law=witness)
            return False
    return True


def extension_functor_laws(rec, trial, ctx, phi, psi) -> None:
    """Law (a) on ``phi: K -> L`` and ``psi: L -> M``: the identity of K extends
    to the ambient identity, and the extension of ``psi ∘ phi`` is the
    composite of the two extensions."""
    dom = phi.domain
    _functor_laws(
        rec, trial,
        lambda: extend_map(ctx, identity_map(dom)).extension == identity_map(ctx.ambient),
        lambda: extend_map(ctx, compose(psi, phi)).extension == compose(
            extend_map(ctx, psi).extension, extend_map(ctx, phi).extension
        ),
        witnesses=({"member": list(dom.points)}, {"domain": list(dom.points)}),
    )


def extension_transfers(records, trial, ctx, phi, hat) -> None:
    """Laws (c), (d) and (e) on ``phi`` and its extension ``hat``, failing the
    injectivity, image and surjectivity record of ``records`` in that order.

    The image of ``hat`` is the image of ``phi`` plus every ambient point
    outside ``phi``'s codomain, so its trace on the codomain is ``phi``'s image.
    """
    inj, img, surj = records
    if is_injective(hat) != is_injective(phi):
        inj.fail(trial, original=is_injective(phi), extension=is_injective(hat))
    cod = set(phi.codomain.points)
    hat_image = set(image(hat))
    expected = set(image(phi)) | (set(ctx.ambient.points) - cod)
    if hat_image != expected:
        img.fail(trial, image=sorted(hat_image), expected=sorted(expected))
    if (hat_image & cod) != set(image(phi)):
        img.fail(trial, trace=sorted(hat_image & cod), expected=sorted(image(phi)))
    if is_surjective(hat) != is_surjective(phi):
        surj.fail(trial, original=is_surjective(phi), extension=is_surjective(hat))


def _metric_extension_restricts(rec, trial, rng, mode, ctx, member):
    """Law (i), restriction: draw a metric ``d`` on ``member`` and extend it.
    Fail ``rec`` at the first member pair whose distance moved and return
    None; else return ``(d, extended)``."""
    d = generate.random_space(rng, len(member), labels=member, mode=mode)
    extended = extend_metric(ctx, member, d)
    for x, y in itertools.product(member, repeat=2):
        if not mode.eq(extended.distance(x, y), d.distance(x, y)):
            rec.fail(trial, pair=[x, y], expected=_fmt(d.distance(x, y)),
                     actual=_fmt(extended.distance(x, y)))
            return None
    return d, extended


@check("scheme", "scheme:restricts", ("extension-restricts", "(b)"), setup=_fixture)
def _check_extension_restricts(rec, trial, rng, mode, ctx):
    phi = _family_map(ctx, rng)
    extension_restricts(rec, trial, phi, extend_map(ctx, phi).extension)


@check("scheme", "scheme:functor-laws", ("extension-functor-laws", "(a)"), setup=_fixture)
def _check_extension_functor_laws(rec, trial, rng, mode, ctx):
    k_sp, l_sp, m_sp = (member_space(ctx, rng.choice(ctx.family)) for _ in range(3))
    phi = generate.random_map(rng, k_sp, l_sp)
    psi = generate.random_map(rng, l_sp, m_sp)
    extension_functor_laws(rec, trial, ctx, phi, psi)


@check("scheme", "scheme:transfers",
       ("extension-injectivity-transfer", "(c)"),
       ("extension-image", "(d)"),
       ("extension-surjectivity-transfer", "(e)"),
       setup=_fixture)
def _check_scheme_transfers(records, trial, rng, mode, ctx):
    phi = _family_map(ctx, rng)
    extension_transfers(records, trial, ctx, phi, extend_map(ctx, phi).extension)


@check("scheme", "scheme:metric-extension", ("metric-extension", "(i)"),
       trials=_half_trials, setup=_fixture, when=_wide_pad)
def _check_metric_extension(rec, trial, rng, mode, ctx):
    metrics = _metric_extension_restricts(rec, trial, rng, mode, ctx, rng.choice(ctx.family))
    if metrics is None:
        return
    d, extended = metrics
    expected_diam = max(diameter(d), mode.one)
    if not mode.eq(diameter(extended), expected_diam):
        rec.fail(trial, diameter=_fmt(diameter(extended)),
                 expected=_fmt(expected_diam))


@check("scheme", "scheme:extension-isometry", ("extension-isometry", "(i)"),
       trials=_half_trials, setup=_fixture, when=_wide_pad)
def _check_extension_isometry(rec, trial, rng, mode, ctx):
    dom_member = rng.choice(ctx.family)
    cod_member = rng.choice(ctx.family)
    dom = member_space(ctx, dom_member)
    cod = member_space(ctx, cod_member)
    d = generate.random_space(rng, len(cod_member), labels=cod_member, mode=mode)
    pairs = [
        (generate.random_map(rng, dom, cod), generate.random_map(rng, dom, cod))
        for _ in range(2)
    ]
    extended = extend_metric(ctx, cod_member, d)
    for phi, psi in pairs:
        lhs = max(d.distance(phi(x), psi(x)) for x in dom.points)
        phi_hat, psi_hat = (extend_map(ctx, f).extension for f in (phi, psi))
        rhs = max(extended.distance(phi_hat(a), psi_hat(a)) for a in ctx.ambient.points)
        if not mode.eq(lhs, rhs):
            rec.fail(trial, original=_fmt(lhs), extended=_fmt(rhs))
            break


@check("scheme", "scheme:padded",
       ("padded-functor-laws", "(Λ1)"),
       ("padded-naturality", "(Λ3)"),
       ("padded-embedding-isometry", "(Λ4)"),
       ("padded-sup-isometry", "(Λ5)"),
       trials=_half_trials, setup=_fixture, when=_wide_pad)
def _check_padded_functor(records, trial, rng, mode, ctx):
    laws, natural, isom, supiso = records
    k_sp, l_sp, m_sp = (member_space(ctx, rng.choice(ctx.family)) for _ in range(3))
    phi = generate.random_map(rng, k_sp, l_sp)
    psi = generate.random_map(rng, l_sp, m_sp)
    phi2 = generate.random_map(rng, k_sp, l_sp)
    _glue_functor_laws(laws, trial, phi, psi, ctx.pad)
    _glue_naturality(natural, trial, phi, ctx.pad)
    _glue_blocks(isom, trial, k_sp, ctx.pad)
    _glue_sup_isometry(supiso, trial, phi, phi2, ctx.pad)


@check("scheme", "scheme:chart-independence", ("chart-independence", "plumbing"),
       trials=lambda cfg: 3, setup=lambda cfg: cfg)
def _check_chart_independence(rec, trial, rng, mode, cfg):
    """Laws (b) and (i)'s restriction under three randomized fixtures, one per
    trial, with those laws' witnesses; (i) needs a pad that can be glued."""
    ctx = _fixture(cfg, h_seed=trial)
    phi = _family_map(ctx, rng)
    held = extension_restricts(rec, trial, phi, extend_map(ctx, phi).extension)
    if held and _wide_pad(cfg):
        _metric_extension_restricts(rec, trial, rng, mode, ctx, phi.codomain.points)


@check("scheme", None, ("decomposition-factorization", "(a)"), trials=None, setup=_fixture)
def _check_decomposition(rec, cfg, ctx):
    member = ctx.family[0]
    member_sp = member_space(ctx, member)
    bijections = _bijections(ctx, member, inside=True)
    seen = set()
    for idx, h in enumerate(bijections):
        rec.instances += 1
        u, v = decompose_automorphism(ctx, member, h)
        if factorization_law(rec, idx, ctx, member, h, u, v):
            seen.add((u.assignment, v.assignment))
    # uniqueness: the factor pairs are distinct and exhaust the product count,
    # (n - k)! pointwise-fixing bijections times k! member bijections
    n, k = len(ctx.ambient.points), len(member)
    expected = math.factorial(n - k) * math.factorial(k)
    if len(seen) != len(bijections) or len(bijections) != expected:
        rec.fail(len(bijections), law="factorization is not a bijection",
                 pairs=str(len(seen)), maps=str(len(bijections)),
                 expected=str(expected))
    # homomorphism of the restriction-extension assignment
    for sigma, tau in itertools.islice(
        itertools.product(itertools.permutations(member), repeat=2), 0, 36
    ):
        rec.instances += 1
        f = metric_map(member_sp, member_sp, dict(zip(member, sigma)))
        g = metric_map(member_sp, member_sp, dict(zip(member, tau)))
        lhs = extend_map(ctx, compose(f, g)).extension
        rhs = compose(extend_map(ctx, f).extension, extend_map(ctx, g).extension)
        if lhs != rhs:
            rec.fail(-1, law="extension is not a homomorphism on bijections")
            break


# ---------------------------------------------------------------------------
# step suite


@check("step", "step:axioms", ("integral-metric-axioms", "plumbing"))
def _check_integral_axioms(rec, trial, rng, mode):
    _functor_axioms(rec, trial, rng, mode, generate.random_step_function, integral_metric)


@check("step", "step:constants", ("constant-embedding-isometry", "(Λ4)"))
def _check_constant_isometry(rec, trial, rng, mode):
    _unit_isometry(rec, trial, rng, mode, dirac_const, integral_metric)


@check("step", "step:functor-laws", ("pushforward-functor-laws", "(Λ1)"))
def _check_step_functor_laws(rec, trial, rng, mode):
    _push_functor_laws(rec, trial, rng, mode, generate.random_step_function,
                       compose_pushforward, operator.eq)


@check("step", "step:naturality", ("pushforward-naturality", "(Λ3)"))
def _check_step_naturality(rec, trial, rng, mode):
    _unit_naturality(rec, trial, rng, mode, dirac_const, compose_pushforward, operator.eq,
                     every_point=False)


@check("step", "step:sup-bound", ("pushforward-sup-bound", "(Λ5)"))
def _check_step_sup_bound(rec, trial, rng, mode):
    _sup_bound(rec, trial, rng, mode, generate.random_step_function, dirac_const,
               compose_pushforward, integral_metric)


@check("step", "step:head-witness", ("head-witness", "(g)"))
def _check_head_witness(rec, trial, rng, mode):
    target = generate.random_space(rng, rng.randint(2, 5), mode=mode)
    f = generate.random_step_function(rng, target)
    a = rng.choice(target.points)
    n = rng.randint(1, 64)
    witness = phi_n_witness(a, n, f)
    head = mode.convert(Fraction(1, n))
    bound = diameter(target) * head
    if not mode.leq(integral_metric(witness, f), bound):
        rec.fail(trial, distance=_fmt(integral_metric(witness, f)),
                 bound=_fmt(bound))
        return
    if witness.values[0] != a:
        rec.fail(trial, head=witness.values[0], expected=a)
        return
    others = tuple(p for p in target.points if p != a)
    g = generate.random_step_function(rng, target)
    avoiding = step_function(
        target, g.breakpoints, tuple(rng.choice(others) for _ in g.values)
    )
    min_off = min(target.distance(a, b) for b in others)
    if not mode.leq(head * min_off, integral_metric(witness, avoiding)):
        rec.fail(trial, separation=_fmt(integral_metric(witness, avoiding)),
                 lower_bound=_fmt(head * min_off))


@check("step", "step:selection", ("preimage-selection-round-trip", "(d)"))
def _check_selection_round_trip(rec, trial, rng, mode):
    a, b = _spaces(rng, mode, (1, 4), (1, 4))
    f = generate.random_map(rng, a, b)
    u = generate.random_step_function(rng, a)
    v = compose_pushforward(f, u)
    w = select_preimage(f, v)
    if compose_pushforward(f, w) != v:
        rec.fail(trial, law="round trip")
        return
    first = {}
    for p in a.points:
        first.setdefault(f(p), p)
    if any(first[v_val] != w_val for v_val, w_val in zip(v.values, w.values)):
        rec.fail(trial, law="least-index selection")


@check("step", "step:diameter", ("step-diameter", "(i)"))
def _check_step_diameter(rec, trial, rng, mode):
    _diameter_law(rec, trial, rng, mode, generate.random_step_function, dirac_const,
                  integral_metric)


# ---------------------------------------------------------------------------
# runner


def run_suite(name: str, cfg: RunConfig) -> Report:
    """Run one named suite (or "all") and wrap the records in a report."""
    if name != "all" and name not in _CHECKS:
        raise ValueError(f"unknown suite {name!r}; pick from {SUITE_NAMES + ('all',)}")
    start = time.monotonic()
    records = []
    for suite in SUITE_NAMES if name == "all" else (name,):
        for chk in _CHECKS[suite]:
            if not chk.when(cfg):
                continue
            for record in chk.run(cfg):
                if name == "all":
                    record.name = f"{suite}/{record.name}"
                records.append(record)
    return Report(f"check {name}", cfg, records, time.monotonic() - start)
