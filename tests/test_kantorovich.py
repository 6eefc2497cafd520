"""Kantorovich distance: dual and primal routes, certificates, derived checks.

The primal route is checked against a third, test-only oracle that enumerates
every basic solution of the transportation polytope, so the two solvers in the
package are cross-examined by code sharing nothing with either.
"""

import hashlib
import importlib
import itertools
from fractions import Fraction
from math import floor, gcd, lcm, ulp

import pytest

from zfun import (
    EXACT,
    InvalidWeights,
    SpaceMismatch,
    diameter,
    dirac,
    duality_gap,
    float_mode,
    format_number,
    kantorovich,
    kantorovich_dual,
    kantorovich_primal,
    lipschitz_potential,
    metric_map,
    potential_gap,
    prob_measure,
    pushforward,
    sup_distance,
    transport_plan,
    validate_space,
)
from zfun.generate import (
    random_map,
    random_measure,
    random_space,
    rng_for,
)
from zfun.kantorovich import LipschitzPotential, _essential_pairs, _transport_simplex
from zfun.numbers import fold_sum, scaled
from zfun.simplexlp import solve_inequality_lp

from helpers import (
    assert_kernel_matches_dense,
    assert_plan_feasible,
    assert_potential_feasible,
    brute_min_transport_cost,
    grid_measures,
    million_draws,
    plan_cost,
    reference_plan_verdict,
    reference_potential_verdict,
    reference_transport_simplex,
    space_ab,
    space_abc,
)


class TestFrozenValues:
    def test_dirac_pair_equals_distance(self):
        space = space_ab()
        value, cert = kantorovich_dual(dirac(space, "a"), dirac(space, "b"))
        assert value == Fraction(3, 2)
        assert cert.as_dict() == {"a": Fraction(0), "b": Fraction(-3, 2)}
        primal, plan = kantorovich_primal(dirac(space, "a"), dirac(space, "b"))
        assert primal == Fraction(3, 2)
        assert plan.matrix[0][1] == 1

    def test_two_point_half_mass(self):
        # moving mass 1/2 across distance 3/2 costs 3/4
        space = space_ab()
        mu = prob_measure(space, {"a": "1/2", "b": "1/2"})
        nu = prob_measure(space, {"a": "1"})
        assert kantorovich(mu, nu) == Fraction(3, 4)
        assert duality_gap(mu, nu) == 0

    def test_three_point_example_with_certificates(self):
        space = space_abc()
        mu = prob_measure(space, {"a": "1/2", "b": "1/2"})
        nu = dirac(space, "c")
        value, potential = kantorovich_dual(mu, nu)
        # half the mass travels d(a,c)=1, half travels d(b,c)=1/2
        assert value == Fraction(3, 4)
        assert potential.as_dict() == {
            "a": Fraction(0),
            "b": Fraction(-1, 2),
            "c": Fraction(-1),
        }
        primal, plan = kantorovich_primal(mu, nu)
        assert primal == Fraction(3, 4)
        assert plan.matrix[0][2] == Fraction(1, 2)
        assert plan.matrix[1][2] == Fraction(1, 2)

    def test_identical_measures_have_distance_zero(self):
        space = space_abc()
        mu = prob_measure(space, {"a": "1/3", "b": "1/3", "c": "1/3"})
        assert kantorovich(mu, mu) == 0
        primal, _ = kantorovich_primal(mu, mu)
        assert primal == 0

    def test_singleton_space(self):
        space = prob_measure(
            space_ab(), {"a": 1}
        ).space  # reuse the validated space
        sub_mu = dirac(space, "a")
        assert kantorovich(sub_mu, sub_mu) == 0


class TestAgainstBruteForce:
    def test_both_routes_match_the_enumerated_optimum(self):
        rng = rng_for(31, "brute-oracle")
        for trial in range(30):
            space = random_space(rng, 2 + trial % 3)  # sizes 2-4
            mu = random_measure(rng, space)
            nu = random_measure(rng, space)
            expected = brute_min_transport_cost(mu, nu)
            dual_value, _ = kantorovich_dual(mu, nu)
            primal_value, _ = kantorovich_primal(mu, nu)
            assert dual_value == expected
            assert primal_value == expected

    def test_certificates_prove_optimality(self):
        """Weak duality: a feasible potential whose gap equals a feasible
        plan's cost certifies both as optimal — checked with raw arithmetic."""
        rng = rng_for(37, "certificates")
        for trial in range(25):
            space = random_space(rng, 2 + trial % 5)  # sizes 2-6
            mu = random_measure(rng, space)
            nu = random_measure(rng, space)
            dual_value, potential = kantorovich_dual(mu, nu)
            primal_value, plan = kantorovich_primal(mu, nu)
            table = potential.as_dict()
            assert_potential_feasible(space, table)
            assert_plan_feasible(space, mu, nu, plan.matrix)
            integral_gap = abs(
                sum(w * table[p] for p, w in mu.weights)
                - sum(w * table[p] for p, w in nu.weights)
            )
            cost = plan_cost(space, plan.matrix)
            assert integral_gap == dual_value
            assert cost == primal_value
            assert cost == integral_gap  # zero gap = joint optimality proof
            assert plan.cost() == cost
            assert potential_gap(potential, mu, nu) == integral_gap

    def test_duality_gap_zero_across_sizes(self):
        rng = rng_for(41, "gap-sizes")
        for trial in range(40):
            space = random_space(rng, 2 + trial % 7)  # sizes 2-8
            mu = random_measure(rng, space)
            nu = random_measure(rng, space)
            assert duality_gap(mu, nu) == 0

    @pytest.mark.parametrize("n", [24, 32])
    def test_duality_gap_zero_at_larger_sizes(self, n):
        rng = rng_for(n, "gap-large")
        space = random_space(rng, n)
        mu = random_measure(rng, space, full_support=True)
        nu = random_measure(rng, space, full_support=True)
        assert duality_gap(mu, nu) == 0

    def test_float_mode_gap_within_tolerance(self):
        mode = float_mode()
        rng = rng_for(43, "float-gap")
        for trial in range(20):
            exact_space = random_space(rng, 2 + trial % 5)
            floats = [[float(v) for v in row] for row in exact_space.dist]
            fspace = validate_space(exact_space.points, floats, mode)
            mu = random_measure(rng, fspace)
            nu = random_measure(rng, fspace)
            assert abs(duality_gap(mu, nu)) <= 1e-9


def pinned_pairs(kind, rng):
    """90 measure pairs on spaces of 2-16 points, every third one sparse,
    full-support or a measure paired with itself, in ``kind`` mode."""
    mode = EXACT if kind == "exact" else float_mode()
    for trial in range(90):
        exact_space = random_space(rng, 2 + trial % 15)
        dist = [[mode.convert(v) for v in row] for row in exact_space.dist]
        space = validate_space(exact_space.points, dist, mode)
        full = trial % 3 == 1
        mu = random_measure(rng, space, full_support=full)
        yield mu, mu if trial % 3 == 2 else random_measure(rng, space, full_support=full)


class TestTransportVertexPin:
    """The primal route's plan, not only its cost, stays where it is.

    A passing check record serializes no plan, so the report hashes cannot
    see the transport simplex move to another optimal vertex; this pin can.
    The batch mixes sparse, full-support and identical measures.
    """

    DIGESTS = {
        "exact": "84f2040f46d8fb1ffe0ac943b69f8763c2d63738509cd6d8bd1c35cf5688ea4e",
        "float": "d7dea2a9ed73473e597e0caeaa5bc901f4be0296591ac788576b06001f63bd71",
    }

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_values_and_plans_are_pinned(self, kind):
        lines = []
        for mu, nu in pinned_pairs(kind, rng_for(59, "transport-vertex")):
            value, plan = kantorovich_primal(mu, nu)
            cells = [format_number(v) for row in plan.matrix for v in row]
            lines.append(" ".join([format_number(value), *cells]))
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[kind]


class TestDualVertexPin:
    """The dual route's potential, not only its value, stays where it is.

    The LP's optimal face can hold several vertices, and a passing check
    record serializes no potential, so only this pin sees the dual simplex
    move to another vertex.  The batch mixes sparse, full-support and
    identical measures.  Both digests pin the program pruned to its
    essential pairs, in float mode under the ulp guard, and the c-transform
    of its potential, which re-rounds some float entries by a few ulps.
    """

    DIGESTS = {
        "exact": "95b432479e00599f7b76628dd432996958d6ff2e10e1b39d875535404b627ef4",
        "float": "90899891ce9ff9a4847d5d1b1e990bba51cd12b6d69d4279917cbb733da50c58",
    }

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_values_and_potentials_are_pinned(self, kind):
        lines = []
        for mu, nu in pinned_pairs(kind, rng_for(61, "dual-vertex")):
            value, potential = kantorovich_dual(mu, nu)
            values = [format_number(v) for _, v in potential.values]
            lines.append(" ".join([format_number(value), *values]))
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert digest == self.DIGESTS[kind]


class TestKernelNumbers:
    """Both kernels get ``int``s with threshold 0 in exact mode and floats
    with float thresholds in float mode."""

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_numbers_handed_to_the_kernels(self, monkeypatch, kind):
        module = importlib.import_module("zfun.kantorovich")
        lp, transport = module.solve_inequality_lp, module._transport_simplex
        seen = []

        def recording_lp(c, rows, b, eps):
            seen.append(("lp", [*c, *b], (eps,)))
            return lp(c, rows, b, eps)

        def recording_transport(costs, supply, demand, eps, walk_eps):
            seen.append(("transport", [*sum(costs, []), *supply, *demand], (eps, walk_eps)))
            return transport(costs, supply, demand, eps, walk_eps)

        monkeypatch.setattr(module, "solve_inequality_lp", recording_lp)
        monkeypatch.setattr(module, "_transport_simplex", recording_transport)
        for mu, nu in itertools.islice(pinned_pairs(kind, rng_for(59, "kernel-numbers")), 30):
            kantorovich_dual(mu, nu)
            kantorovich_primal(mu, nu)
        assert [k for k, _, _ in seen] == ["lp", "transport"] * 30
        number = int if kind == "exact" else float
        for k, numbers, thresholds in seen:
            assert {type(v) for v in numbers} == {number}
            if kind == "exact":
                assert [(type(e), e) for e in thresholds] == [(int, 0)] * len(thresholds)
            else:
                assert thresholds[-1] == float_mode().pivot_eps
                assert all(type(e) is float and e > 0 for e in thresholds)

    @pytest.mark.parametrize("kind", ["exact", "float"])
    def test_one_point_dual_is_the_zero_potential(self, kind):
        mode = EXACT if kind == "exact" else float_mode()
        space = validate_space(["a"], [["0"]], mode)
        delta = dirac(space, "a")
        expected = (mode.zero, LipschitzPotential(space, (("a", mode.zero),)))
        assert repr(kantorovich_dual(delta, delta)) == repr(expected)
        assert repr(expected[0]) == ("Fraction(0, 1)" if kind == "exact" else "0.0")


def fraction_primal(mu, nu, flow):
    """Value and plan of the transport simplex's ``flow`` on the ``Fraction``s.

    ``flow`` is what the kept simplex finds on the unscaled data with
    threshold 0 (:func:`lattice_batch`): the exact primal route without
    integer scaling, the reference that the scaled route must reproduce
    cell for cell.
    """
    space = mu.space
    src = [space.index(p) for p, _ in mu.weights]
    snk = [space.index(q) for q, _ in nu.weights]
    n = len(space.points)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    value = Fraction(0)
    for (r, c), amount in flow.items():
        matrix[src[r]][snk[c]] = amount
        value += amount * space.dist[src[r]][snk[c]]
    return value, tuple(tuple(row) for row in matrix)


def plain_measure(rng, space, full_support):
    return random_measure(rng, space, full_support=full_support)


def coprime_measure(rng, space, full_support):
    """Weights over denominators with the coprime factors 7, 11 and 13."""
    support = list(space.points) if full_support else rng.sample(
        space.points, rng.randint(1, len(space.points))
    )
    s = len(support)
    weights = {}
    for i, p in enumerate(support[:-1]):
        d = (7, 11, 13)[i % 3]
        weights[p] = Fraction(rng.randint(1, d), d * s)  # at most 1/s each
    weights[support[-1]] = 1 - sum(weights.values())
    return prob_measure(space, weights)


def lattice_pairs(rng):
    """540 exact pairs on 2-12 points: sparse, full-support or identical
    measures, plain or coprime-denominator weights, and distances either from
    ``random_space`` or shifted off-diagonal by ``1/q`` for q >= 60 (adding
    one constant to every off-diagonal distance keeps the triangle
    inequality)."""
    for trial in range(540):
        space = random_space(rng, 2 + trial % 11)
        if trial % 2:
            q = rng.choice((60, 61, 64, 77, 97))
            shift = [
                [v + (Fraction(1, q) if i != j else 0) for j, v in enumerate(row)]
                for i, row in enumerate(space.dist)
            ]
            space = validate_space(space.points, shift)
        full = trial % 3 == 1
        draw = coprime_measure if trial % 4 >= 2 else plain_measure
        mu = draw(rng, space, full)
        yield mu, mu if trial % 3 == 2 else draw(rng, space, full)


@pytest.fixture(scope="module")
def lattice_batch():
    """The 540 lattice pairs, drawn once, each with the flow the kept simplex
    finds on its ``Fraction`` data at threshold 0.  Two tests share it: the
    scaled route must reproduce that flow, and so must a rebuilt tree."""
    return [
        (mu, nu, _transport_simplex(*transport_data(mu, nu, False), 0, Fraction(0)))
        for mu, nu in lattice_pairs(rng_for(67, "integer-transport"))
    ]


class TestIntegerTransportMatchesFractions:
    def test_plan_and_value_match_the_fraction_simplex(self, lattice_batch):
        max_dist_den = max_weight_lcm = 0
        for mu, nu, flow in lattice_batch:
            value, plan = kantorovich_primal(mu, nu)
            ref_value, ref_matrix = fraction_primal(mu, nu, flow)
            assert isinstance(value, Fraction)
            assert value == ref_value
            assert plan.matrix == ref_matrix
            assert duality_gap(mu, nu) == 0
            max_dist_den = max(
                max_dist_den,
                max(v.denominator for row in mu.space.dist for v in row),
            )
            weights = [w for _, w in mu.weights + nu.weights]
            max_weight_lcm = max(
                max_weight_lcm, lcm(*(w.denominator for w in weights))
            )
        assert max_dist_den >= 60
        assert max_weight_lcm % (7 * 11 * 13) == 0


def transport_data(mu, nu, scale):
    """The transport simplex's costs, supply and demand on the supports.

    With ``scale`` the costs and the weights are each scaled to ``int``s as
    :func:`kantorovich_primal` scales them in exact mode.
    """
    space = mu.space
    src = [space.index(p) for p, _ in mu.weights]
    snk = [space.index(q) for q, _ in nu.weights]
    costs = [[space.dist[i][j] for j in snk] for i in src]
    supply = [w for _, w in mu.weights]
    demand = [w for _, w in nu.weights]
    if scale:
        flat, _ = scaled([v for row in costs for v in row])
        costs = [flat[r * len(snk):(r + 1) * len(snk)] for r in range(len(src))]
        weights, _ = scaled(supply + demand)
        supply, demand = weights[: len(src)], weights[len(src):]
    return costs, supply, demand


def float_transport_pairs(rng):
    """120 float pairs on 2-32 points, cycling through full-support, sparse
    and identical measures, a Dirac pair, and a Dirac against a full-support
    measure either way (one-point supports, m = 1 or n = 1).

    Every other block of six has its distances times 1000/3.  Their ulps,
    about 2e-12, exceed the pivot threshold, so a pivot sees how each
    potential was rounded, not only its exact value: potentials taken
    along other paths than those from row 0 change the plans there.
    """
    mode = float_mode()
    for t in range(120):
        exact_space = random_space(rng, 2 + t % 31)
        scale = Fraction(1000, 3) if t // 6 % 2 else 1
        dist = [[mode.convert(v * scale) for v in row] for row in exact_space.dist]
        space = validate_space(exact_space.points, dist, mode)
        kind = t % 6
        if kind == 3:
            yield dirac(space, rng.choice(space.points)), dirac(
                space, rng.choice(space.points)
            )
        elif kind >= 4:
            point = dirac(space, rng.choice(space.points))
            full = random_measure(rng, space, full_support=True)
            yield (point, full) if kind == 4 else (full, point)
        else:
            mu = random_measure(rng, space, full_support=kind == 0)
            yield mu, mu if kind == 2 else random_measure(rng, space, full_support=kind == 0)


class TestTransportTreeMatchesRebuild:
    """The kept basis tree pivots exactly as a tree rebuilt every pivot.

    The reference walks the whole tree before each pivot; the plans must be
    the same cells with the same flows, inserted in the same order.  The
    batches include degenerate pivots (θ = 0), whose leaving cell carries no
    flow but still re-hangs a subtree.
    """

    @staticmethod
    def assert_same_flow(mu, nu, scale, eps, zero, kept=None):
        """``kept``, when given, is the kept tree's flow on the same data."""
        data = transport_data(mu, nu, scale)
        if kept is None:
            kept = _transport_simplex(*data, eps, eps)
        rebuilt, degenerate = reference_transport_simplex(*data, eps, zero)
        assert list(kept.items()) == list(rebuilt.items())
        return degenerate

    def test_lattice_pairs_on_ints_and_fractions(self, lattice_batch):
        degenerate = 0
        for mu, nu, flow in lattice_batch:
            degenerate += self.assert_same_flow(mu, nu, True, 0, 0)
            degenerate += self.assert_same_flow(mu, nu, False, 0, Fraction(0), flow)
        assert degenerate > 0

    def test_float_pairs_up_to_32_points(self):
        mode = float_mode()
        degenerate = 0
        shapes = set()
        for mu, nu in float_transport_pairs(rng_for(71, "transport-tree")):
            degenerate += self.assert_same_flow(mu, nu, False, mode.pivot_eps, mode.zero)
            shapes.add((len(mu.weights) == 1, len(nu.weights) == 1))
        assert degenerate > 0
        assert shapes == {(False, False), (True, False), (False, True), (True, True)}


def full_row_dual(mu, nu):
    """The dual LP with every bound and Lipschitz row, none pruned.

    This is the dual route before essential-pair pruning, in the mode of the
    measures' space, the reference whose optimum the pruned program must
    reproduce.  Returns the value and the potential as a tuple in point
    order.
    """
    space = mu.space
    mode = space.mode
    d, n = space.dist, len(space.points)
    c = [mu.weight(p) - nu.weight(p) for p in space.points[1:]]
    rows, rhs = [], []
    for i in range(1, n):
        rows.append((i - 1, None))
        rhs.append(2 * d[0][i])
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                rows.append((i - 1, j - 1))
                rhs.append(max(d[i][j] + d[0][i] - d[0][j], mode.zero))
    lp_value, g = solve_inequality_lp(c, rows, rhs, mode.pivot_eps)
    # added left to right, as the dual route adds it on every Python
    shift = fold_sum(c[i - 1] * d[0][i] for i in range(1, n))
    return lp_value - shift, (mode.zero, *(g[i - 1] - d[0][i] for i in range(1, n)))


def measure_pair(rng, space, t):
    """Full-support, sparse or Dirac measures as ``t % 3`` is 0, 1 or 2 (two
    Diracs may sit on one point)."""
    if t % 3 == 2:
        return dirac(space, rng.choice(space.points)), dirac(
            space, rng.choice(space.points)
        )
    full = t % 3 == 0
    return random_measure(rng, space, full_support=full), random_measure(
        rng, space, full_support=full
    )


def dual_programs(rng):
    """540 exact measure pairs: 528 on 2-12 points, then one on each of 13-24.

    The pairs cycle through full-support, sparse and Dirac measures.  Large
    sizes are few because the full-row reference grows as n^2 rows.
    """
    sizes = [2 + t % 11 for t in range(528)] + list(range(13, 25))
    for t, n in enumerate(sizes):
        yield measure_pair(rng, random_space(rng, n), t)


def path_space(mode, stretch=0):
    """Six points on a line with uneven gaps: only neighbours are essential.

    ``stretch * (|i - j| - 1)**2`` is added to d(p_i, p_j).  That amount is
    strictly superadditive in ``|i - j|``, so a positive ``stretch`` makes
    every split of a pair of non-neighbours miss it by ``stretch`` or more.
    """
    at = [Fraction(v) for v in (0, 1, "5/2", 3, "17/4", 7)]
    dist = [
        [mode.convert(abs(a - b) + stretch * max(abs(i - j) - 1, 0) ** 2)
         for j, b in enumerate(at)]
        for i, a in enumerate(at)
    ]
    return validate_space([f"p{i}" for i in range(len(at))], dist, mode)


@pytest.fixture
def dense_checked_dual(monkeypatch):
    """Every program the dual route solves is solved by the dense kernel too.

    The kernel's sparse rows must give what the dense tableau it replaced
    gives, bit for bit (:func:`helpers.assert_kernel_matches_dense`).
    """
    module = importlib.import_module("zfun.kantorovich")

    def checking(c, rows, b, eps):
        return assert_kernel_matches_dense(c, rows, b, eps)[0]

    monkeypatch.setattr(module, "solve_inequality_lp", checking)


@pytest.mark.usefixtures("dense_checked_dual")
class TestPrunedDualMatchesFullRows:
    def test_value_matches_and_potential_is_lipschitz(self):
        count = 0
        for mu, nu in dual_programs(rng_for(71, "pruned-dual")):
            value, potential = kantorovich_dual(mu, nu)
            assert value == full_row_dual(mu, nu)[0]
            assert_potential_feasible(mu.space, potential.as_dict())
            assert potential_gap(potential, mu, nu) == value
            count += 1
        assert count == 540

    @pytest.mark.parametrize(
        "mode, stretch, expected",
        [
            (EXACT, 0, 1 + 2 * 4),
            (float_mode(), 0, 1 + 2 * 4),
            (float_mode(1e-3), Fraction(1, 20000), 5 * 5),
        ],
        ids=["exact", "float", "float-within-tolerance"],
    )
    def test_kept_rows_on_a_path_metric(self, monkeypatch, mode, stretch, expected):
        # exact and float: the bound row of (p0, p1) and both directions of
        # the four neighbour pairs among p1..p5.  Stretched, every triangle
        # through a middle point is violated by 5e-5 to 5.5e-4, within the
        # tolerance 1e-3, and splits nothing: all 5 bound and 20 Lipschitz
        # rows stay.
        module = importlib.import_module("zfun.kantorovich")
        shapes = []

        def recording(c, rows, b, eps):
            shapes.append(len(rows))
            return solve_inequality_lp(c, rows, b, eps)

        monkeypatch.setattr(module, "solve_inequality_lp", recording)
        space = path_space(mode, stretch)
        mu = prob_measure(space, {"p0": "1/2", "p3": "1/2"})
        nu = prob_measure(space, {"p2": "1/3", "p5": "2/3"})
        value, potential = kantorovich_dual(mu, nu)
        assert shapes == [expected]
        assert abs(value - kantorovich_primal(mu, nu)[0]) <= mode.tolerance
        assert_potential_feasible(space, potential.as_dict(), mode.tolerance)


def as_float(mu, mode):
    """``mu`` moved to the float copy of its space, weights rounded once."""
    space = validate_space(mu.space.points, mu.space.dist, mode)
    return prob_measure(space, dict(mu.weights))


def nudged_space(rng, n, mode):
    """A float space whose distances each moved by up to 3e-4 off a
    ``random_space``, so many of its tight triangles are violated within the
    tolerance 1e-3 (three moves of 3e-4 stay below it)."""
    space = random_space(rng, n)
    dist = [list(row) for row in space.dist]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = dist[i][j] + Fraction(rng.randint(-3, 3), 10_000)
    return validate_space(space.points, dist, mode)


def raised_space(rng, n, mode, t):
    """A metric with entries raised by 9e-4, each with probability 1/2.

    Raising entries by at most 9e-4 violates triangles and symmetry by at
    most that, so the tolerance 1e-3 accepts the space.  For ``t % 4 == 0``
    the metric is a ``random_space``, else points at distinct integers on a
    line, where every triple is tight.  For even ``t`` every ordered entry
    rises on its own, so rows (i, j) and (j, i) split differently; for odd
    ``t`` only d(0, i) and d(i, 0) rise, together, which pushes the
    right-hand sides of rows that still split below zero.
    """
    if t % 4 == 0:
        space = random_space(rng, n)
        points, dist = space.points, [list(row) for row in space.dist]
    else:
        xs = rng.sample(range(30), n)
        points = [f"x{i}" for i in range(n)]
        dist = [[Fraction(abs(a - b)) for b in xs] for a in xs]
    lift = Fraction(9, 10_000)
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() < 0.5:
                continue
            if t % 2 == 0:
                dist[i][j] += lift
            elif i == 0:
                dist[0][j] += lift
                dist[j][0] += lift
    return validate_space(points, dist, mode)


def clamps_a_row(space):
    """Whether some Lipschitz right-hand side d(i,j) + d(0,i) - d(0,j) < 0."""
    d, n = space.dist, len(space.points)
    return any(
        d[i][j] + d[0][i] < d[0][j] for i in range(1, n) for j in range(1, n)
    )


@pytest.mark.usefixtures("dense_checked_dual")
class TestFloatDualOracle:
    """The float dual pruned under the ulp guard, against two references.

    On rational spaces the exact dual gives the true value; on spaces whose
    triangles hold only within the tolerance the full-row float program does.
    Every pruned program is also checked against the dense kernel.
    """

    def test_valid_spaces_match_the_exact_value(self):
        mode = float_mode()
        rng = rng_for(73, "float-oracle")
        for t in range(600):
            space = random_space(rng, 2 + t % 11)  # sizes 2-12
            mu, nu = measure_pair(rng, space, t)
            fmu, fnu = as_float(mu, mode), as_float(nu, mode)
            value, potential = kantorovich_dual(fmu, fnu)
            ulps = 8 * ulp(float(diameter(space)))
            assert abs(value - float(kantorovich(mu, nu))) <= ulps
            assert_potential_feasible(fmu.space, potential.as_dict(), ulps)
            # the guard keeps the pairs that the exact integer test keeps
            assert _essential_pairs(fmu.space, fmu.space.dist) == _essential_pairs(
                space, space.lattice[0]
            )

    def test_spaces_within_tolerance_match_the_full_row_program(self):
        mode = float_mode(1e-3)
        rng = rng_for(79, "float-oracle-within-tolerance")
        violated = unclamped = 0
        for t in range(480):
            space = nudged_space(rng, 3 + t % 6, mode)  # sizes 3-8
            d, n = space.dist, len(space.points)
            violated += any(
                d[i][j] > d[i][k] + d[k][j]
                for i in range(n) for j in range(n) for k in range(n)
            )
            mu, nu = measure_pair(rng, space, t)
            value, potential = kantorovich_dual(mu, nu)
            reference, _ = full_row_dual(mu, nu)
            assert abs(value - reference) <= mode.tolerance
            assert_potential_feasible(space, potential.as_dict(), mode.tolerance)
            if not clamps_a_row(space):
                # a raised right-hand side loosens a kept row, and a chain of
                # kept rows with it; with none raised, every dropped row is
                # implied to within a few ulps
                unclamped += 1
                assert abs(value - reference) <= 8 * ulp(diameter(space))
        assert violated >= 300 and unclamped >= 150

    def test_raised_spaces_match_the_full_row_program(self):
        mode = float_mode(1e-3)
        rng = rng_for(83, "float-oracle-raised")
        for t in range(480):
            space = raised_space(rng, 3 + t % 6, mode, t)  # sizes 3-8
            mu, nu = measure_pair(rng, space, t)
            value, potential = kantorovich_dual(mu, nu)
            assert abs(value - full_row_dual(mu, nu)[0]) <= mode.tolerance
            assert_potential_feasible(space, potential.as_dict(), mode.tolerance)

    def test_coarse_distances_keep_every_row(self):
        # distances up to 8e6, whose ulps (up to 1.9e-9) exceed the tolerance
        # 1e-9: pruning would let a chain of kept rows exceed a dropped one
        # by more than the tolerance, so every row stays and the program is
        # the full-row one, whose potential the dual returns c-transformed.
        # With rows pruned, this potential was not 1-Lipschitz at (x3, x4).
        dist = [
            ["0", "2125000", "2000000", "128125000/21", "1000000/7", "83500000/21"],
            ["2125000", "0", "7000000/3", "8000000", "15875000/7", "128125000/21"],
            ["2000000", "7000000/3", "0", "170125000/21", "15000000/7", "125500000/21"],
            ["128125000/21", "8000000", "170125000/21", "0", "17875000/3", "2125000"],
            ["1000000/7", "15875000/7", "15000000/7", "17875000/3", "0", "11500000/3"],
            ["83500000/21", "128125000/21", "125500000/21", "2125000", "11500000/3", "0"],
        ]
        mode = float_mode(1e-9)
        space = validate_space([f"x{i}" for i in range(6)], dist, mode)
        mu = prob_measure(space, {f"x{i}": Fraction(w, 31) for i, w in enumerate((5, 8, 1, 9, 6, 2))})
        nu = prob_measure(space, {f"x{i}": Fraction(w, 37) for i, w in enumerate((3, 7, 6, 7, 8, 6))})
        assert _essential_pairs(space, space.dist) == [[i != j for j in range(6)] for i in range(6)]
        value, potential = kantorovich_dual(mu, nu)
        reference, values = full_row_dual(mu, nu)
        assert value == reference
        transform = [min(f + dij for f, dij in zip(values, row)) for row in space.dist]
        assert potential.as_dict() == dict(zip(space.points, transform))


@pytest.fixture(scope="module")
def gauge_programs():
    """15 sparse exact programs on 12 points, each with its exact value."""
    rng = rng_for(73, "gauge")
    programs = []
    for _ in range(15):
        space = random_space(rng, 12)
        mu, nu = random_measure(rng, space), random_measure(rng, space)
        programs.append((mu, nu, kantorovich(mu, nu)))
    return programs


class TestFloatRoutesAtAnyDistanceScale:
    """Both float routes solve valid spaces whose distances are scaled up.

    Rounding noise in a reduced cost grows with the costs, so the transport
    simplex compares them against a threshold relative to the largest cost.
    Against the absolute threshold 1e-12, 8 of these 15 programs at 10^6/3
    and tolerance 1e-6 exhausted the pivot budget, Bland's rule cycling on
    noise, and so did some at 1e5.  Each value must be the exact value times
    the factor, to within 1e-9 of the largest distance.
    """

    @pytest.mark.parametrize("tolerance", [1e-9, 1e-6])
    @pytest.mark.parametrize(
        "factor",
        [Fraction(1), Fraction(1000, 3), Fraction(10**5), Fraction(10**6, 3)],
        ids=["1", "1000/3", "1e5", "1e6/3"],
    )
    def test_both_routes_match_the_scaled_exact_value(self, gauge_programs, factor, tolerance):
        mode = float_mode(tolerance)
        for mu, nu, exact in gauge_programs:
            space = mu.space
            dist = [[mode.convert(v * factor) for v in row] for row in space.dist]
            fspace = validate_space(space.points, dist, mode)
            fmu, fnu = (
                prob_measure(fspace, {p: mode.convert(w) for p, w in m.weights})
                for m in (mu, nu)
            )
            bound = 1e-9 * max(1.0, float(diameter(space) * factor))
            for route in (kantorovich_primal, kantorovich_dual):
                value, _ = route(fmu, fnu)
                assert abs(value - float(exact * factor)) <= bound, route.__name__


class TestFloatDualPotentialAtAMillion:
    """At distances times 10^6 and tolerance 1e-9 the float dual solves the
    listed valid spaces.

    Pivot rounding leaves the LP's potential up to 32 ulps of a distance off
    1-Lipschitz and ``lipschitz_potential`` compares with the absolute
    tolerance, so only the c-transform passes.  Each value must be the exact
    value times 10^6.
    """

    def test_the_dual_solves_every_listed_draw(self):
        mode = float_mode(1e-9)
        for draw, mu, nu in million_draws():
            space = mu.space
            dist = [[mode.convert(v * 10**6) for v in row] for row in space.dist]
            fspace = validate_space(space.points, dist, mode)
            fmu, fnu = (
                prob_measure(fspace, {p: mode.convert(w) for p, w in m.weights})
                for m in (mu, nu)
            )
            value, _ = kantorovich_dual(fmu, fnu)
            bound = 1e-9 * max(1.0, float(diameter(space) * 10**6))
            assert abs(value - float(kantorovich(mu, nu) * 10**6)) <= bound, draw


class TestMetricAxioms:
    def test_exhaustive_on_two_points(self):
        space = space_ab()
        measures = list(grid_measures(space, 4))
        assert len(measures) == 5
        for mu in measures:
            for nu in measures:
                d1 = kantorovich(mu, nu)
                assert (d1 == 0) == (mu == nu)
                assert d1 == kantorovich(nu, mu)
        for mu in measures:
            for nu in measures:
                for rho in measures:
                    assert kantorovich(mu, rho) <= (
                        kantorovich(mu, nu) + kantorovich(nu, rho)
                    )

    def test_randomized_on_larger_spaces(self):
        rng = rng_for(47, "axioms-random")
        for _ in range(10):
            space = random_space(rng, rng.randint(3, 5))
            mu = random_measure(rng, space)
            nu = random_measure(rng, space)
            rho = random_measure(rng, space)
            assert kantorovich(mu, nu) == kantorovich(nu, mu)
            assert kantorovich(mu, mu) == 0
            assert kantorovich(mu, rho) <= (
                kantorovich(mu, nu) + kantorovich(nu, rho)
            )


class TestDerivedChecks:
    def test_convergence_bound_for_eventually_equal_maps(self):
        dom, cod = space_abc(), space_abc()
        phi = metric_map(dom, cod, {"a": "a", "b": "b", "c": "c"})
        rng = rng_for(59, "convergence")
        stages = [
            metric_map(dom, cod, {"a": "b", "b": "b", "c": "c"}),
            metric_map(dom, cod, {"a": "a", "b": "c", "c": "c"}),
            phi,
        ]
        for stage in stages:
            bound = sup_distance(stage, phi)
            for _ in range(10):
                mu = random_measure(rng, dom)
                moved = kantorovich(pushforward(stage, mu), pushforward(phi, mu))
                assert moved <= bound


class TestValidatorsAndErrors:
    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            kantorovich(dirac(space_ab(), "a"), dirac(space_abc(), "a"))

    def test_exact_and_float_objects_do_not_mix(self):
        exact = space_ab()
        floating = validate_space(exact.points, exact.dist, float_mode())
        with pytest.raises(SpaceMismatch):
            kantorovich(dirac(exact, "a"), dirac(floating, "b"))
        f = metric_map(floating, floating, {"a": "b", "b": "a"})
        with pytest.raises(SpaceMismatch):
            pushforward(f, dirac(exact, "a"))

    def test_lipschitz_potential_validator(self):
        space = space_ab()
        ok = lipschitz_potential(space, {"a": Fraction(0), "b": Fraction(3, 2)})
        assert ok.value("b") == Fraction(3, 2)
        with pytest.raises(InvalidWeights):
            lipschitz_potential(space, {"a": Fraction(0), "b": Fraction(2)})
        with pytest.raises(InvalidWeights):
            lipschitz_potential(space, {"a": Fraction(0)})

    def test_transport_plan_validator(self):
        space = space_ab()
        mu = prob_measure(space, {"a": "1/2", "b": "1/2"})
        nu = dirac(space, "a")
        good = [["1/2", "0"], ["1/2", "0"]]
        assert transport_plan(mu, nu, good).cost() == Fraction(3, 4)
        with pytest.raises(InvalidWeights):
            transport_plan(mu, nu, [["1/2", "0"], ["0", "1/2"]])  # bad columns
        with pytest.raises(InvalidWeights):
            transport_plan(mu, nu, [["1", "-1/2"], ["1/2", "0"]])  # negative
        with pytest.raises(InvalidWeights):
            transport_plan(mu, nu, [["1/2", "0"]])  # not square
        with pytest.raises(SpaceMismatch):
            transport_plan(mu, dirac(space_abc(), "a"), good)


def _verdict(validate, *args):
    """The ``InvalidWeights`` message that ``validate(*args)`` raises, or None."""
    try:
        validate(*args)
    except InvalidWeights as exc:
        return str(exc)
    return None


class TestIntegerValidatorsMatchTheFractionLoops:
    """Exact ``transport_plan`` and ``lipschitz_potential`` compare on one
    integer scale; they accept, reject and name the first failing point or
    pair exactly as the ``Fraction`` loops in ``helpers`` do."""

    @staticmethod
    def _pairs(mode):
        for k in range(12):
            rng = rng_for(k, "integer-validators")
            space = random_space(rng, 3 + k % 4, mode=mode)
            yield space, random_measure(rng, space), random_measure(rng, space)

    def _assert_plan_agrees(self, mu, nu, matrix):
        expected = reference_plan_verdict(mu, nu, matrix)
        assert _verdict(transport_plan, mu, nu, matrix) == expected
        return expected

    @pytest.mark.parametrize("mode, step", [(EXACT, Fraction(1, 10007 * 10009)),
                                            (float_mode(), 1e-6)], ids=["exact", "float"])
    def test_plan_entries_with_denominators_coprime_to_the_weights(self, mode, step):
        seen = set()
        for space, mu, nu in self._pairs(mode):
            _, plan = kantorovich_primal(mu, nu)
            n = len(space.points)
            for i, j in itertools.product(range(n), repeat=2):
                k, m = (i + 1) % n, (j + 1) % n
                # a 2x2 cycle keeps every marginal; one entry moves a row and a column
                cycle = [list(row) for row in plan.matrix]
                cycle[i][j] += step
                cycle[k][m] += step
                cycle[i][m] -= step
                cycle[k][j] -= step
                single = [list(row) for row in plan.matrix]
                single[k][m] += step
                seen.add(self._assert_plan_agrees(mu, nu, cycle))
                seen.add(self._assert_plan_agrees(mu, nu, single))
        assert None in seen and "plan entries must be nonnegative" in seen
        assert any(v and v.startswith("row marginal") for v in seen)

    def test_an_entry_off_by_ten_to_the_minus_forty(self):
        tiny = Fraction(1, 10**40)
        for space, mu, nu in self._pairs(EXACT):
            _, plan = kantorovich_primal(mu, nu)
            pts = space.points
            zero_cell = next((i, j) for i, row in enumerate(plan.matrix)
                             for j, v in enumerate(row) if v == 0)
            for i, j in [(0, 0), zero_cell]:
                for sign in (1, -1):
                    matrix = [list(row) for row in plan.matrix]
                    matrix[i][j] += sign * tiny
                    if matrix[i][j] < 0:
                        want = "plan entries must be nonnegative"
                    else:
                        want = f"row marginal at {pts[i]!r} does not match the source"
                    assert self._assert_plan_agrees(mu, nu, matrix) == want
            # the column alone: move mass within a row
            matrix = [list(row) for row in plan.matrix]
            matrix[0][0] += tiny
            matrix[0][1] -= tiny
            got = self._assert_plan_agrees(mu, nu, matrix)
            assert got in (None, "plan entries must be nonnegative",
                           f"column marginal at {pts[0]!r} does not match the target")

    def test_a_potential_off_by_one_unit_at_a_scale_coprime_to_the_lattice(self):
        verdicts = []
        for space, mu, nu in self._pairs(EXACT):
            _, potential = kantorovich_dual(mu, nu)
            d, s = space.lattice
            q = next(q for q in range(10007, 10**6) if gcd(q, s) == 1)
            pts = space.points
            f = potential.as_dict()
            for i, j in itertools.combinations(range(len(pts)), 2):
                # the last unit of 1/q within d(i, j), and the first past it
                below = floor(space.dist[i][j] * q)
                for units in (below, below + 1):
                    g = dict(f)
                    g[pts[j]] = f[pts[i]] + Fraction(units, q)
                    expected = reference_potential_verdict(space, g)
                    assert _verdict(lipschitz_potential, space, g) == expected
                    verdicts.append(expected)
        assert None in verdicts and len(set(verdicts)) > 2

    def test_numbers_of_four_thousand_digits(self):
        big = Fraction(10**4000)
        space = validate_space("abc", [[0, big, 2 * big], [big, 0, big], [2 * big, big, 0]])
        for c, expected in [(2 * big, None),
                            (2 * big + 1, "potential is not 1-Lipschitz at ('a', 'c')"),
                            (2 * big - Fraction(1, 10**4000), None)]:
            g = {"a": Fraction(0), "b": big, "c": c}
            assert reference_potential_verdict(space, g) == expected
            assert _verdict(lipschitz_potential, space, g) == expected
        tiny = Fraction(1, 10**4000)
        mu = prob_measure(space, {"a": 1 - tiny, "c": tiny})
        nu = prob_measure(space, {"b": 1 - tiny, "c": tiny})
        good = [[0, 1 - tiny, 0], [0, 0, 0], [0, 0, tiny]]
        assert self._assert_plan_agrees(mu, nu, good) is None
        good[0][1] -= tiny
        good[0][2] += tiny
        assert self._assert_plan_agrees(mu, nu, good) == (
            "column marginal at 'b' does not match the target")
