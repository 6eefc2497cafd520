"""Kantorovich distance: dual and primal routes, certificates, derived checks.

The primal route is checked against a third, test-only oracle that enumerates
every basic solution of the transportation polytope, so the two solvers in the
package are cross-examined by code sharing nothing with either.
"""

import hashlib
import importlib
from fractions import Fraction
from math import lcm

import pytest

from zfun import (
    EXACT,
    InvalidWeights,
    SpaceMismatch,
    dirac,
    duality_gap,
    float_mode,
    format_number,
    kantorovich,
    kantorovich_dual,
    kantorovich_primal,
    lipschitz_potential,
    map_isometry_check,
    measure_diameter_check,
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
from zfun.kantorovich import _transport_simplex
from zfun.simplexlp import solve_inequality_lp

from helpers import (
    assert_plan_feasible,
    assert_potential_feasible,
    brute_min_transport_cost,
    grid_measures,
    plan_cost,
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
    identical measures.
    """

    DIGESTS = {
        "exact": "95b432479e00599f7b76628dd432996958d6ff2e10e1b39d875535404b627ef4",
        "float": "3decbe43e531bd81ddb76e06d3d4111945bc1b4749ce2ff06a6bd8e098db3e18",
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


def fraction_primal(mu, nu):
    """The transport simplex run on the ``Fraction``s themselves, threshold 0.

    This is the exact primal route without integer scaling, the reference
    that the scaled route must reproduce cell for cell.
    """
    space = mu.space
    src = [space.index(p) for p, _ in mu.weights]
    snk = [space.index(q) for q, _ in nu.weights]
    costs = [[space.dist[i][j] for j in snk] for i in src]
    flow = _transport_simplex(
        costs,
        [w for _, w in mu.weights],
        [w for _, w in nu.weights],
        Fraction(0),
        Fraction(0),
    )
    n = len(space.points)
    matrix = [[Fraction(0)] * n for _ in range(n)]
    value = Fraction(0)
    for (r, c), amount in flow.items():
        matrix[src[r]][snk[c]] = amount
        value += amount * costs[r][c]
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


class TestIntegerTransportMatchesFractions:
    def test_plan_and_value_match_the_fraction_simplex(self):
        max_dist_den = max_weight_lcm = 0
        for mu, nu in lattice_pairs(rng_for(67, "integer-transport")):
            value, plan = kantorovich_primal(mu, nu)
            ref_value, ref_matrix = fraction_primal(mu, nu)
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


def full_row_dual(mu, nu):
    """The dual LP with every bound and Lipschitz row, none pruned.

    This is the exact dual route before essential-pair pruning, the reference
    whose optimum the pruned program must reproduce.  Returns the value and
    the potential as a tuple in point order.
    """
    space = mu.space
    d, n = space.dist, len(space.points)
    c = [mu.weight(p) - nu.weight(p) for p in space.points[1:]]
    rows, rhs = [], []
    for i in range(1, n):
        row = [0] * (n - 1)
        row[i - 1] = 1
        rows.append(row)
        rhs.append(2 * d[0][i])
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                row = [0] * (n - 1)
                row[i - 1], row[j - 1] = 1, -1
                rows.append(row)
                rhs.append(d[i][j] + d[0][i] - d[0][j])
    lp_value, g = solve_inequality_lp(c, rows, rhs, EXACT)
    shift = sum(c[i - 1] * d[0][i] for i in range(1, n))
    return lp_value - shift, (Fraction(0), *(g[i - 1] - d[0][i] for i in range(1, n)))


def dual_programs(rng):
    """540 exact measure pairs: 528 on 2-12 points, then one on each of 13-24.

    The pairs cycle through full-support, sparse and Dirac measures (two
    Diracs may sit on one point).  Large sizes are few because the full-row
    reference grows as n^2 rows.
    """
    sizes = [2 + t % 11 for t in range(528)] + list(range(13, 25))
    for t, n in enumerate(sizes):
        space = random_space(rng, n)
        if t % 3 == 2:
            yield dirac(space, rng.choice(space.points)), dirac(
                space, rng.choice(space.points)
            )
        else:
            full = t % 3 == 0
            yield random_measure(rng, space, full_support=full), random_measure(
                rng, space, full_support=full
            )


def path_space(mode):
    """Six points on a line with uneven gaps: only neighbours are essential."""
    at = [Fraction(v) for v in (0, 1, "5/2", 3, "17/4", 7)]
    dist = [[mode.convert(abs(a - b)) for b in at] for a in at]
    return validate_space([f"p{i}" for i in range(len(at))], dist, mode)


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
        "mode, expected", [(EXACT, 1 + 2 * 4), (float_mode(), 5 * 5)],
        ids=["exact", "float"],
    )
    def test_kept_rows_on_a_path_metric(self, monkeypatch, mode, expected):
        # exact: the bound row of (p0, p1) and both directions of the four
        # neighbour pairs among p1..p5; float: all 5 bound and 20 Lipschitz rows
        module = importlib.import_module("zfun.kantorovich")
        shapes = []

        def recording(c, rows, b, mode):
            shapes.append(len(rows))
            return solve_inequality_lp(c, rows, b, mode)

        monkeypatch.setattr(module, "solve_inequality_lp", recording)
        space = path_space(mode)
        mu = prob_measure(space, {"p0": "1/2", "p3": "1/2"})
        nu = prob_measure(space, {"p2": "1/3", "p5": "2/3"})
        value, potential = kantorovich_dual(mu, nu)
        assert shapes == [expected]
        assert abs(value - kantorovich_primal(mu, nu)[0]) <= mode.tolerance
        assert_potential_feasible(space, potential.as_dict(), mode.tolerance)


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
    def test_measure_diameter_check(self):
        best, diam = measure_diameter_check(space_abc())
        assert best == diam == Fraction(3, 2)

    def test_map_isometry_check(self):
        dom, cod = space_ab(), space_abc()
        phi = metric_map(dom, cod, {"a": "a", "b": "b"})
        psi = metric_map(dom, cod, {"a": "c", "b": "b"})
        rng = rng_for(53, "map-isometry")
        sampled = [random_measure(rng, dom) for _ in range(30)]
        attained, bound = map_isometry_check(phi, psi, sampled)
        assert attained == bound == sup_distance(phi, psi) == Fraction(1)

    def test_map_isometry_check_requires_shared_shape(self):
        phi = metric_map(space_ab(), space_ab(), {"a": "a", "b": "b"})
        psi = metric_map(space_abc(), space_abc(), {p: p for p in "abc"})
        with pytest.raises(SpaceMismatch):
            map_isometry_check(phi, psi)

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

    def test_sampled_bound_violation_raises(self):
        """A fake 'sampled measure' living farther than the bound trips the check."""
        dom, cod = space_ab(), space_abc()
        phi = metric_map(dom, cod, {"a": "a", "b": "a"})
        psi = metric_map(dom, cod, {"a": "a", "b": "a"})  # identical: bound 0
        stranger = prob_measure(dom, {"a": "1/2", "b": "1/2"})
        # identical maps push any measure to the same spot: bound holds
        attained, bound = map_isometry_check(phi, psi, [stranger])
        assert attained == bound == 0
