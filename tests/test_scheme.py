"""Extension of maps and metrics from subset family members to the ambient space."""

import importlib
import itertools
from fractions import Fraction

import pytest

from zfun import (
    ANCHOR_PREFIX,
    AnchorDiameterNotOne,
    BadParameters,
    InvalidMetric,
    NotInFamily,
    NotSetwiseInvariant,
    SpaceMismatch,
    build_finite_fixture,
    compose,
    decompose_automorphism,
    diameter,
    extend_map,
    extend_metric,
    float_mode,
    glue_map,
    glue_space,
    identity_map,
    image,
    is_bijective,
    is_injective,
    is_surjective,
    member_space,
    metric_map,
    subspace,
    validate_space,
)
from zfun.generate import random_map, random_space, rng_for
from zfun.scheme import _bijections

from helpers import all_maps


@pytest.fixture(scope="module")
def ctx42():
    return build_finite_fixture(4, 2, seed=0)


def family_map(ctx, dom_key, cod_key, assignment):
    return metric_map(
        subspace(ctx.ambient, dom_key), subspace(ctx.ambient, cod_key), assignment
    )


class TestFixtureShape:
    def test_frozen_shape(self, ctx42):
        assert ctx42.ambient.points == ("x0", "x1", "x2", "x3")
        assert len(ctx42.family) == 6
        assert ctx42.family == tuple(
            itertools.combinations(("x0", "x1", "x2", "x3"), 2)
        )
        assert ctx42.pad.points == (ANCHOR_PREFIX + "0", ANCHOR_PREFIX + "1")
        assert diameter(ctx42.pad) == 1

    def test_charts_are_member_preserving_bijections(self, ctx42):
        for member in ctx42.family:
            chart = ctx42.chart(member)
            assert set(chart.keys()) == set(member) | set(ctx42.pad.points)
            assert set(chart.values()) == set(ctx42.ambient.points)
            assert {chart[x] for x in member} == set(member)

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            build_finite_fixture(4, 0)
        with pytest.raises(BadParameters):
            build_finite_fixture(4, 3)  # needs k <= n/2
        with pytest.raises(BadParameters):
            build_finite_fixture("4", 2)
        wrong_size = random_space(rng_for(0, "wrong"), 3)
        with pytest.raises(BadParameters):
            build_finite_fixture(4, 2, ambient=wrong_size)

    def test_member_lookup(self, ctx42):
        assert ctx42.member(["x2", "x0"]) == ("x0", "x2")
        with pytest.raises(NotInFamily):
            ctx42.member(["x0"])  # wrong size
        with pytest.raises(NotInFamily):
            ctx42.member(["x0", "z9"])  # unknown label

    def test_seeded_reproducibility(self):
        again = build_finite_fixture(4, 2, seed=0)
        assert again.ambient == build_finite_fixture(4, 2, seed=0).ambient
        other = build_finite_fixture(4, 2, seed=1)
        assert other.ambient != again.ambient


class TestExtension:
    def test_extension_restricts_exhaustively(self, ctx42):
        for dom_key in ctx42.family:
            dom = subspace(ctx42.ambient, dom_key)
            for cod_key in ctx42.family:
                cod = subspace(ctx42.ambient, cod_key)
                for phi in all_maps(dom, cod):
                    result = extend_map(ctx42, phi)
                    assert result.original == phi
                    hat = result.extension
                    assert hat.domain == hat.codomain == ctx42.ambient
                    assert all(hat(x) == phi(x) for x in dom_key)

    def test_identity_law_per_member(self, ctx42):
        for key in ctx42.family:
            member = subspace(ctx42.ambient, key)
            hat = extend_map(ctx42, identity_map(member)).extension
            assert hat == identity_map(ctx42.ambient)

    def test_composition_law_exhaustive(self, ctx42):
        for k1, k2, k3 in itertools.product(ctx42.family, repeat=3):
            s1 = subspace(ctx42.ambient, k1)
            s2 = subspace(ctx42.ambient, k2)
            s3 = subspace(ctx42.ambient, k3)
            for phi in all_maps(s1, s2):
                for psi in all_maps(s2, s3):
                    lhs = extend_map(ctx42, compose(psi, phi)).extension
                    rhs = compose(
                        extend_map(ctx42, psi).extension,
                        extend_map(ctx42, phi).extension,
                    )
                    assert lhs == rhs

    def test_transfers_exhaustive(self, ctx42):
        for dom_key in ctx42.family:
            dom = subspace(ctx42.ambient, dom_key)
            for cod_key in ctx42.family:
                cod = subspace(ctx42.ambient, cod_key)
                for phi in all_maps(dom, cod):
                    hat = extend_map(ctx42, phi).extension
                    assert is_injective(hat) == is_injective(phi)
                    assert is_surjective(hat) == is_surjective(phi)
                    # the ambient image is the map's image plus everything
                    # outside the codomain member
                    expected = set(image(phi)) | (
                        set(ctx42.ambient.points) - set(cod_key)
                    )
                    assert set(image(hat)) == expected

    def test_domain_must_be_in_family(self, ctx42):
        whole = identity_map(ctx42.ambient)
        with pytest.raises(NotInFamily):
            extend_map(ctx42, whole)

    def test_works_with_single_point_pad(self):
        ctx = build_finite_fixture(2, 1, seed=3)
        (first, second) = ctx.ambient.points
        phi = family_map(ctx, (first,), (second,), {first: second})
        hat = extend_map(ctx, phi).extension
        assert hat(first) == second


class TestMetricExtension:
    def test_restriction_and_diameter(self, ctx42):
        rng = rng_for(83, "metric-extension")
        for key in ctx42.family:
            d = random_space(rng, len(key), labels=key)
            extended = extend_metric(ctx42, key, d)
            assert extended.points == ctx42.ambient.points
            for x in key:
                for y in key:
                    assert extended.distance(x, y) == d.distance(x, y)
            assert diameter(extended) == max(Fraction(1), diameter(d))

    def test_two_axiom_scans_per_extension(self, monkeypatch):
        # one scan in glue_space, one on the final ambient metric
        ctx = build_finite_fixture(6, 3, seed=0)
        key = ctx.family[4]
        d = random_space(rng_for(7, "scan-count"), len(key), labels=key)
        spaces = importlib.import_module("zfun.spaces")
        scanned = []
        scan = spaces.metric_violations

        def counting(points, dist, mode):
            scanned.append(len(points))
            return scan(points, dist, mode)

        monkeypatch.setattr(spaces, "metric_violations", counting)
        extended = extend_metric(ctx, key, d)
        assert scanned == [len(key) + len(ctx.pad), len(ctx.ambient)]
        assert subspace(extended, key).dist == d.dist

    def test_wrong_point_set_rejected(self, ctx42):
        stranger = random_space(rng_for(5, "stranger"), 2, prefix="w")
        with pytest.raises(InvalidMetric):
            extend_metric(ctx42, ("x0", "x1"), stranger)

    def test_single_point_pad_cannot_extend_metrics(self):
        ctx = build_finite_fixture(2, 1, seed=0)
        key = (ctx.ambient.points[0],)
        d = subspace(ctx.ambient, key)
        with pytest.raises(AnchorDiameterNotOne):
            extend_metric(ctx, key, d)

    def test_extension_isometry(self, ctx42):
        rng = rng_for(89, "scheme-isometry")
        dom_key = ctx42.family[0]
        cod_key = ctx42.family[3]
        dom = subspace(ctx42.ambient, dom_key)
        cod = subspace(ctx42.ambient, cod_key)
        d = random_space(rng, len(cod_key), labels=cod_key)
        pairs = [
            (random_map(rng, dom, cod), random_map(rng, dom, cod))
            for _ in range(12)
        ]
        # the sup distance under d is the sup distance of the two extensions
        # under the extended metric
        extended = extend_metric(ctx42, cod_key, d)
        for phi, psi in pairs:
            phi_hat, psi_hat = (extend_map(ctx42, f).extension for f in (phi, psi))
            lhs = max(d.distance(phi(x), psi(x)) for x in dom.points)
            rhs = max(extended.distance(phi_hat(a), psi_hat(a))
                      for a in ctx42.ambient.points)
            assert lhs == rhs


class TestPadded:
    """Member-plus-pad is the member glued to the pad as its anchor."""

    def test_padded_points_and_cross_distance(self, ctx42):
        key = ctx42.family[0]
        space = glue_space(member_space(ctx42, key), ctx42.pad)
        assert space.points == key + ctx42.pad.points
        member = subspace(ctx42.ambient, key)
        cross = max(diameter(member), Fraction(1))
        for x in key:
            for w in ctx42.pad.points:
                assert space.distance(x, w) == cross

    def test_padded_map_acts_as_identity_on_pad(self, ctx42):
        dom = member_space(ctx42, ctx42.family[0])
        cod = member_space(ctx42, ctx42.family[1])
        rng = rng_for(97, "padded-map")
        f = random_map(rng, dom, cod)
        padded = glue_map(f, ctx42.pad)
        for x in dom.points:
            assert padded(x) == f(x)
        for w in ctx42.pad.points:
            assert padded(w) == w

    def test_padded_functor_laws(self, ctx42):
        rng = rng_for(101, "padded-functor")
        k1, k2, k3 = ctx42.family[0], ctx42.family[2], ctx42.family[5]
        s1, s2, s3 = (member_space(ctx42, k) for k in (k1, k2, k3))
        for _ in range(10):
            f = random_map(rng, s1, s2)
            g = random_map(rng, s2, s3)
            assert glue_map(identity_map(s1), ctx42.pad) == identity_map(
                glue_space(member_space(ctx42, k1), ctx42.pad)
            )
            assert glue_map(compose(g, f), ctx42.pad) == compose(
                glue_map(g, ctx42.pad), glue_map(f, ctx42.pad)
            )


class TestDecomposition:
    def test_exhaustive_factorization_n4_k2(self, ctx42):
        key = ctx42.family[0]
        preserving = _bijections(ctx42, key, inside=True)
        fixing = _bijections(ctx42, key, inside=False)
        assert len(preserving) == 4  # 2! on the member times 2! outside
        assert fixing == [h for h in preserving if all(h(x) == x for x in key)]
        member = subspace(ctx42.ambient, key)
        rebuilt = []
        for h in preserving:
            u, v = decompose_automorphism(ctx42, key, h)
            assert compose(u, v) == h
            assert all(u(x) == x for x in key)
            restriction = metric_map(member, member, {x: h(x) for x in key})
            assert v == extend_map(ctx42, restriction).extension
            rebuilt.append(h)
        # the pairing (fixing, restriction-extension) -> product is a bijection
        products = {
            compose(u, v).assignment
            for u in fixing
            for v in (
                extend_map(ctx42, g).extension
                for g in all_maps(member, member)
                if is_bijective(g)
            )
        }
        assert products == {h.assignment for h in preserving}
        assert len(rebuilt) == len(preserving)

    def test_group_homomorphism_k2(self, ctx42):
        key = ctx42.family[4]
        member = subspace(ctx42.ambient, key)
        bijections = [g for g in all_maps(member, member) if is_bijective(g)]
        assert len(bijections) == 2
        for g1 in bijections:
            for g2 in bijections:
                lhs = extend_map(ctx42, compose(g1, g2)).extension
                rhs = compose(
                    extend_map(ctx42, g1).extension,
                    extend_map(ctx42, g2).extension,
                )
                assert lhs == rhs

    def test_group_homomorphism_k3(self):
        ctx = build_finite_fixture(6, 3, seed=2)
        key = ctx.family[0]
        member = subspace(ctx.ambient, key)
        bijections = [g for g in all_maps(member, member) if is_bijective(g)]
        assert len(bijections) == 6
        for g1 in bijections:
            for g2 in bijections:
                assert extend_map(ctx, compose(g1, g2)).extension == compose(
                    extend_map(ctx, g1).extension,
                    extend_map(ctx, g2).extension,
                )

    def test_rejections(self, ctx42):
        key = ctx42.family[0]
        not_bijective = metric_map(
            ctx42.ambient,
            ctx42.ambient,
            {p: ctx42.ambient.points[0] for p in ctx42.ambient.points},
        )
        with pytest.raises(BadParameters):
            decompose_automorphism(ctx42, key, not_bijective)
        # a bijection moving x0 out of {x0, x1}
        swap_across = metric_map(
            ctx42.ambient,
            ctx42.ambient,
            {"x0": "x2", "x2": "x0", "x1": "x1", "x3": "x3"},
        )
        with pytest.raises(NotSetwiseInvariant):
            decompose_automorphism(ctx42, key, swap_across)
        member = subspace(ctx42.ambient, key)
        with pytest.raises(BadParameters):
            decompose_automorphism(ctx42, key, identity_map(member))


class TestChartIndependence:
    """The verified properties do not depend on which charts were drawn."""

    @pytest.mark.parametrize("h_seed", [0, 1, 2])
    def test_properties_hold_for_randomized_charts(self, h_seed):
        ctx = build_finite_fixture(5, 2, seed=9, h_seed=h_seed)
        rng = rng_for(h_seed, "chart-independence")
        dom_key = ctx.family[0]
        cod_key = ctx.family[-1]
        dom = subspace(ctx.ambient, dom_key)
        cod = subspace(ctx.ambient, cod_key)
        for _ in range(15):
            phi = random_map(rng, dom, cod)
            hat = extend_map(ctx, phi).extension
            assert all(hat(x) == phi(x) for x in dom_key)
            assert is_injective(hat) == is_injective(phi)
            assert set(image(hat)) == set(image(phi)) | (
                set(ctx.ambient.points) - set(cod_key)
            )
        assert extend_map(ctx, identity_map(dom)).extension == identity_map(
            ctx.ambient
        )
        d = random_space(rng, len(dom_key), labels=dom_key)
        extended = extend_metric(ctx, dom_key, d)
        for x in dom_key:
            for y in dom_key:
                assert extended.distance(x, y) == d.distance(x, y)

    def test_charts_actually_vary(self):
        canonical = build_finite_fixture(5, 2, seed=9)
        shuffled = build_finite_fixture(5, 2, seed=9, h_seed=1)
        assert canonical.ambient == shuffled.ambient
        assert any(
            canonical.chart(m) != shuffled.chart(m) for m in canonical.family
        )


class TestFloatTolerance:
    """A fixture compares in the tolerance its spaces were validated with."""

    MODE = float_mode(1e-3)
    LABELS = ("x0", "x1", "x2", "x3")

    def ambient(self):
        # d(x1, x0) exceeds d(x0, x1) by 5e-4, within the 1e-3 tolerance
        dist = [[1.0 if i != j else 0.0 for j in range(4)] for i in range(4)]
        dist[1][0] = 1.0005
        return validate_space(self.LABELS, dist, self.MODE)

    def test_padding_and_metric_extension_keep_the_tolerance(self):
        ctx = build_finite_fixture(4, 2, seed=0, mode=self.MODE, ambient=self.ambient())
        member = ("x0", "x1")
        padded = glue_space(member_space(ctx, member), ctx.pad)
        assert padded.mode == self.MODE
        assert padded.distance("x1", "x0") == 1.0005
        d = validate_space(member, [[0.0, 2.0], [2.0005, 0.0]], self.MODE)
        extended = extend_metric(ctx, member, d)
        assert extended.mode == self.MODE
        assert extended.distance("x0", "x1") == 2.0
        assert extended.distance("x1", "x0") == 2.0005

    def test_exact_inputs_are_rejected(self):
        ctx = build_finite_fixture(4, 2, seed=0, mode=self.MODE, ambient=self.ambient())
        exact = random_space(rng_for(7, "exact-metric"), 2, labels=("x0", "x1"))
        with pytest.raises(SpaceMismatch):
            extend_metric(ctx, ("x0", "x1"), exact)
        with pytest.raises(SpaceMismatch):
            build_finite_fixture(4, 2, seed=0, ambient=self.ambient())
