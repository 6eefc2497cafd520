"""Finite metric spaces, maps, sup distance, and anchor gluing."""

import importlib
import math
from fractions import Fraction
from operator import sub

import pytest

from zfun import (
    ANCHOR_PREFIX,
    AnchorDiameterNotOne,
    AxiomViolation,
    BadParameters,
    DomainMismatch,
    EXACT,
    FormatError,
    SpaceMismatch,
    UnknownPoint,
    build_finite_fixture,
    compose,
    default_anchor,
    diameter,
    extend_metric,
    float_mode,
    glue_map,
    glue_space,
    identity_map,
    image,
    invert,
    is_bijective,
    is_injective,
    is_surjective,
    metric_map,
    metric_violations,
    relabel_disjoint,
    subspace,
    sup_distance,
    validate_space,
)
from zfun.generate import normalize_diameter, random_map, random_space, rng_for

from helpers import (
    all_maps,
    brute_metric_violations,
    reference_metric_violations,
    space_ab,
    space_abc,
    space_small_diam,
    space_square,
)


class TestValidateSpace:
    def test_accepts_documented_example(self):
        space = space_ab()
        assert space.points == ("a", "b")
        assert space.distance("a", "b") == Fraction(3, 2)
        assert diameter(space) == Fraction(3, 2)

    def test_singleton_is_fine(self):
        space = validate_space(["only"], [["0"]])
        assert diameter(space) == 0

    def test_empty_rejected(self):
        with pytest.raises(BadParameters):
            validate_space([], [])

    def test_duplicate_labels_rejected(self):
        with pytest.raises(BadParameters):
            validate_space(["a", "a"], [["0", "1"], ["1", "0"]])

    def test_non_string_labels_rejected(self):
        with pytest.raises(BadParameters):
            validate_space(["a", 1], [["0", "1"], ["1", "0"]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BadParameters):
            validate_space(["a", "b"], [["0", "1"]])
        with pytest.raises(BadParameters):
            validate_space(["a", "b"], [["0", "1"], ["1"]])

    def test_identity_violation_tagged(self):
        with pytest.raises(AxiomViolation) as err:
            validate_space(["a", "b"], [["1", "1"], ["1", "0"]])
        assert ("identity", ("a",)) in err.value.violations

    def test_symmetry_violation_tagged(self):
        with pytest.raises(AxiomViolation) as err:
            validate_space(["a", "b"], [["0", "1"], ["2", "0"]])
        assert ("symmetry", ("a", "b")) in err.value.violations

    def test_positivity_violation_tagged(self):
        with pytest.raises(AxiomViolation) as err:
            validate_space(["a", "b"], [["0", "0"], ["0", "0"]])
        assert ("positivity", ("a", "b")) in err.value.violations

    def test_triangle_violation_tagged(self):
        with pytest.raises(AxiomViolation) as err:
            validate_space(
                ["a", "b", "c"],
                [["0", "1", "5"], ["1", "0", "1"], ["5", "1", "0"]],
            )
        assert ("triangle", ("a", "b", "c")) in err.value.violations

    def test_all_violations_collected(self):
        with pytest.raises(AxiomViolation) as err:
            validate_space(
                ["a", "b", "c"],
                [["2", "0", "5"], ["0", "0", "1"], ["5", "1", "0"]],
            )
        axioms = {axiom for axiom, _ in err.value.violations}
        assert {"identity", "positivity", "triangle"} <= axioms

    def test_agrees_with_independent_scan_on_mutations(self):
        """Random symmetric mutations: library verdict == first-principles scan."""
        rng = rng_for(2024, "validator-vs-oracle")
        for trial in range(150):
            space = random_space(rng, rng.randint(2, 5))
            matrix = [list(row) for row in space.dist]
            n = len(matrix)
            kind = trial % 4
            i = rng.randrange(n)
            j = rng.randrange(n)
            while j == i:
                j = rng.randrange(n)
            if kind == 0:  # break identity
                matrix[i][i] = Fraction(1, 3)
            elif kind == 1:  # break symmetry
                matrix[i][j] = matrix[i][j] + 1
            elif kind == 2:  # break positivity (symmetric)
                matrix[i][j] = matrix[j][i] = Fraction(0)
            else:  # inflate one distance (symmetric) — may break the triangle
                matrix[i][j] = matrix[j][i] = matrix[i][j] * 100
            expected = brute_metric_violations(space.points, matrix)
            got = set(
                (axiom, tuple(witness))
                for axiom, witness in metric_violations(space.points, matrix)
            )
            assert got == expected

    def test_float_mode_tolerates_noise(self):
        noisy = 1.0 + 1e-12
        space = validate_space(
            ["a", "b"], [[0.0, noisy], [1.0, 0.0]], float_mode()
        )
        assert space.distance("a", "b") == noisy


class TestScanMatchesReference:
    """The integer-lattice scan lists what the Mode-comparison scan lists, in order."""

    MODES = [EXACT, float_mode(), float_mode(1e-3)]

    @staticmethod
    def value(rng, mode):
        """An arbitrary entry: a rational of either sign, or (float mode) the tolerance edge."""
        q = Fraction(rng.randint(-40, 40), rng.randint(1, 8))
        if mode.is_exact:
            return q
        tol = mode.tolerance
        return rng.choice([float(q), 0.0, -0.0, tol, -tol, math.nextafter(tol, math.inf)])

    @classmethod
    def bump(cls, rng, mode):
        """A small excess: zero, or (float mode) exactly the tolerance or one ulp above."""
        if mode.is_exact:
            return rng.choice([Fraction(0), Fraction(1, 7), Fraction(-1, 3)])
        tol = mode.tolerance
        return rng.choice([0.0, tol, math.nextafter(tol, math.inf)])

    @classmethod
    def edit(cls, rng, d, mode):
        """One seeded edit that may break identity, symmetry, positivity or a triangle."""
        n = len(d)
        i, j, k = (rng.randrange(n) for _ in range(3))
        kind = rng.randrange(4)
        if kind == 0:
            d[i][j] = cls.value(rng, mode)
        elif kind == 1:
            d[i][j] = d[j][i] = cls.value(rng, mode)
        elif kind == 2:
            d[j][i] = d[i][j] + cls.bump(rng, mode)
        else:
            d[i][k] = d[k][i] = d[i][j] + d[j][k] + cls.bump(rng, mode)

    @pytest.mark.parametrize("mode", MODES, ids=["exact", "float", "float-1e-3"])
    def test_seeded_mutations(self, mode):
        rng = rng_for(7, f"scan-vs-reference-{mode.tolerance}")
        kinds = set()
        for _ in range(300):
            space = random_space(rng, rng.randint(1, 7), mode=mode)
            d = [list(row) for row in space.dist]
            for _ in range(rng.randint(0, 3)):
                self.edit(rng, d, mode)
            got = metric_violations(space.points, d, mode)
            assert got == reference_metric_violations(space.points, d, mode)
            kinds.update(axiom for axiom, _ in got)
        assert kinds == {"identity", "symmetry", "positivity", "triangle"}

    @pytest.mark.parametrize("mode", MODES[1:], ids=["float", "float-1e-3"])
    def test_float_edges_at_and_one_ulp_past_the_tolerance(self, mode):
        tol = mode.tolerance
        above = math.nextafter(tol, math.inf)
        for x in (tol, above, -tol, -above):
            for d in (
                [[x]],
                [[0.0, x], [x, 0.0]],
                [[0.0, 1.0], [1.0 + x, 0.0]],
                [[0.0, 1.0, 2.0 + x], [1.0, 0.0, 1.0], [2.0 + x, 1.0, 0.0]],
            ):
                pts = [f"p{i}" for i in range(len(d))]
                assert metric_violations(pts, d, mode) == reference_metric_violations(
                    pts, d, mode
                )
        assert metric_violations(["a"], [[tol]], mode) == []
        assert metric_violations(["a"], [[above]], mode) == [("identity", ("a",))]

    @pytest.mark.parametrize("mode", MODES[1:], ids=["float", "float-1e-3"])
    def test_nan_is_a_violation_in_float_mode(self, mode):
        nan = math.nan
        for d in (
            [[nan]],
            [[0.0, nan], [1.0, 0.0]],
            [[0.0, 1.0, nan], [1.0, 0.0, 1.0], [nan, 1.0, 0.0]],
        ):
            pts = [f"p{i}" for i in range(len(d))]
            got = metric_violations(pts, d, mode)
            assert got and got == reference_metric_violations(pts, d, mode)

    @staticmethod
    def line(n, number=float):
        """The metric |i - j| on n points; every collinear triangle is tight."""
        return [[number(abs(i - j)) for j in range(n)] for i in range(n)]

    @classmethod
    def half_walk_cases(cls, tol):
        """Float matrices around the i < k walk of an exactly symmetric matrix:
        ``(name, matrix, triangles the scan must list or None for any)``."""
        edge = 2.0 + tol  # the largest double e with e - 2.0 <= tol, and the next
        while edge - 2.0 > tol:
            edge = math.nextafter(edge, -math.inf)
        while math.nextafter(edge, math.inf) - 2.0 <= tol:
            edge = math.nextafter(edge, math.inf)
        past = math.nextafter(edge, math.inf)
        cases = []
        for (i, k), value in (((0, 3), 3.5), ((2, 3), 3.5), ((0, 1), 3.5)):
            d = cls.line(4)
            d[i][k] = d[k][i] = value
            cases.append((f"symmetric-break-{i}{k}", d, None))
        d = cls.line(3)
        d[0][2] = d[2][0] = past
        cases.append(("symmetric-one-ulp-past", d, [("p0", "p1", "p2"), ("p2", "p1", "p0")]))
        for name, upper, lower, bad in (
            ("ulp-off-below", edge, past, [("p2", "p1", "p0")]),
            ("ulp-off-above", past, edge, [("p0", "p1", "p2")]),
            ("asymmetric-above", 3.0, 2.0, [("p0", "p1", "p2")]),
            ("asymmetric-below", 2.0, 3.0, [("p2", "p1", "p0")]),
        ):
            d = cls.line(3)
            d[0][2], d[2][0] = upper, lower
            cases.append((name, d, bad))
        d = cls.line(4)
        d[1][3] = d[3][1] = math.nan
        cases.append(("nan-both-sides", d, None))
        d = cls.line(4)
        d[3][1] = math.nan
        cases.append(("nan-below", d, None))
        return cases

    @classmethod
    def exact_half_walk_cases(cls):
        """The same walk on ``int`` lattice rows, compared with tolerance zero."""
        cases = []
        for (i, k), bad in (
            ((0, 3), [("p0", "p1", "p3"), ("p0", "p2", "p3"),
                      ("p3", "p1", "p0"), ("p3", "p2", "p0")]),
            ((2, 3), [("p2", "p1", "p3"), ("p3", "p1", "p2")]),
            ((0, 1), [("p0", "p2", "p1"), ("p1", "p2", "p0")]),
        ):
            d = cls.line(4, int)
            d[i][k] = d[k][i] = 4
            cases.append((f"symmetric-break-{i}{k}", d, bad))
        d = cls.line(3, int)
        d[0][2] = d[2][0] = 3
        cases.append(("symmetric-break-02", d, [("p0", "p1", "p2"), ("p2", "p1", "p0")]))
        for name, upper, lower, bad in (
            ("asymmetric-above", 3, 2, [("p0", "p1", "p2")]),
            ("asymmetric-below", 2, 3, [("p2", "p1", "p0")]),
        ):
            d = cls.line(3, int)
            d[0][2], d[2][0] = upper, lower
            cases.append((name, d, bad))
        return cases

    @pytest.mark.parametrize("rows", [list, tuple])
    @pytest.mark.parametrize("mode", MODES, ids=["exact", "float", "float-1e-3"])
    def test_the_i_below_k_walk_of_a_symmetric_matrix(self, mode, rows):
        if mode.is_exact:
            cases = self.exact_half_walk_cases()
        else:
            cases = self.half_walk_cases(mode.tolerance)
        for name, d, bad in cases:
            d = rows(map(rows, d))
            pts = [f"p{i}" for i in range(len(d))]
            expected = reference_metric_violations(pts, d, mode)
            assert metric_violations(pts, d, mode) == expected, name
            triangles = [w for axiom, w in expected if axiom == "triangle"]
            assert triangles == bad if bad is not None else triangles, name

    def test_int_and_float_entries_in_exact_mode(self):
        # Quarters add exactly in floats, so the reference's float sums agree
        # with exact ones; a sum that rounds is the next test.
        rng = rng_for(7, "scan-vs-reference-mixed-entries")
        for _ in range(200):
            n = rng.randint(1, 6)
            d = [[rng.choice([rng.randint(-3, 9), rng.randint(-12, 36) / 4]) for _ in range(n)]
                 for _ in range(n)]
            for i in range(n):
                d[i][i] = rng.choice([0, 0.0, 0, 1])
            pts = [f"p{i}" for i in range(n)]
            assert metric_violations(pts, d) == reference_metric_violations(pts, d)

    def test_exact_mode_reads_a_float_as_its_exact_rational(self):
        # 0.1 + 0.2 rounds up to 0.30000000000000004 in floats; exactly, the
        # float nearest 0.1 plus the one nearest 0.2 is below that float.
        d = [[0, 0.1, 0.30000000000000004], [0.1, 0, 0.2], [0.30000000000000004, 0.2, 0]]
        assert reference_metric_violations("abc", d) == []
        assert metric_violations("abc", d) == [
            ("triangle", ("a", "b", "c")),
            ("triangle", ("c", "b", "a")),
        ]

    def test_the_walk_skips_k_equal_to_i_or_j_under_a_nonzero_diagonal(self):
        # a diagonal entry below or above zero makes d(i, k) - d(j, k) exceed
        # d(i, j) for the pair (0, 1) at k = j or k = i, a degenerate triangle
        # the walk leaves out; it finds no triangle, only the identity
        # violation, on the symmetric matrix (the i < k walk) and with one
        # harmless asymmetric entry (the ordered walk)
        pts = ["p0", "p1", "p2"]
        for d, bad in (
            ([[0, 1, 1], [1, -1, 1], [1, 1, 0]], "p1"),
            ([[3, 1, 1], [1, 0, 1], [1, 1, 0]], "p0"),
        ):
            assert max(map(sub, d[0], d[1])) > d[0][1]
            expected = [("identity", (bad,))]
            assert metric_violations(pts, d) == reference_metric_violations(pts, d) == expected
            d[2][0] = 2
            expected.append(("symmetry", ("p0", "p2")))
            assert metric_violations(pts, d) == reference_metric_violations(pts, d) == expected

    def test_a_non_finite_entry_is_a_format_error_in_exact_mode(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(FormatError):
                metric_violations(["a", "b"], [[0, bad], [bad, 0]])


class TestSpaceBasics:
    def test_membership_and_index(self):
        space = space_abc()
        assert "a" in space and "z" not in space
        assert space.index("c") == 2
        with pytest.raises(UnknownPoint):
            space.index("z")
        with pytest.raises(UnknownPoint):
            space.distance("a", "z")

    def test_subspace_keeps_ambient_order(self):
        space = space_abc()
        sub = subspace(space, ["c", "a"])
        assert sub.points == ("a", "c")
        assert sub.distance("a", "c") == Fraction(1)
        with pytest.raises(UnknownPoint):
            subspace(space, ["a", "z"])

    def test_diameter_of_square(self):
        assert diameter(space_square()) == Fraction(2)


class TestModes:
    def float_ab(self):
        return validate_space(["a", "b"], [["0", "3/2"], ["3/2", "0"]], float_mode())

    def test_space_remembers_its_mode(self):
        assert space_ab().mode == EXACT
        assert self.float_ab().mode == float_mode()
        assert subspace(self.float_ab(), ["a"]).mode == float_mode()
        assert glue_space(self.float_ab()).mode == float_mode()

    def test_mode_takes_part_in_equality(self):
        assert space_ab() != self.float_ab()
        loose = validate_space(["a", "b"], [["0", "3/2"], ["3/2", "0"]], float_mode(1e-3))
        assert loose != self.float_ab()

    def test_diameter_is_in_the_space_mode(self):
        assert isinstance(diameter(subspace(space_ab(), ["a"])), Fraction)
        single = diameter(subspace(self.float_ab(), ["a"]))
        assert single == 0.0 and isinstance(single, float)

    def test_maps_and_gluing_do_not_mix_modes(self):
        with pytest.raises(DomainMismatch):
            metric_map(space_ab(), self.float_ab(), {"a": "a", "b": "b"})
        with pytest.raises(SpaceMismatch):
            glue_space(space_ab(), default_anchor(float_mode()))
        with pytest.raises(SpaceMismatch):
            glue_space(self.float_ab(), default_anchor())


class TestMetricMap:
    def test_validation(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "c", "b": "b"})
        assert f("a") == "c"
        with pytest.raises(DomainMismatch):
            metric_map(dom, cod, {"a": "c"})  # not total
        with pytest.raises(DomainMismatch):
            metric_map(dom, cod, {"a": "c", "b": "b", "z": "a"})
        with pytest.raises(UnknownPoint):
            metric_map(dom, cod, {"a": "nope", "b": "b"})

    def test_canonical_equality(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"b": "b", "a": "c"})
        g = metric_map(dom, cod, {"a": "c", "b": "b"})
        assert f == g
        assert f.assignment == (("a", "c"), ("b", "b"))

    def test_compose_and_identity(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "c", "b": "b"})
        assert compose(identity_map(cod), f) == f
        assert compose(f, identity_map(dom)) == f
        g = metric_map(cod, dom, {"a": "b", "b": "a", "c": "a"})
        assert compose(g, f)("a") == "a"
        with pytest.raises(DomainMismatch):
            compose(f, f)  # inner codomain (3 points) != outer domain (2)

    def test_image_and_transfer_predicates(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "c", "b": "b"})
        assert image(f) == ("b", "c")
        assert is_injective(f) and not is_surjective(f)
        g = metric_map(dom, dom, {"a": "b", "b": "a"})
        assert is_bijective(g)
        assert invert(g)("b") == "a"
        with pytest.raises(BadParameters):
            invert(metric_map(dom, dom, {"a": "a", "b": "a"}))

    def test_sup_distance_values(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "a", "b": "b"})
        g = metric_map(dom, cod, {"a": "c", "b": "b"})
        assert sup_distance(f, g) == Fraction(1)  # d(a, c)
        assert sup_distance(f, f) == 0
        other = metric_map(cod, cod, {p: p for p in cod.points})
        with pytest.raises(DomainMismatch):
            sup_distance(f, other)

    def test_sup_distance_is_a_metric_exhaustively(self):
        """Identity, symmetry, triangle over every map pair/triple (2->3)."""
        maps = list(all_maps(space_ab(), space_abc()))
        assert len(maps) == 9
        for f in maps:
            assert sup_distance(f, f) == 0
        for f in maps:
            for g in maps:
                if f != g:
                    assert sup_distance(f, g) > 0
                assert sup_distance(f, g) == sup_distance(g, f)
        for f in maps:
            for g in maps:
                for h in maps:
                    assert sup_distance(f, h) <= (
                        sup_distance(f, g) + sup_distance(g, h)
                    )


class TestRelabeling:
    def test_no_collision_keeps_labels(self):
        assert relabel_disjoint(("u", "v"), ("a", "b")) == ("u", "v")

    def test_collision_gains_prefix(self):
        out = relabel_disjoint(("a",), ("a", "b"))
        assert out == (ANCHOR_PREFIX + "a",)

    def test_repeated_collision_gains_two_prefixes(self):
        taken = ("a", ANCHOR_PREFIX + "a")
        out = relabel_disjoint(("a",), taken)
        assert out == (ANCHOR_PREFIX + ANCHOR_PREFIX + "a",)

    def test_relabeled_labels_are_mutually_distinct(self):
        out = relabel_disjoint(("a", ANCHOR_PREFIX + "a"), ("a",))
        assert len(set(out)) == 2


class TestGlue:
    def test_default_anchor(self):
        anchor = default_anchor()
        assert anchor.points == (ANCHOR_PREFIX + "0", ANCHOR_PREFIX + "1")
        assert diameter(anchor) == 1

    def test_glued_example_large_diameter(self):
        glued = glue_space(space_ab())
        assert glued.points == ("a", "b", ANCHOR_PREFIX + "0", ANCHOR_PREFIX + "1")
        # diameter 3/2 > 1, so every cross distance is 3/2
        assert glued.distance("a", ANCHOR_PREFIX + "0") == Fraction(3, 2)
        assert glued.distance("b", ANCHOR_PREFIX + "1") == Fraction(3, 2)
        # original block and anchor block are untouched
        assert glued.distance("a", "b") == Fraction(3, 2)
        assert glued.distance(ANCHOR_PREFIX + "0", ANCHOR_PREFIX + "1") == 1
        assert diameter(glued) == Fraction(3, 2)

    def test_glued_example_small_diameter(self):
        glued = glue_space(space_small_diam())
        # diameter 1/4 < 1, so the cross distance clamps to 1
        assert glued.distance("p", ANCHOR_PREFIX + "0") == 1
        assert diameter(glued) == 1

    def test_glue_diameter_formula(self):
        rng = rng_for(7, "glue-diameter")
        for _ in range(40):
            space = random_space(rng, rng.randint(1, 6))
            glued = glue_space(space)
            assert diameter(glued) == max(diameter(space), 1)

    def test_glue_space_matrix_blocks(self):
        space = space_ab()
        matrix = glue_space(space).dist
        assert matrix[0][2] == matrix[2][0] == Fraction(3, 2)
        assert matrix[2][3] == 1

    def test_anchor_diameter_enforced(self):
        bad = validate_space(["u", "v"], [["0", "2"], ["2", "0"]])
        with pytest.raises(AnchorDiameterNotOne):
            glue_space(space_ab(), anchor=bad)

    def test_label_collision_relabels(self):
        space = validate_space(
            [ANCHOR_PREFIX + "0", "x"], [["0", "1"], ["1", "0"]]
        )
        glued = glue_space(space)
        assert len(set(glued.points)) == 4
        assert glued.points[0] == ANCHOR_PREFIX + "0"  # original kept
        assert ANCHOR_PREFIX + ANCHOR_PREFIX + "0" in glued.points

    def test_glue_map_fixes_anchor_and_restricts(self):
        dom, cod = space_ab(), space_abc()
        f = metric_map(dom, cod, {"a": "c", "b": "b"})
        big = glue_map(f)
        for p in dom.points:
            assert big(p) == f(p)
        for extra in big.domain.points[len(dom.points):]:
            assert big(extra) == extra

    def test_glue_functor_laws(self):
        spaces = [space_ab(), space_abc(), space_square()]
        rng = rng_for(11, "glue-functor")
        for _ in range(30):
            a, b, c = (rng.choice(spaces) for _ in range(3))
            f = random_map(rng, a, b)
            g = random_map(rng, b, c)
            assert glue_map(identity_map(a)) == identity_map(glue_space(a))
            assert glue_map(compose(g, f)) == compose(glue_map(g), glue_map(f))

    def test_glue_sup_isometry(self):
        """The anchor copy contributes zero: sup distance is preserved."""
        rng = rng_for(13, "glue-isometry")
        for _ in range(40):
            dom = random_space(rng, rng.randint(1, 4), prefix="s")
            cod = random_space(rng, rng.randint(1, 4), prefix="t")
            f = random_map(rng, dom, cod)
            g = random_map(rng, dom, cod)
            assert sup_distance(glue_map(f), glue_map(g)) == sup_distance(f, g)

    def test_glue_embedding_naturality(self):
        """Gluing then including the original points commutes with the map."""
        dom, cod = space_abc(), space_square()
        rng = rng_for(17, "glue-naturality")
        for _ in range(20):
            f = random_map(rng, dom, cod)
            big = glue_map(f)
            gdom, gcod = big.domain, big.codomain
            incl_dom = metric_map(dom, gdom, {p: p for p in dom.points})
            incl_cod = metric_map(cod, gcod, {p: p for p in cod.points})
            assert compose(big, incl_dom) == compose(incl_cod, f)


def lattice_paths():
    """Exact spaces from every construction path, by path."""
    rng = rng_for(89, "lattice-paths")
    plain = [random_space(rng, n) for n in range(1, 7)]
    anchor = normalize_diameter(random_space(rng, 3, prefix="ω:a"))
    given = [space_ab(), space_abc(), space_small_diam(), space_square()]
    ctx = build_finite_fixture(6, 3, seed=0)
    return {
        "validate": given,
        "random": plain,
        "glue-default": [glue_space(s) for s in plain + given],
        "glue-custom": [glue_space(s, anchor) for s in plain + given],
        "subspace": [subspace(s, s.points[::2]) for s in plain + given],
        "normalize": [anchor] + [normalize_diameter(s) for s in plain[1:]],
        "extend": [
            extend_metric(ctx, key, random_space(rng, 3, labels=key))
            for key in ctx.family[:6]
        ],
    }


class TestLattice:
    """An exact space's ``int`` rows over one scale are its distances."""

    @pytest.mark.parametrize(
        "path",
        ["validate", "random", "glue-default", "glue-custom", "subspace", "normalize", "extend"],
    )
    def test_rows_over_the_scale_are_the_distances(self, path):
        for space in lattice_paths()[path]:
            rows, scale = space.lattice
            assert type(scale) is int and scale > 0
            assert [len(row) for row in rows] == [len(row) for row in space.dist]
            for row, dist_row in zip(rows, space.dist):
                for v, d in zip(row, dist_row):
                    assert type(v) is int and Fraction(v, scale) == d

    def test_the_scale_takes_no_part_in_equality(self):
        # random_space keeps the lcm of the denominators it drew, before
        # reduction; the same matrix read from strings gets the lcm of the
        # reduced ones
        rng = rng_for(101, "lattice-scales")
        scales_differ = 0
        for n in range(2, 9):
            built = random_space(rng, n)
            parsed = validate_space(built.points, [[str(v) for v in row] for row in built.dist])
            assert built == parsed and hash(built) == hash(parsed)
            assert repr(built) == repr(parsed) and "lattice" not in repr(built)
            scales_differ += built.lattice[1] != parsed.lattice[1]
        assert scales_differ

    def test_every_built_space_is_axiom_scanned(self, monkeypatch):
        spaces = importlib.import_module("zfun.spaces")
        scanned = []
        scan = spaces.metric_violations

        def counting(points, dist, mode):
            scanned.append(len(points))
            return scan(points, dist, mode)

        monkeypatch.setattr(spaces, "metric_violations", counting)
        rng = rng_for(97, "lattice-scans")
        space = random_space(rng, 4)
        anchor = normalize_diameter(random_space(rng, 3, prefix="ω:a"))
        glue_space(space)
        glue_space(space, anchor)
        subspace(space, space.points[:2])
        assert scanned == [4, 3, 3, 6, 7]

    def test_the_scan_reads_a_handed_over_lattice(self):
        half = Fraction(1, 2)
        dist = ((Fraction(0), half, half), (half, Fraction(0), half), (half, half, Fraction(0)))
        rows = ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        assert validate_space("abc", dist, lattice=(rows, 2)).lattice == (rows, 2)
        broken = ((0, 1, 3), (1, 0, 1), (3, 1, 0))
        with pytest.raises(AxiomViolation) as err:
            validate_space("abc", dist, lattice=(broken, 2))
        assert ("triangle", ("a", "b", "c")) in err.value.violations
