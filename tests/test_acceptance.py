"""Acceptance gate: nine numbered criteria, one test (one pass/fail line) each.

Run with ``pytest -v`` so every criterion reports exactly one PASSED/FAILED
line.  Each test also prints an explicit ``criterion N PASS`` line with the
measured quantities (shown when capture is off or on failure).
"""

import hashlib
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from zfun import (
    compose,
    diameter,
    dirac,
    duality_gap,
    extend_map,
    extend_metric,
    float_mode,
    glue_map,
    glue_space,
    identity_map,
    image,
    integral_metric,
    is_bijective,
    is_injective,
    is_surjective,
    kantorovich,
    kantorovich_dual,
    kantorovich_primal,
    metric_map,
    phi_n_witness,
    prob_measure,
    pushforward,
    select_preimage,
    subspace,
    sup_distance,
    validate_space,
)
from zfun.scheme import _bijections, build_finite_fixture, decompose_automorphism
from zfun.stepspace import compose_pushforward
from zfun.generate import (
    random_map,
    random_measure,
    random_space,
    random_step_function,
    rng_for,
)

from helpers import all_maps, compositions, space_ab, space_abc


def announce(number: int, detail: str) -> None:
    print(f"criterion {number} PASS — {detail}")


def test_criterion_1_duality_gap_zero_on_200_random_instances():
    rng = rng_for(2026, "acceptance-duality")
    start = time.monotonic()
    float_worst = 0.0
    for trial in range(200):
        space = random_space(rng, 2 + trial % 7)  # sizes 2..8
        mu = random_measure(rng, space)
        nu = random_measure(rng, space)
        assert duality_gap(mu, nu) == 0, f"exact gap not zero on trial {trial}"

        fmode = float_mode()
        fspace = validate_space(
            space.points, [[float(v) for v in row] for row in space.dist], fmode
        )
        fmu = prob_measure(fspace, {p: float(w) for p, w in mu.weights})
        fnu = prob_measure(fspace, {p: float(w) for p, w in nu.weights})
        fgap = abs(duality_gap(fmu, fnu))
        float_worst = max(float_worst, fgap)
        assert fgap <= 1e-9, f"float gap {fgap} beyond 1e-9 on trial {trial}"
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0, f"criterion 1 took {elapsed:.1f}s (budget 60s)"
    announce(
        1,
        f"200 exact gaps all 0, float gaps <= {float_worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_dirac_pairs_reproduce_every_distance():
    rng = rng_for(2026, "acceptance-dirac")
    spaces = 0
    pairs = 0
    for trial in range(100):
        space = random_space(rng, 2 + trial % 5)  # sizes 2..6
        spaces += 1
        pts = space.points
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                value = kantorovich(dirac(space, pts[i]), dirac(space, pts[j]))
                assert value == space.distance(pts[i], pts[j])
                pairs += 1
    assert spaces >= 100
    announce(2, f"{pairs} Dirac pairs over {spaces} spaces, all exact")


def test_criterion_3_diameter_is_preserved_and_never_exceeded():
    rng = rng_for(2026, "acceptance-diameter")
    for trial in range(100):
        space = random_space(rng, 2 + trial % 5)  # sizes 2..6
        pts = space.points
        attained = max(
            kantorovich(dirac(space, pts[i]), dirac(space, pts[j]))
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
        )
        diam = diameter(space)
        assert attained == diam
        for _ in range(100):
            mu = random_measure(rng, space)
            nu = random_measure(rng, space)
            assert kantorovich(mu, nu) <= diam
    announce(3, "Dirac max == diameter on 100 spaces; 10000 samples within it")


def test_criterion_4_functor_laws_and_naturality():
    singleton = validate_space(["s"], [["0"]])
    pool = [singleton, space_ab(), space_abc()]

    # identity laws, exhaustively
    for c in pool:
        for denom_counts in compositions(2, len(c.points)):
            mu = prob_measure(
                c,
                {
                    p: Fraction(w, 2)
                    for p, w in zip(c.points, denom_counts)
                    if w
                },
            )
            assert pushforward(identity_map(c), mu) == mu
        assert glue_map(identity_map(c)) == identity_map(glue_space(c))

    # naturality of the Dirac embedding, exhaustively
    for c in pool:
        for d in pool:
            for f in all_maps(c, d):
                for p in c.points:
                    assert pushforward(f, dirac(c, p)) == dirac(d, f(p))

    # composition laws, exhaustively over the pool
    checked = 0
    for c, d, e in itertools.product(pool, repeat=3):
        c_measures = [
            prob_measure(
                c, {p: Fraction(w, 2) for p, w in zip(c.points, counts) if w}
            )
            for counts in compositions(2, len(c.points))
        ]
        for f in all_maps(c, d):
            for g in all_maps(d, e):
                gf = compose(g, f)
                for mu in c_measures:
                    assert pushforward(gf, mu) == pushforward(
                        g, pushforward(f, mu)
                    )
                assert glue_map(gf) == compose(glue_map(g), glue_map(f))
                checked += 1

    # randomized confirmation up to 8 points
    rng = rng_for(2026, "acceptance-functor")
    for trial in range(30):
        a = random_space(rng, rng.randint(1, 8), prefix="a")
        b = random_space(rng, rng.randint(1, 8), prefix="b")
        c = random_space(rng, rng.randint(1, 8), prefix="c")
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        mu = random_measure(rng, a)
        assert pushforward(identity_map(a), mu) == mu
        assert pushforward(compose(g, f), mu) == pushforward(
            g, pushforward(f, mu)
        )
        assert glue_map(compose(g, f)) == compose(glue_map(g), glue_map(f))
        p = rng.choice(a.points)
        assert pushforward(f, dirac(a, p)) == dirac(b, f(p))
    announce(4, f"exhaustive pool ({checked} composition pairs) + 30 randomized")


def test_criterion_5_map_isometry_attained_at_diracs():
    rng = rng_for(2026, "acceptance-isometry")
    for trial in range(10):
        dom = random_space(rng, 2 + trial % 4, prefix="d")
        cod = random_space(rng, 2 + (trial + 1) % 4, prefix="c")
        phi = random_map(rng, dom, cod)
        psi = random_map(rng, dom, cod)
        sampled = [
            random_measure(rng, dom, full_support=True) for _ in range(100)
        ]
        bound = sup_distance(phi, psi)
        attained = max(
            kantorovich(pushforward(phi, dirac(dom, p)), pushforward(psi, dirac(dom, p)))
            for p in dom.points
        )
        assert attained == bound
        for mu in sampled:
            assert kantorovich(pushforward(phi, mu), pushforward(psi, mu)) <= bound
    announce(5, "10 map pairs: Dirac max == sup distance; 1000 samples bounded")


def _scheme_property_sweep(ctx, rng):
    """Exhaustive (b), (a), (c), (d), (e) over one fixture; returns a count."""
    members = {key: subspace(ctx.ambient, key) for key in ctx.family}
    count = 0
    for key, space in members.items():
        assert extend_map(ctx, identity_map(space)).extension == identity_map(
            ctx.ambient
        )
    for dom_key, dom in members.items():
        for cod_key, cod in members.items():
            for phi in all_maps(dom, cod):
                hat = extend_map(ctx, phi).extension
                assert all(hat(x) == phi(x) for x in dom_key)
                assert is_injective(hat) == is_injective(phi)
                assert is_surjective(hat) == is_surjective(phi)
                assert set(image(hat)) == set(image(phi)) | (
                    set(ctx.ambient.points) - set(cod_key)
                )
                count += 1
    for k1, k2, k3 in itertools.product(ctx.family, repeat=3):
        for phi in all_maps(members[k1], members[k2]):
            for psi in all_maps(members[k2], members[k3]):
                assert extend_map(ctx, compose(psi, phi)).extension == compose(
                    extend_map(ctx, psi).extension,
                    extend_map(ctx, phi).extension,
                )
                count += 1
    if len(ctx.pad.points) >= 2:
        for key in ctx.family:
            d = random_space(rng, len(key), labels=key)
            extended = extend_metric(ctx, key, d)
            for x in key:
                for y in key:
                    assert extended.distance(x, y) == d.distance(x, y)
            assert diameter(extended) == max(Fraction(1), diameter(d))
            count += 1
    return count


def test_criterion_6_scheme_engine_exhaustive_and_randomized():
    rng = rng_for(2026, "acceptance-scheme")

    # exhaustive for every valid (n, k) with n <= 4
    exhaustive = 0
    for n, k in ((2, 1), (3, 1), (4, 1), (4, 2)):
        ctx = build_finite_fixture(n, k, seed=0)
        exhaustive += _scheme_property_sweep(ctx, rng)

    # sup-metric isometry of the extension, exhaustively at n=4, k=2
    ctx = build_finite_fixture(4, 2, seed=0)
    for dom_key in ctx.family:
        for cod_key in ctx.family:
            dom = subspace(ctx.ambient, dom_key)
            cod = subspace(ctx.ambient, cod_key)
            d = random_space(rng, len(cod_key), labels=cod_key)
            extended = extend_metric(ctx, cod_key, d)
            maps = [(f, extend_map(ctx, f).extension) for f in all_maps(dom, cod)]
            for (f, f_hat), (g, g_hat) in itertools.product(maps, repeat=2):
                assert max(d.distance(f(x), g(x)) for x in dom.points) == max(
                    extended.distance(f_hat(a), g_hat(a)) for a in ctx.ambient.points
                )

    # randomized confirmation at n=6, k=3
    big = build_finite_fixture(6, 3, seed=1)
    for trial in range(500):
        k1, k2, k3 = (rng.choice(big.family) for _ in range(3))
        s1, s2, s3 = (subspace(big.ambient, k) for k in (k1, k2, k3))
        phi = random_map(rng, s1, s2)
        psi = random_map(rng, s2, s3)
        hat = extend_map(big, phi).extension
        assert all(hat(x) == phi(x) for x in k1)
        assert is_injective(hat) == is_injective(phi)
        assert set(image(hat)) == set(image(phi)) | (
            set(big.ambient.points) - set(k2)
        )
        assert extend_map(big, compose(psi, phi)).extension == compose(
            extend_map(big, psi).extension, hat
        )

    # the verified properties do not depend on the drawn bijections
    for h_seed in range(10):
        shuffled = build_finite_fixture(4, 2, seed=0, h_seed=h_seed)
        _scheme_property_sweep(shuffled, rng)

    announce(
        6,
        f"{exhaustive} exhaustive checks (n<=4), 500 randomized (n=6,k=3), "
        "10 chart re-randomizations",
    )


def test_criterion_7_decomposition_bijection_and_homomorphism():
    ctx = build_finite_fixture(4, 2, seed=0)
    for key in ctx.family:
        member = subspace(ctx.ambient, key)
        preserving = _bijections(ctx, key, inside=True)
        fixing = _bijections(ctx, key, inside=False)
        member_bijections = [
            g for g in all_maps(member, member) if is_bijective(g)
        ]
        assert len(preserving) == len(fixing) * len(member_bijections)

        # the factoring map is a bijection with the stated inverse
        seen = set()
        for h in preserving:
            u, v = decompose_automorphism(ctx, key, h)
            assert compose(u, v) == h  # inverse formula
            assert all(u(x) == x for x in key)
            restriction = metric_map(member, member, {x: h(x) for x in key})
            assert v == extend_map(ctx, restriction).extension
            seen.add((u.assignment, v.assignment))
        assert len(seen) == len(preserving)
        products = {
            compose(u, extend_map(ctx, g).extension).assignment
            for u in fixing
            for g in member_bijections
        }
        assert products == {h.assignment for h in preserving}

        # the induced assignment on member bijections is a homomorphism
        for g1 in member_bijections:
            for g2 in member_bijections:
                assert extend_map(ctx, compose(g1, g2)).extension == compose(
                    extend_map(ctx, g1).extension,
                    extend_map(ctx, g2).extension,
                )
    announce(7, "all 6 members: factorization bijective, assignment multiplicative")


def test_criterion_8_step_space_metric_witness_and_selection():
    rng = rng_for(2026, "acceptance-step")

    # integral-metric axioms over 1000 random triples
    for trial in range(1000):
        space = random_space(rng, 2 + trial % 4)
        f = random_step_function(rng, space)
        g = random_step_function(rng, space)
        h = random_step_function(rng, space)
        assert integral_metric(f, f) == 0
        d_fg = integral_metric(f, g)
        assert (d_fg == 0) == (f == g)
        assert d_fg == integral_metric(g, f)
        assert integral_metric(f, h) <= d_fg + integral_metric(g, h)

    # head-witness convergence bound for every n up to 64
    for trial in range(5):
        space = random_space(rng, 2 + trial % 3)
        diam = diameter(space)
        f = random_step_function(rng, space)
        a = rng.choice(space.points)
        for n in range(1, 65):
            assert integral_metric(phi_n_witness(a, n, f), f) <= Fraction(diam, n)

    # selection round-trips exactly on 500 random instances
    for trial in range(500):
        dom = random_space(rng, 1 + trial % 5, prefix="d")
        cod = random_space(rng, 1 + (trial + 2) % 4, prefix="c")
        fmap = random_map(rng, dom, cod)
        v = compose_pushforward(fmap, random_step_function(rng, dom))
        assert compose_pushforward(fmap, select_preimage(fmap, v)) == v
    announce(8, "1000 metric triples, 64 head bounds x5, 500 selection round trips")


# sha256 of the exact-mode `check all --seed 42` report; a refactor of the
# suites must leave it unchanged.
EXACT_SEED_42_SHA256 = "32ce15ce2a3df00aba5d7cd0c7360f0eb317cf8b673229bc88bd266a450e6d9a"


def test_criterion_9_check_all_is_byte_reproducible_and_fast(tmp_path):
    outputs = []
    durations = []
    for name in ("first.json", "second.json"):
        start = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "zfun",
                "check",
                "all",
                "--seed",
                "42",
                "--output",
                str(tmp_path / name),
            ],
            capture_output=True,
            text=True,
        )
        durations.append(time.monotonic() - start)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1], "reports differ between identical runs"
    assert hashlib.sha256(outputs[0]).hexdigest() == EXACT_SEED_42_SHA256
    assert max(durations) < 300.0, f"run took {max(durations):.1f}s (budget 300s)"
    payload = json.loads(outputs[0])
    assert payload["pass"] is True
    assert payload["config"]["seed"] == "42"
    announce(
        9,
        f"two identical runs, {len(payload['records'])} records, "
        f"max {max(durations):.1f}s",
    )
