"""The property-check suites: determinism, tags, defect injection, law helpers,
shrinking."""

import hashlib
import json
import re
import sys
from fractions import Fraction

import pytest

from zfun import (
    EXACT,
    BadParameters,
    Report,
    RunConfig,
    float_mode,
    generate,
    run_suite,
    suites,
)
from zfun.generate import rng_for
from zfun.kantorovich import kantorovich
from zfun.measures import dirac
from zfun.stepspace import dirac_const, integral_metric
from zfun.suites import (
    MAX_WITNESSES,
    SUITE_NAMES,
    TAGS,
    CheckRecord,
    shrink_matrix_violation,
)
from zfun.spaces import glue_map, metric_map, sup_distance

from helpers import reference_metric_violations, reference_random_distances, reference_shrink


def small_cfg(**kw) -> RunConfig:
    args = {"mode": EXACT, "seed": 0, "trials": 20, "n": 4, "k": 2}
    args.update(kw)
    return RunConfig(**args)


class TestRunConfig:
    @pytest.mark.parametrize("n, k", [(4, 3), (4, 0), (5, 3), (1, 1)])
    def test_rejects_sizes_no_fixture_has(self, n, k):
        message = f"need 1 <= k <= n/2, got n={n}, k={k}"
        with pytest.raises(BadParameters, match=re.escape(message)):
            RunConfig(n=n, k=k)

    def test_accepts_the_boundary(self):
        assert RunConfig(n=4, k=2).k == 2
        assert RunConfig(n=2, k=1).n == 2


# (suite, config, sha256 of the report bytes)
PINNED_REPORTS = [
    pytest.param(
        "all", RunConfig(mode=float_mode(), seed=42, trials=100),
        "46405c368ec0f3a7871015981ed9b6bd0b8ef6e5c4a2dc8eeb25b13277836459",
        id="float-seed-42",
    ),
    # at n = 8, k = 3 each member has a 5-point pad, so
    # decomposition-factorization factors 720 bijections (4 at n = 4, k = 2)
    pytest.param(
        "all", RunConfig(seed=42, trials=100, n=8, k=3),
        "cd5fed6d0d26638f02657d5c1d174880dfcab3095943a32ed364ba28c2b05b35",
        id="n8-k3-seed-42",
    ),
    pytest.param(
        "all", RunConfig(mode=float_mode(1e-3), seed=7, trials=12, n=7, k=2),
        "d15dd20fdb2889adceb36d6b861d36e2fc274405e0b7f2142d24d35a1098054b",
        id="float-1e-3-n7-k2",
    ),
    # a one-point pad cannot be glued, so the padded and metric-extension
    # checks emit no records
    pytest.param(
        "all", RunConfig(seed=0, trials=12, n=2, k=1),
        "a652c899729c30a4ec502b503cdc3cbc84a1017630f9e7c3e776be7b79794918",
        id="n2-k1-seed-0",
    ),
    # fails by design, so this pins the failure witnesses
    pytest.param(
        "metric", RunConfig(seed=3, trials=30, inject_glue_defect=True),
        "b14e6b7bef645d4768e7d6950aa4211d517d2e902044c4133fcc71a8774d7769",
        id="glue-defect",
    ),
]

_REPORTS = {}


def _pinned_report(suite, cfg):
    """The report of one pinned configuration, run once per session."""
    key = (suite, repr(cfg))
    if key not in _REPORTS:
        _REPORTS[key] = run_suite(suite, cfg)
    return _REPORTS[key]


class TestRunSuite:
    def test_all_suites_pass(self):
        report = run_suite("all", small_cfg())
        assert report.passed
        names = [record.name for record in report.records]
        assert len(names) == len(set(names))
        for suite in SUITE_NAMES:
            assert any(name.startswith(f"{suite}/") for name in names)

    def test_every_tag_is_from_the_closed_set(self):
        report = run_suite("all", small_cfg(seed=5))
        for record in report.records:
            assert record.tag in TAGS

    def test_single_suite_names_are_unprefixed(self):
        report = run_suite("metric", small_cfg())
        assert report.command == "check metric"
        assert all("/" not in record.name for record in report.records)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError):
            run_suite("nonsense", small_cfg())

    def test_reports_are_byte_identical_for_equal_configs(self):
        first = run_suite("all", small_cfg(seed=11))
        second = run_suite("all", small_cfg(seed=11))
        assert first.to_json() == second.to_json()

    def test_different_seeds_still_pass(self):
        first = run_suite("metric", small_cfg(seed=0))
        second = run_suite("metric", small_cfg(seed=1))
        assert first.passed and second.passed
        assert first.to_json() != second.to_json()  # the seed echo differs

    def test_float_mode_passes_and_echoes_tolerance(self):
        report = run_suite("kantorovich", small_cfg(mode=float_mode(), trials=10))
        assert report.passed
        assert report.as_dict()["config"]["tolerance"] == repr(1e-9)

    def test_larger_fixture_parameters(self):
        report = run_suite("scheme", small_cfg(seed=3, trials=10, n=6, k=3))
        assert report.passed

    @pytest.mark.parametrize("suite, cfg, expected", PINNED_REPORTS)
    def test_report_bytes_are_pinned(self, suite, cfg, expected):
        report = _pinned_report(suite, cfg)
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize("suite, cfg, expected", PINNED_REPORTS)
    def test_pinned_reports_have_no_vacuous_records(self, suite, cfg, expected):
        assert all(r.instances >= 1 for r in _pinned_report(suite, cfg).records)

    def test_a_one_point_pad_leaves_eight_scheme_records(self):
        report = run_suite("scheme", RunConfig(seed=0, trials=12, n=2, k=1))
        assert [r.name for r in report.records] == [
            "fixture-shape", "extension-restricts", "extension-functor-laws",
            "extension-injectivity-transfer", "extension-image",
            "extension-surjectivity-transfer", "chart-independence",
            "decomposition-factorization",
        ]


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


class TestCrashIsolation:
    def test_a_raising_check_becomes_one_failing_record(self, monkeypatch):
        # within the metric suite only glue-functor-laws calls identity_map
        monkeypatch.setattr(suites, "identity_map", _boom)
        report = run_suite("metric", small_cfg())
        assert len(report.records) == 7
        failing = [record for record in report.records if not record.passed]
        assert [record.name for record in failing] == ["glue-functor-laws"]
        assert failing[0].failures == [{"instance": "0", "error": "RuntimeError: boom"}]
        assert failing[0].instances == 1

    def test_every_record_of_a_shared_stream_gets_the_witness(self, monkeypatch):
        monkeypatch.setattr(suites, "glue_map", _boom)
        report = run_suite("scheme", small_cfg())
        failing = [record.name for record in report.records if not record.passed]
        assert failing == [
            "padded-functor-laws", "padded-naturality",
            "padded-embedding-isometry", "padded-sup-isometry",
        ]
        for record in report.records:
            if not record.passed:
                assert record.failures == [
                    {"instance": "0", "error": "RuntimeError: boom"}
                ]


class TestDefectInjection:
    def test_injected_glue_defect_is_caught_by_the_right_record(self):
        report = run_suite("metric", small_cfg(inject_glue_defect=True))
        assert not report.passed
        failing = [record for record in report.records if not record.passed]
        assert [record.name for record in failing] == ["glue-restriction-and-cross"]
        assert failing[0].tag == "(Λ4)"
        assert 1 <= len(failing[0].failures) <= MAX_WITNESSES

    def test_flag_is_echoed_in_the_config(self):
        report = run_suite("metric", small_cfg(inject_glue_defect=True))
        assert report.as_dict()["config"]["inject_glue_defect"] == "true"
        clean = run_suite("metric", small_cfg())
        assert "inject_glue_defect" not in clean.as_dict()["config"]


class TestReportShape:
    def test_duration_not_serialized(self):
        report = run_suite("measure", small_cfg())
        assert report.duration > 0
        payload = report.as_dict()
        assert "duration" not in json.dumps(payload)

    def test_all_numbers_serialized_as_strings(self):
        payload = run_suite("all", small_cfg()).as_dict()

        def walk(node):
            if isinstance(node, dict):
                for value in node.values():
                    walk(value)
            elif isinstance(node, list):
                for value in node:
                    walk(value)
            else:
                assert isinstance(node, (str, bool)), node

        walk(payload)

    def test_record_tag_validation(self):
        with pytest.raises(ValueError):
            CheckRecord("bad", "(z9)")

    def test_witness_cap(self):
        record = CheckRecord("capped", "plumbing")
        for i in range(10):
            record.fail(i, detail="x")
        assert len(record.failures) == MAX_WITNESSES

    def test_report_passed_property(self):
        good = CheckRecord("ok", "plumbing", instances=1)
        bad = CheckRecord("broken", "plumbing", instances=1)
        bad.fail(0, reason="because")
        assert Report("check unit", small_cfg(), [good]).passed
        assert not Report("check unit", small_cfg(), [good, bad]).passed

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            small_cfg(trials=0)


class TestRandomStreams:
    def test_the_registry_makes_every_stream_a_check_draws_from(self, monkeypatch):
        callers = set()
        real = generate.rng_for

        def recording(seed, label):
            callers.add(sys._getframe(1).f_code)
            return real(seed, label)

        monkeypatch.setattr(generate, "rng_for", recording)
        run_suite("scheme", small_cfg(trials=2))
        assert callers == {suites._Check.run.__code__}


class TestShrinking:
    @pytest.mark.parametrize("mode", [EXACT, float_mode()], ids=["exact", "float"])
    def test_one_pass_finds_the_restart_loops_core(self, mode):
        # about 200 small matrices with one to three corrupted entries each
        rng = rng_for(5, "shrink-oracle")
        seen = 0
        while seen < 200:
            n = rng.randint(2, 6)
            d = reference_random_distances(rng, n)
            for _ in range(rng.randint(1, 3)):
                i, j = rng.randrange(n), rng.randrange(n)
                d[i][j] = rng.choice([Fraction(0), Fraction(-1), Fraction(99),
                                      Fraction(rng.randint(1, 40), rng.randint(1, 8))])
            matrix = [[mode.convert(v) for v in row] for row in d]
            points = tuple(f"p{i}" for i in range(n))
            if not reference_metric_violations(points, matrix, mode):
                continue
            seen += 1
            assert (shrink_matrix_violation(points, matrix, mode)
                    == reference_shrink(points, matrix, mode)), matrix

    def test_shrink_matrix_violation_finds_minimal_core(self):
        # four points, only one broken triangle among x,y,z
        points = ("w", "x", "y", "z")
        matrix = [
            [Fraction(0), Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(1), Fraction(0), Fraction(1), Fraction(9)],
            [Fraction(1), Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(1), Fraction(9), Fraction(1), Fraction(0)],
        ]
        shrunk, axiom = shrink_matrix_violation(points, matrix, EXACT)
        assert axiom == "triangle"
        assert set(shrunk) == {"x", "y", "z"}


def _never():
    raise AssertionError("a law after the first failure was evaluated")


def _onto_last_point(domain, codomain):
    """The map sending every point of ``domain`` to the last point of ``codomain``."""
    return metric_map(domain, codomain, {p: codomain.points[-1] for p in domain.points})


class TestFunctorLaws:
    def test_composition_is_skipped_when_identity_fails(self):
        rec = CheckRecord("laws", "(Λ1)")
        suites._functor_laws(rec, 4, lambda: False, _never,
                             witnesses=({"space": ["a0"]}, {"domain": ["a0"]}))
        assert rec.failures == [{"instance": "4", "law": "identity", "space": ["a0"]}]

    def test_composition_failure_carries_its_witness(self):
        rec = CheckRecord("laws", "(Λ1)")
        suites._functor_laws(rec, 2, lambda: True, lambda: False,
                             witnesses=({"space": ["a0"]}, {"domain": ["a0"]}))
        assert rec.failures == [{"instance": "2", "law": "composition", "domain": ["a0"]}]

    def test_laws_that_hold_record_nothing(self):
        rec = CheckRecord("laws", "(Λ1)")
        suites._functor_laws(rec, 0, lambda: True, lambda: True)
        assert rec.passed

    @pytest.mark.parametrize("suite, name, patched, law, keys", [
        ("metric", "glue-functor-laws", "glue_space", "identity", "space"),
        ("metric", "glue-functor-laws", "compose", "composition", "domain"),
        ("scheme", "extension-functor-laws", "identity_map", "identity", "member"),
        ("scheme", "extension-functor-laws", "compose", "composition", "domain"),
        ("scheme", "padded-functor-laws", "identity_map", "identity", "space"),
        ("step", "pushforward-functor-laws", "compose", "composition", None),
    ])
    def test_witness_keys_of_the_real_checks(self, monkeypatch, suite, name,
                                             patched, law, keys):
        broken = {"glue_space": lambda space, anchor=None: space,
                  "identity_map": lambda space: _onto_last_point(space, space),
                  "compose": lambda g, f: _onto_last_point(f.domain, g.codomain)}
        monkeypatch.setattr(suites, patched, broken[patched])
        report = run_suite(suite, small_cfg(trials=10))
        (record,) = [r for r in report.records if r.name == name]
        assert record.failures
        for failure in record.failures:
            expected = ["instance", "law"] + ([keys] if keys else [])
            assert list(failure) == expected
            assert failure["law"] == law


class TestPaddedChecksAreGlueChecks:
    """The scheme suite's padded records run the metric suite's gluing laws
    with the fixture's pad as the anchor."""

    @staticmethod
    def anchors_to_last(f, anchor=None):
        """``glue_map`` that sends every anchor point to the last codomain point."""
        glued = glue_map(f, anchor)
        n, last = len(f.domain.points), glued.codomain.points[-1]
        table = {p: glued(p) if i < n else last for i, p in enumerate(glued.domain.points)}
        return metric_map(glued.domain, glued.codomain, table)

    def test_one_broken_glue_map_fails_both_alike(self, monkeypatch):
        monkeypatch.setattr(suites, "glue_map", self.anchors_to_last)
        report = run_suite("all", small_cfg(trials=10))
        keys = {r.name: {tuple(f) for f in r.failures} for r in report.records}
        for glue, padded in [("metric/glue-functor-laws", "scheme/padded-functor-laws"),
                             ("metric/glue-embedding-naturality", "scheme/padded-naturality")]:
            assert keys[glue] and keys[glue] == keys[padded], (glue, keys[glue], keys[padded])
        assert keys["metric/glue-functor-laws"] == {("instance", "law", "space")}
        assert keys["metric/glue-embedding-naturality"] == {
            ("instance", "anchor_point", "expected", "actual")
        }


class TestMeasuresAndStepsShareLaws:
    """The kantorovich and step suites run one set of metric-functor laws,
    on measures and on step functions."""

    @staticmethod
    def records(cfg):
        report = [run_suite(suite, cfg) for suite in ("kantorovich", "step")]
        return {r.name: {tuple(f) for f in r.failures}
                for part in report for r in part.records}

    def test_one_broken_metric_fails_both_alike(self, monkeypatch):
        monkeypatch.setattr(suites, "kantorovich", lambda mu, nu: kantorovich(mu, nu) + 1)
        monkeypatch.setattr(suites, "integral_metric",
                            lambda f, g: integral_metric(f, g) + 1)
        keys = self.records(small_cfg(trials=10))
        for measure, step in [("dirac-isometry", "constant-embedding-isometry"),
                              ("diameter-preservation", "step-diameter"),
                              ("kantorovich-metric-axioms", "integral-metric-axioms")]:
            assert keys[measure] and keys[measure] == keys[step], (measure, keys[measure],
                                                                   keys[step])
        assert keys["dirac-isometry"] == {("instance", "pair", "value", "distance")}
        assert keys["diameter-preservation"] == {("instance", "attained", "diameter")}

    @pytest.mark.parametrize("bound, names, key", [
        (lambda f, g: f.domain.mode.zero - 1,
         ("map-pushforward-isometry", "pointwise-convergence-bound", "pushforward-sup-bound"),
         "pushed"),
        (lambda f, g: sup_distance(f, g) + 1,
         ("map-pushforward-isometry", "pushforward-sup-bound"),
         "attained"),
    ], ids=["below-every-push", "above-every-unit"])
    def test_a_wrong_sup_bound_fails_alike(self, monkeypatch, bound, names, key):
        monkeypatch.setattr(suites, "sup_distance", bound)
        keys = self.records(small_cfg(trials=10))
        for name in names:
            assert keys[name] == {("instance", key, "bound")}, name

    def test_one_broken_push_fails_both_alike(self, monkeypatch):
        # every element is pushed onto the unit at the codomain's last point
        monkeypatch.setattr(suites, "pushforward",
                            lambda f, mu: dirac(f.codomain, f.codomain.points[-1]))
        monkeypatch.setattr(suites, "compose_pushforward",
                            lambda f, u: dirac_const(f.codomain, f.codomain.points[-1]))
        reports = {suite: run_suite(suite, small_cfg(trials=10)) for suite in ("measure", "step")}
        keys = {(suite, r.name): {tuple(f) for f in r.failures}
                for suite, report in reports.items() for r in report.records}
        for name, witness in [("pushforward-functor-laws", ("instance", "law")),
                              ("dirac-naturality", ("instance", "point"))]:
            step_name = name.replace("dirac-", "pushforward-")
            assert keys["measure", name] == keys["step", step_name] == {witness}


class TestMetricAxioms:
    @staticmethod
    def table(**broken):
        """A metric on x, y, z with every distance 1, except the ``broken`` pairs."""
        dist = {(p, q): 0 if p == q else 1 for p in "xyz" for q in "xyz"}
        dist.update({tuple(pair): value for pair, value in broken.items()})
        return dist

    def run(self, dist, positivity=True):
        rec = CheckRecord("axioms", "plumbing")
        calls = []

        def lookup(p, q):
            calls.append(p + q)
            return dist[p, q]

        suites._metric_axioms(rec, 0, EXACT, lookup, "x", "y", "z",
                              positivity=positivity)
        return [f["law"] for f in rec.failures], calls

    @pytest.mark.parametrize("broken, law, calls", [
        ({"xx": 1, "xy": 0, "yx": 2, "xz": 5}, "identity", ["xx"]),
        ({"xy": 0, "yx": 2, "xz": 5}, "positivity", ["xx", "xy"]),
        ({"yx": 2, "xz": 5}, "symmetry", ["xx", "xy", "yx"]),
        ({"xz": 5}, "triangle", ["xx", "xy", "yx", "xz", "yz"]),
        ({}, None, ["xx", "xy", "yx", "xz", "yz"]),
    ])
    def test_first_broken_law_and_nothing_after_it(self, broken, law, calls):
        assert self.run(self.table(**broken)) == ([law] if law else [], calls)

    def test_positivity_can_be_skipped(self):
        dist = self.table(xy=0, yx=0, xz=0)
        assert self.run(dist, positivity=False) == ([], ["xx", "xy", "yx", "xz", "yz"])
        assert self.run(dist)[0] == ["positivity"]


class TestLawsLiveInTheSuites:
    """The measure and scheme laws are computed in ``zfun.suites`` itself, so
    a function patched there reaches them, and chart-independence writes the
    witnesses of the laws it reruns."""

    @staticmethod
    def keys(suite, **kw):
        report = run_suite(suite, small_cfg(trials=10, **kw))
        return {r.name: {tuple(f) for f in r.failures} for r in report.records}

    def test_injectivity_transfer_names_the_pair(self, monkeypatch):
        # every Dirac is pushed onto the Dirac at the codomain's last point
        monkeypatch.setattr(suites, "pushforward",
                            lambda f, mu: dirac(f.codomain, f.codomain.points[-1]))
        report = run_suite("measure", small_cfg(trials=10))
        (record,) = [r for r in report.records if r.name == "injectivity-transfer"]
        assert record.failures
        for failure in record.failures:
            assert list(failure) == ["instance", "pair"]
            p, q = failure["pair"]
            assert p != q and p.startswith("a") and q.startswith("a")

    def test_a_moved_extension_fails_chart_independence_as_law_b(self, monkeypatch):
        # every ambient point is sent to the ambient's last point
        monkeypatch.setattr(suites, "extend_map",
                            lambda ctx, phi: _onto_last_point(ctx.ambient, ctx.ambient))
        keys = self.keys("scheme")
        witness = {("instance", "point", "original", "extended")}
        assert keys["extension-restricts"] == keys["chart-independence"] == witness

    def test_a_wrong_metric_extension_fails_three_laws(self, monkeypatch):
        # the "extension" is the ambient metric, which ignores the given one
        monkeypatch.setattr(suites, "extend_metric", lambda ctx, member, d: ctx.ambient)
        keys = self.keys("scheme")
        witness = {("instance", "pair", "expected", "actual")}
        assert keys["metric-extension"] == keys["chart-independence"] == witness
        assert keys["extension-isometry"] == {("instance", "original", "extended")}
        assert keys["extension-restricts"] == set()
