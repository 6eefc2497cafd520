"""The property-check suites: determinism, tags, defect injection, shrinking."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from zfun import (
    EXACT,
    BadParameters,
    Report,
    RunConfig,
    float_mode,
    run_suite,
    suites,
    validate_space,
)
from zfun.suites import (
    MAX_WITNESSES,
    SUITE_NAMES,
    TAGS,
    CheckRecord,
    shrink_matrix_violation,
    shrink_space,
)


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

    def test_float_report_bytes_are_pinned(self):
        report = run_suite("all", RunConfig(mode=float_mode(), seed=42, trials=100))
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "46405c368ec0f3a7871015981ed9b6bd0b8ef6e5c4a2dc8eeb25b13277836459"

    def test_larger_fixture_report_bytes_are_pinned(self):
        # at n = 8, k = 3 each member has a 5-point pad, so
        # decomposition-factorization factors 720 bijections (4 at n = 4, k = 2)
        report = run_suite("all", RunConfig(seed=42, trials=100, n=8, k=3))
        digest = hashlib.sha256(report.to_json().encode("utf-8")).hexdigest()
        assert digest == "cd5fed6d0d26638f02657d5c1d174880dfcab3095943a32ed364ba28c2b05b35"


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
        monkeypatch.setattr(suites, "padded_map", _boom)
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


class TestShrinking:
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

    def test_shrink_space_keeps_failure_alive(self):
        space = validate_space(
            ("p", "q", "r"),
            [["0", "1", "1"], ["1", "0", "1"], ["1", "1", "0"]],
        )
        shrunk = shrink_space(space, lambda sub: "q" in sub.points)
        assert shrunk.points == ("q",)
