"""End-to-end CLI behavior: subcommands, exit codes, files, reproducibility."""

import dataclasses
import hashlib
import json
import os
import re
import sys
from fractions import Fraction

import pytest

from zfun import cli, fileio, identity_map, scheme, suites
from zfun.generate import random_measure, random_space, rng_for

from helpers import million_draws, run_child, run_cli

SPACE = {
    "points": ["a", "b", "c"],
    "dist": [["0", "3/2", "1"], ["3/2", "0", "1/2"], ["1", "1/2", "0"]],
}
BROKEN_SPACE = {
    "points": ["a", "b", "c"],
    "dist": [["0", "5", "1"], ["5", "0", "1/2"], ["1", "1/2", "0"]],
}


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "space.json").write_text(json.dumps(SPACE))
    (tmp_path / "broken.json").write_text(json.dumps(BROKEN_SPACE))
    (tmp_path / "mu.json").write_text(
        json.dumps({"space": "space.json", "weights": {"a": "1/2", "b": "1/2"}})
    )
    (tmp_path / "nu.json").write_text(
        json.dumps({"space": "space.json", "weights": {"c": "1"}})
    )
    (tmp_path / "map.json").write_text(
        json.dumps(
            {
                "domain": "space.json",
                "codomain": "space.json",
                "assignment": {"a": "b", "b": "b", "c": "a"},
            }
        )
    )
    return tmp_path


class TestValidate:
    def test_valid_space_exits_zero(self, workdir):
        proc = run_cli("validate", "space.json", cwd=workdir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert payload["records"][0]["name"] == "metric-axioms"

    def test_invalid_space_exits_one_with_witnesses(self, workdir):
        proc = run_cli("validate", "broken.json", cwd=workdir)
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["pass"] is False
        failures = payload["records"][0]["failures"]
        assert any(f["axiom"] == "triangle" for f in failures)

    def test_missing_file_exits_two(self, workdir):
        proc = run_cli("validate", "nope.json", cwd=workdir)
        assert proc.returncode == 2
        assert "nope.json" in proc.stderr

    def test_float_overflow_exits_two(self, workdir):
        big = {"points": ["a", "b"], "dist": [["0", "1e400"], ["1e400", "0"]]}
        (workdir / "big.json").write_text(json.dumps(big))
        proc = run_cli("validate", "big.json", "--mode", "float", cwd=workdir)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e400"])
    def test_non_finite_json_literal_exits_two(self, workdir, mode, literal):
        (workdir / "odd.json").write_text(
            '{"points": ["a", "b"], "dist": [[0, %s], [%s, 0]]}' % (literal, literal)
        )
        proc = run_cli("validate", "odd.json", "--mode", mode, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            f"error: not a finite number: {float(literal)!r}"
        ]

    @pytest.mark.parametrize(
        "space, message",
        [
            ({"points": [{"a": 1}, "b"], "dist": SPACE["dist"][:2]},
             "error: labels must be strings, got dict"),
            ({"points": ["a", "b"], "dist": [5, ["1", "0"]]},
             "error: distance matrix must be 2x2"),
        ],
        ids=["unhashable-label", "row-not-a-list"],
    )
    def test_malformed_space_exits_two(self, workdir, space, message):
        (workdir / "odd.json").write_text(json.dumps(space))
        proc = run_cli("validate", "odd.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [message]

    def test_malformed_json_exits_two(self, workdir):
        (workdir / "garbage.json").write_text("{not json")
        proc = run_cli("validate", "garbage.json", cwd=workdir)
        assert proc.returncode == 2

    def test_output_flag_writes_file(self, workdir):
        proc = run_cli("validate", "space.json", "-o", "out.json", cwd=workdir)
        assert proc.returncode == 0
        assert json.loads((workdir / "out.json").read_text())["pass"] is True


class TestDist:
    def test_frozen_value_and_certificates(self, workdir):
        proc = run_cli("dist", "mu.json", "nu.json", cwd=workdir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["value"] == "3/4"
        assert payload["gap"] == "0"
        assert payload["pass"] is True
        assert payload["certificate"]["potential"] == {
            "a": "0",
            "b": "-1/2",
            "c": "-1",
        }
        matrix = payload["certificate"]["plan"]["matrix"]
        assert matrix[0][2] == "1/2" and matrix[1][2] == "1/2"

    STDOUT_DIGESTS = {
        "exact": "f52e7c19bb470fac151d229d87c0e362f532ca739ad88323402850c19157fefe",
        "float": "d25e91cb9cc401470e9d35c21d4dcd28f1e42bb7cc70a40d06fad3663c2b7d3d",
    }

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_stdout_is_pinned_and_stderr_times_both_routes(self, workdir, mode):
        proc = run_cli("dist", "mu.json", "nu.json", "--mode", mode, cwd=workdir)
        assert proc.returncode == 0
        digest = hashlib.sha256(proc.stdout.encode("utf-8")).hexdigest()
        assert digest == self.STDOUT_DIGESTS[mode]
        assert re.fullmatch(
            r"dist: value=\S+ gap=\S+ \(dual \d+\.\d{3}s, primal \d+\.\d{3}s\)\n",
            proc.stderr,
        )

    SEEDED_DIGESTS = {
        "exact": "3773964ecf98f21451c2c5928063c886ba6f75ad738e087f6b7dde9fa75880b8",
        "float": "54522047f35ad90aada526abef5ae5b75c41f7cf93ab7ac242185e186f360a36",
    }

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_stdout_of_seeded_pairs_is_pinned(self, tmp_path, capsys, mode):
        """20 seeded pairs, n = 2..12, every number an unreduced "p/q"
        string: one digest over each call's exit code and stdout."""
        digest = hashlib.sha256()
        for k in range(20):
            n = 2 + k % 11
            rng = rng_for(k, f"dist-pin-{n}")
            space = random_space(rng, n)
            dist, scale = space.lattice
            pair = [random_measure(rng, space, full_support=k % 2 == 0) for _ in "ab"]
            (tmp_path / "s.json").write_text(json.dumps({
                "points": list(space.points),
                "dist": [[f"{3 * v}/{3 * scale}" for v in row] for row in dist],
            }))
            for name, mu in zip("ab", pair):
                (tmp_path / f"{name}.json").write_text(json.dumps({
                    "space": "s.json",
                    "weights": {p: f"{w.numerator * 2}/{w.denominator * 2}"
                                for p, w in mu.weights},
                }))
            code = cli.main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                             "--mode", mode])
            digest.update(f"{code}\n{capsys.readouterr().out}".encode("utf-8"))
        assert digest.hexdigest() == self.SEEDED_DIGESTS[mode]

    @pytest.mark.parametrize(
        "points, dist, ends, expected",
        [
            # d(a, c) exceeds d(a, b) + d(b, c) by 5e-4: the Lipschitz
            # right-hand side d(b, c) + d(a, b) - d(a, c) is negative
            ("abc", [["0", "1", "2.0005"], ["1", "0", "1"], ["2.0005", "1", "0"]],
             "ac", "2.0005"),
            # asymmetric by 9e-4: the rows read d(k, i) and d(k, j), by which
            # k does not split (i, j), while d(i, k) + d(k, j) = d(i, j)
            ("kij", [["0", "1.0009", "1.0009"], ["1", "0", "2"], ["1", "2", "0"]],
             "ij", "2"),
            # k1 splits (i, j) and k2 splits (k1, j), but rows (i, k1) and
            # (k2, j) have right-hand sides -9e-4 raised to 0
            ("o i k1 k2 j".split(),
             [["0", "5", "6.0009", "7", "8.0009"], ["5", "0", "1", "2", "3"],
              ["6.0009", "1", "0", "1", "2"], ["7", "2", "1", "0", "1"],
              ["8.0009", "3", "2", "1", "0"]],
             ["i", "j"], "3"),
        ],
        ids=["triangle", "asymmetric", "raised-chain"],
    )
    def test_float_space_violated_within_tolerance(
        self, tmp_path, capsys, points, dist, ends, expected
    ):
        # zfun validate accepts each space at tolerance 1e-3, so zfun dist
        # must solve it both ways, to within the tolerance, with a potential
        # that is 1-Lipschitz over all pairs; the two directions' values
        # may differ, but by no more than the tolerance
        (tmp_path / "s.json").write_text(json.dumps({"points": list(points), "dist": dist}))
        for p in ends:
            (tmp_path / f"{p}.json").write_text(
                json.dumps({"space": "s.json", "weights": {p: "1"}})
            )
        flags = ["--mode", "float", "--tolerance", "1e-3"]
        assert cli.main(["validate", str(tmp_path / "s.json"), *flags]) == 0
        capsys.readouterr()
        values = []
        for mu, nu in (ends, ends[::-1]):
            code = cli.main(
                ["dist", str(tmp_path / f"{mu}.json"), str(tmp_path / f"{nu}.json"), *flags]
            )
            out, err = capsys.readouterr()
            assert code == 0, err
            payload = json.loads(out)
            assert abs(float(payload["value"]) - float(expected)) <= 1e-3
            assert abs(float(payload["gap"])) <= 1e-3
            assert payload["pass"] is True
            values.append(float(payload["value"]))
        assert abs(values[0] - values[1]) <= 1e-3

    def test_distances_scaled_by_a_third_of_a_million(self, tmp_path, capsys):
        # distances from 1/24 to 40 times 10^6/3: zfun validate accepts the
        # space at tolerance 1e-6, so zfun dist must solve it; against an
        # absolute pivot threshold the transport simplex cycled on rounding
        # noise until its pivot budget ran out
        rng = rng_for(73, "gauge")
        space = random_space(rng, 12)
        factor = Fraction(10**6, 3)
        dist = [[str(v * factor) for v in row] for row in space.dist]
        (tmp_path / "s.json").write_text(json.dumps({"points": list(space.points), "dist": dist}))
        for name in ("mu", "nu"):
            weights = {p: str(w) for p, w in random_measure(rng, space).weights}
            (tmp_path / f"{name}.json").write_text(json.dumps({"space": "s.json", "weights": weights}))
        flags = ["--mode", "float", "--tolerance", "1e-6"]
        assert cli.main(["validate", str(tmp_path / "s.json"), *flags]) == 0
        capsys.readouterr()
        code = cli.main(["dist", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"), *flags])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["pass"] is True

    def test_distances_scaled_by_a_million(self, tmp_path, capsys):
        # at tolerance 1e-9 zfun validate accepts each listed space, so zfun
        # dist must solve it, though pivot rounding leaves the LP's own
        # potential more than the tolerance off 1-Lipschitz
        flags = ["--mode", "float", "--tolerance", "1e-9"]
        for draw, mu, nu in million_draws():
            space = mu.space
            dist = [[str(v * 10**6) for v in row] for row in space.dist]
            (tmp_path / "s.json").write_text(
                json.dumps({"points": list(space.points), "dist": dist})
            )
            for name, m in (("mu", mu), ("nu", nu)):
                weights = {p: str(w) for p, w in m.weights}
                (tmp_path / f"{name}.json").write_text(
                    json.dumps({"space": "s.json", "weights": weights})
                )
            assert cli.main(["validate", str(tmp_path / "s.json"), *flags]) == 0, draw
            capsys.readouterr()
            code = cli.main(["dist", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"), *flags])
            out, err = capsys.readouterr()
            assert code == 0, (draw, err)
            assert json.loads(out)["pass"] is True

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="one ulp of the diameter, 3.7e-9, exceeds the tolerance, so "
                              "the float dual's potential fails its Lipschitz check")
    def test_a_diameter_whose_ulp_exceeds_the_tolerance(self, tmp_path, capsys):
        # draw 185 of rng_for(11, "coarse-oracle"), distances times 10^6:
        # x0-x1 = x0-x2 + x2-x1, a triangle that holds with equality
        far, mid, near = "22166666.666666668", "18000000.0", "4166666.6666666665"
        dist = [["0", far, mid], [far, "0", near], [mid, near, "0"]]
        (tmp_path / "s.json").write_text(json.dumps({"points": ["x0", "x1", "x2"], "dist": dist}))
        for name, weights in (("mu", ("3/19", "9/19", "7/19")), ("nu", ("4/19", "8/19", "7/19"))):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {"space": "s.json", "weights": dict(zip(["x0", "x1", "x2"], weights))}
            ))
        flags = ["--mode", "float", "--tolerance", "1e-9"]
        assert cli.main(["validate", str(tmp_path / "s.json"), *flags]) == 0
        capsys.readouterr()
        code = cli.main(["dist", str(tmp_path / "mu.json"), str(tmp_path / "nu.json"), *flags])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("kind", ["plan", "potential"])
    def test_single_certificate(self, workdir, kind):
        proc = run_cli(
            "dist", "mu.json", "nu.json", "--certificate", kind, cwd=workdir
        )
        payload = json.loads(proc.stdout)
        assert kind in payload["certificate"]
        other = "potential" if kind == "plan" else "plan"
        assert other not in payload["certificate"]

    def test_float_mode(self, workdir):
        proc = run_cli("dist", "mu.json", "nu.json", "--mode", "float", cwd=workdir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert abs(float(payload["value"]) - 0.75) < 1e-9
        assert abs(float(payload["gap"])) <= 1e-9

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("literal", ["Infinity", "NaN"])
    def test_non_finite_weight_exits_two(self, workdir, mode, literal):
        (workdir / "odd.json").write_text(
            '{"space": "space.json", "weights": {"a": %s, "b": "1/2"}}' % literal
        )
        proc = run_cli("dist", "odd.json", "nu.json", "--mode", mode, cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            f"error: not a finite number: {float(literal)!r}"
        ]

    def test_mismatched_spaces_exit_two(self, workdir):
        other = {"points": ["z"], "dist": [["0"]]}
        (workdir / "other.json").write_text(json.dumps(other))
        (workdir / "mu2.json").write_text(
            json.dumps({"space": "other.json", "weights": {"z": "1"}})
        )
        proc = run_cli("dist", "mu.json", "mu2.json", cwd=workdir)
        assert proc.returncode == 2

    def test_a_shared_space_is_parsed_once(self, tmp_path, monkeypatch, capsys):
        # inline in both files, and as the same path string from two
        # directories whose space.json files are equal
        calls = []
        validate = fileio.validate_space

        def counting(points, dist, mode):
            calls.append(len(points))
            return validate(points, dist, mode)

        monkeypatch.setattr(fileio, "validate_space", counting)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "space.json").write_text(json.dumps(SPACE))
        (tmp_path / "a" / "mu.json").write_text(
            json.dumps({"space": "space.json", "weights": {"a": "1/2", "b": "1/2"}})
        )
        (tmp_path / "b" / "nu.json").write_text(
            json.dumps({"space": "space.json", "weights": {"c": "1"}})
        )
        (tmp_path / "mu.json").write_text(
            json.dumps({"space": SPACE, "weights": {"a": "1/2", "b": "1/2"}})
        )
        (tmp_path / "nu.json").write_text(
            json.dumps({"space": SPACE, "weights": {"c": "1"}})
        )
        for mu, nu in (("mu.json", "nu.json"), ("a/mu.json", "b/nu.json")):
            calls.clear()
            code = cli.main(["dist", str(tmp_path / mu), str(tmp_path / nu)])
            assert code == 0
            assert json.loads(capsys.readouterr().out)["value"] == "3/4"
            assert calls == [3]

    def test_a_path_string_resolves_against_its_own_file(self, workdir):
        # nu.json names "space.json" too, but in another directory, where it
        # is a different space: the two spaces differ
        other = workdir / "other"
        other.mkdir()
        (other / "space.json").write_text(json.dumps(
            {"points": ["a", "b", "c"],
             "dist": [["0", "2", "1"], ["2", "0", "1"], ["1", "1", "0"]]}
        ))
        (other / "nu.json").write_text(
            json.dumps({"space": "space.json", "weights": {"c": "1"}})
        )
        proc = run_cli("dist", "mu.json", "other/nu.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: both measures must live on the same space")


class TestGlueAndPush:
    def test_glue_output_feeds_back_into_validate(self, workdir):
        proc = run_cli("glue", "space.json", "-o", "glued.json", cwd=workdir)
        assert proc.returncode == 0
        glued = json.loads((workdir / "glued.json").read_text())
        assert glued["points"] == ["a", "b", "c", "ω:0", "ω:1"]
        assert glued["dist"][0][3] == "3/2"  # cross distance = diameter
        assert glued["dist"][3][4] == "1"  # anchor kept at distance one
        again = run_cli("validate", "glued.json", cwd=workdir)
        assert again.returncode == 0

    def test_push_moves_mass(self, workdir):
        proc = run_cli("push", "map.json", "mu.json", cwd=workdir)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["weights"] == {"b": "1"}

    def test_push_with_a_non_label_value_exits_two(self, workdir):
        bad = {"domain": "space.json", "codomain": "space.json",
               "assignment": {"a": ["b"], "b": "b", "c": "a"}}
        (workdir / "bad.json").write_text(json.dumps(bad))
        proc = run_cli("push", "bad.json", "mu.json", cwd=workdir)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "error: 'assignment' must be an object of label pairs"
        ]

    def test_a_space_the_map_and_measure_share_is_parsed_once(
        self, workdir, monkeypatch, capsys
    ):
        calls = []
        validate = fileio.validate_space

        def counting(points, dist, mode):
            calls.append(len(points))
            return validate(points, dist, mode)

        monkeypatch.setattr(fileio, "validate_space", counting)
        code = cli.main(["push", str(workdir / "map.json"), str(workdir / "mu.json")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["weights"] == {"b": "1"}
        assert calls == [3]

    def test_a_measure_on_another_space_exits_two(self, workdir, capsys):
        (workdir / "other.json").write_text(
            json.dumps({"space": {"points": ["z"], "dist": [["0"]]}, "weights": {"z": "1"}})
        )
        code = cli.main(["push", str(workdir / "map.json"), str(workdir / "other.json")])
        assert code == 2
        assert capsys.readouterr().err.strip().splitlines() == [
            "error: measure does not live on the map's domain"
        ]


class TestHugeDistances:
    """A distance past Python's integer string limit (4300 digits by
    default) parses and validates, but cannot be written back out."""

    def setup_files(self, tmp, literal):
        (tmp / "s.json").write_text(json.dumps(
            {"points": ["a", "b"], "dist": [["0", literal], [literal, "0"]]}
        ))
        for p in "ab":
            (tmp / f"{p}.json").write_text(
                json.dumps({"space": "s.json", "weights": {p: "1"}})
            )

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no integer string limit")
    @pytest.mark.parametrize("args", [("glue", "s.json"), ("dist", "a.json", "b.json")],
                             ids=["glue", "dist"])
    def test_a_number_too_large_to_write_exits_two(self, tmp_path, default_limit, args):
        self.setup_files(tmp_path, "1e5000")
        assert run_cli("validate", "s.json", cwd=tmp_path).returncode == 0
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip().splitlines() == [
            "error: number too large to write: it has more digits than the "
            "integer string conversion limit"
        ]

    # an error message that quotes such a number: a weights total, a
    # negative weight, an anchor's diameter, a fixture size, and the size an
    # ambient space should have; each still names its field and its rule. A
    # fixture number too large to name a random stream gets one line too.
    QUOTED = {
        "s.json": {"points": ["a", "b"], "dist": [["0", "1"], ["1", "0"]]},
        "tiny.json": {"space": "s.json", "weights": {"a": "1e-5000"}},
        "negative.json": {"space": "s.json", "weights": {"a": "-1e5000", "b": "1e5000"}},
        "big.json": {"points": ["x", "y"], "dist": [["0", "1e5000"], ["1e5000", "0"]]},
        "fx.json": {"n": 4, "k": "1e5000"},
        "fxa.json": {"n": "1e5000", "k": 1, "ambient": "s.json"},
        "fxn.json": {"n": "1e5000", "k": 1},
        "fxs.json": {"n": 4, "k": 2, "seed": "1e5000"},
        "fxh.json": {"n": 4, "k": 2, "h_seed": "1e5000"},
        "m.json": {"domain": ["x0"], "codomain": ["x0"], "assignment": {"x0": "x0"}},
    }

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no integer string limit")
    @pytest.mark.parametrize("args, message", [
        (("dist", "tiny.json", "tiny.json"), "weights total {huge}, expected exactly 1"),
        (("dist", "negative.json", "negative.json"), "negative weight at 'a': {huge}"),
        (("glue", "s.json", "--anchor", "big.json"),
         "anchor diameter is {huge}, expected exactly 1"),
        (("extend", "m.json", "--fixture", "fx.json"), "need 1 <= k <= n/2, got n=4, k={huge}"),
        (("extend", "m.json", "--fixture", "fxa.json"), "ambient has 2 points, expected {huge}"),
        # the fixture's random streams are named by its numbers
        *((("extend", "m.json", "--fixture", name), "a fixture's n, k, seed or h_seed has "
           "more digits than the integer string conversion limit")
          for name in ("fxn.json", "fxs.json", "fxh.json")),
    ], ids=["weights-total", "negative-weight", "anchor-diameter", "fixture-size",
            "ambient-size", "stream-n", "stream-seed", "stream-h_seed"])
    def test_a_number_too_large_to_quote_exits_two(self, tmp_path, default_limit, args,
                                                   message):
        for name, obj in self.QUOTED.items():
            (tmp_path / name).write_text(json.dumps(obj))
        proc = run_cli(*args, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stdout == ""
        huge = "<more digits than the integer string conversion limit>"
        assert proc.stderr.strip().splitlines() == ["error: " + message.format(huge=huge)]

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this interpreter has no integer string limit")
    def test_a_literal_past_the_limit_is_rejected_when_parsed(self, tmp_path, default_limit):
        self.setup_files(tmp_path, "1" * 5001)
        proc = run_cli("glue", "s.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: not a rational: ")

    def test_a_number_within_the_limit_is_written(self, tmp_path, capsys):
        self.setup_files(tmp_path, "1e4000")
        assert cli.main(["glue", str(tmp_path / "s.json")]) == 0
        assert json.loads(capsys.readouterr().out)["dist"][0][1] == str(10**4000)
        assert cli.main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == str(10**4000)


class TestExtend:
    def setup_files(self, tmp):
        (tmp / "phi.json").write_text(
            json.dumps(
                {
                    "domain": ["x0", "x1"],
                    "codomain": ["x2", "x3"],
                    "assignment": {"x0": "x3", "x1": "x2"},
                }
            )
        )
        (tmp / "h.json").write_text(
            json.dumps(
                {
                    "domain": ["x0", "x1", "x2", "x3"],
                    "codomain": ["x0", "x1", "x2", "x3"],
                    "assignment": {
                        "x0": "x1",
                        "x1": "x0",
                        "x2": "x3",
                        "x3": "x2",
                    },
                }
            )
        )

    def test_basic_extension(self, tmp_path):
        self.setup_files(tmp_path)
        proc = run_cli("extend", "phi.json", "--n", "4", "--k", "2", cwd=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["extension"]["x0"] == "x3"
        assert payload["extension"]["x1"] == "x2"
        assert set(payload["extension"].values()) == {"x0", "x1", "x2", "x3"}
        assert [r["name"] for r in payload["records"]] == ["extension-restricts"]

    def test_check_laws_flag_adds_records(self, tmp_path):
        self.setup_files(tmp_path)
        proc = run_cli(
            "extend", "phi.json", "--n", "4", "--k", "2", "--check-laws",
            cwd=tmp_path,
        )
        payload = json.loads(proc.stdout)
        names = [r["name"] for r in payload["records"]]
        assert names == [
            "extension-restricts",
            "identity-law",
            "injectivity-transfer",
            "image-trace",
            "surjectivity-transfer",
        ]
        assert payload["pass"] is True

    def test_law_records_run_the_scheme_suite_code(self, tmp_path, monkeypatch, capsys):
        # a wrong extension, the ambient identity, must fail (b) with the
        # witness the scheme suite's extension_restricts writes
        def wrong_extension(ctx, phi):
            return dataclasses.replace(
                scheme.extend_map(ctx, phi), extension=identity_map(ctx.ambient)
            )

        self.setup_files(tmp_path)
        monkeypatch.setattr(cli, "extend_map", wrong_extension)
        code = cli.main([
            "extend", str(tmp_path / "phi.json"), "--n", "4", "--k", "2", "--check-laws",
        ])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        failing = [r for r in payload["records"] if r["failures"]]
        assert failing == [{
            "name": "extension-restricts", "tag": "(b)", "instances": "2",
            "failures": [{"instance": "0", "point": "x0", "original": "x3", "extended": "x0"}],
        }]

    @pytest.mark.parametrize("cwd", ["maps", ".", "elsewhere"])
    def test_domain_and_codomain_may_be_paths(self, tmp_path, monkeypatch, capsys, cwd):
        # README's map shape: each path resolves against the map file
        maps = tmp_path / "maps"
        maps.mkdir()
        (tmp_path / "elsewhere").mkdir()
        (maps / "dom.json").write_text(json.dumps(["x0", "x1"]))
        (maps / "cod.json").write_text(json.dumps(
            {"points": ["x2", "x3"], "dist": [["0", "1"], ["1", "0"]]}))
        (maps / "map.json").write_text(json.dumps({
            "domain": "dom.json", "codomain": "cod.json",
            "assignment": {"x0": "x3", "x1": "x2"},
        }))
        monkeypatch.chdir(tmp_path / cwd)
        code = cli.main(["extend", os.path.relpath(maps / "map.json"), "--n", "4", "--k", "2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["original"] == {"x0": "x3", "x1": "x2"}
        assert payload["extension"]["x0"] == "x3"

    def test_fixture_file(self, tmp_path):
        self.setup_files(tmp_path)
        (tmp_path / "fixture.json").write_text(
            json.dumps({"n": 4, "k": 2, "seed": 0})
        )
        proc = run_cli("extend", "phi.json", "--fixture", "fixture.json", cwd=tmp_path)
        assert proc.returncode == 0

    def test_decompose(self, tmp_path):
        self.setup_files(tmp_path)
        proc = run_cli(
            "extend", "h.json", "--n", "4", "--k", "2",
            "--decompose", "--subset", "x0,x1",
            cwd=tmp_path,
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert list(payload) == ["command", "ambient", "subset", "fixes_subset_pointwise",
                                 "extends_restriction", "pass"]
        u = payload["fixes_subset_pointwise"]
        v = payload["extends_restriction"]
        assert u["x0"] == "x0" and u["x1"] == "x1"
        assert v["x0"] == "x1" and v["x1"] == "x0"

    def test_decompose_runs_the_scheme_suite_law(self, tmp_path, monkeypatch):
        # h itself as u and the identity as v still compose to h, but u
        # moves the member points; the suite's factorization_law fails it
        def wrong_factors(ctx, member, h):
            return h, identity_map(ctx.ambient)

        self.setup_files(tmp_path)
        monkeypatch.setattr(cli, "decompose_automorphism", wrong_factors)
        proc = run_cli(
            "extend", "h.json", "--n", "4", "--k", "2",
            "--decompose", "--subset", "x0,x1",
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert payload["pass"] is False
        assert payload["fixes_subset_pointwise"]["x0"] == "x1"
        assert payload["failures"] == [{"instance": "0", "law": "u moves a member point"}]

    def test_fixture_seed_is_an_unknown_flag(self, tmp_path, capsys):
        # --seed, or a fixture file's "seed", picks the fixture
        self.setup_files(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([
                "extend", str(tmp_path / "phi.json"), "--n", "4", "--k", "2",
                "--fixture-seed", "3",
            ])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --fixture-seed 3" in capsys.readouterr().err

    def test_not_in_family_exits_two(self, tmp_path):
        (tmp_path / "bad.json").write_text(
            json.dumps(
                {
                    "domain": ["x0", "x1", "x2"],
                    "codomain": ["x0", "x1", "x2"],
                    "assignment": {"x0": "x0", "x1": "x1", "x2": "x2"},
                }
            )
        )
        proc = run_cli("extend", "bad.json", "--n", "4", "--k", "2", cwd=tmp_path)
        assert proc.returncode == 2

    def test_needs_fixture_or_sizes(self, tmp_path):
        self.setup_files(tmp_path)
        proc = run_cli("extend", "phi.json", cwd=tmp_path)
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "fixture, key",
        [
            ({"n": "abc", "k": 2}, "n"),
            ({"n": 4.7, "k": 2}, "n"),
            ({"n": 4, "k": [2]}, "k"),
            ({"n": 4, "k": True}, "k"),
            ({"n": 4, "k": 2, "seed": "s"}, "seed"),
            ({"n": 4, "k": 2, "h_seed": "x"}, "h_seed"),
        ],
        ids=["n-text", "n-fraction", "k-list", "k-bool", "seed", "h_seed"],
    )
    def test_non_integer_fixture_field_exits_two(self, tmp_path, fixture, key):
        self.setup_files(tmp_path)
        (tmp_path / "fixture.json").write_text(json.dumps(fixture))
        proc = run_cli("extend", "phi.json", "--fixture", "fixture.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.startswith(f"error: fixture {key!r} must be an integer")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "assignment, flags",
        [
            ({"x0": ["x3"], "x1": "x2"}, ()),
            (["x3", "x2"], ()),
            (["x1", "x0", "x3", "x2"], ("--decompose", "--subset", "x0,x1")),
        ],
        ids=["non-label-value", "list", "list-decompose"],
    )
    def test_malformed_assignment_exits_two(self, tmp_path, assignment, flags):
        bad = {"domain": ["x0", "x1"], "codomain": ["x2", "x3"], "assignment": assignment}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        proc = run_cli("extend", "bad.json", "--n", "4", "--k", "2", *flags, cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "error: 'assignment' must be an object of label pairs"
        ]

    @pytest.mark.parametrize("domain", [[["x0"], "x1"], {"points": 5}],
                             ids=["list-label", "points-not-a-list"])
    def test_malformed_domain_exits_two(self, tmp_path, domain):
        bad = {"domain": domain, "codomain": ["x2", "x3"], "assignment": {"x0": "x3"}}
        (tmp_path / "bad.json").write_text(json.dumps(bad))
        proc = run_cli("extend", "bad.json", "--n", "4", "--k", "2", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "error: domain/codomain must be a label list or a space object"
        ]


class TestCheck:
    def test_small_run_passes(self, tmp_path):
        proc = run_cli("check", "metric", "--trials", "5", cwd=tmp_path)
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["pass"] is True
        assert payload["config"]["trials"] == "5"

    def test_byte_reproducible(self, tmp_path):
        for name in ("one.json", "two.json"):
            proc = run_cli(
                "check", "measure", "--trials", "5", "--seed", "7",
                "-o", name, cwd=tmp_path,
            )
            assert proc.returncode == 0
        assert (tmp_path / "one.json").read_bytes() == (
            tmp_path / "two.json"
        ).read_bytes()

    def test_env_seed_fallback(self, tmp_path):
        flagged = run_cli(
            "check", "measure", "--trials", "5", "--seed", "9",
            "-o", "flag.json", cwd=tmp_path,
        )
        env = run_cli(
            "check", "measure", "--trials", "5",
            "-o", "env.json", env_extra={"ZFUN_SEED": "9"}, cwd=tmp_path,
        )
        assert flagged.returncode == env.returncode == 0
        assert (tmp_path / "flag.json").read_bytes() == (
            tmp_path / "env.json"
        ).read_bytes()

    def test_injected_defect_fails_with_named_tag(self, tmp_path):
        proc = run_cli(
            "check", "metric", "--trials", "5", "--inject-glue-defect",
            cwd=tmp_path,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        failing = [r for r in payload["records"] if r["failures"]]
        assert [r["tag"] for r in failing] == ["(Λ4)"]

    @pytest.mark.parametrize("suite", ["metric", "scheme"])
    def test_impossible_fixture_sizes_exit_two(self, tmp_path, suite):
        proc = run_cli("check", suite, "--n", "4", "--k", "3", "--trials", "1",
                       cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr == "error: need 1 <= k <= n/2, got n=4, k=3\n"
        assert proc.stdout == ""

    def test_unknown_suite_exits_two(self, tmp_path):
        proc = run_cli("check", "nonsense", cwd=tmp_path)
        assert proc.returncode == 2

    def test_a_crashed_check_prints_its_traceback_to_stderr(self, tmp_path, monkeypatch):
        def crash(*args):
            raise RuntimeError("boom")

        first, *rest = suites._CHECKS["metric"]
        monkeypatch.setitem(suites._CHECKS, "metric",
                            [dataclasses.replace(first, body=crash), *rest])
        proc = run_cli("check", "metric", "--trials", "1", cwd=tmp_path)
        assert proc.returncode == 1
        assert "check axiom-detection raised" in proc.stderr
        assert "Traceback" in proc.stderr
        record = json.loads(proc.stdout)["records"][0]
        assert record["failures"] == [{"instance": "0", "error": "RuntimeError: boom"}]


class TestReport:
    def test_round_trip(self, tmp_path):
        run_cli(
            "check", "step", "--trials", "5", "-o", "saved.json", cwd=tmp_path
        )
        proc = run_cli("report", "saved.json", cwd=tmp_path)
        assert proc.returncode == 0
        assert "PASS" in proc.stdout
        assert "check step" in proc.stdout

    @pytest.mark.parametrize("check, code, verdict", [
        (("step",), 0, "PASS"),
        (("metric", "--inject-glue-defect"), 1, "FAIL"),
    ], ids=["passing", "failing"])
    def test_output_flag_writes_the_summary_there(self, tmp_path, check, code, verdict):
        run_cli("check", *check, "--trials", "5", "-o", "saved.json", cwd=tmp_path)
        shown = run_cli("report", "saved.json", cwd=tmp_path)
        proc = run_cli("report", "saved.json", "-o", "out.txt", cwd=tmp_path)
        assert proc.returncode == shown.returncode == code
        assert proc.stdout == proc.stderr == ""
        summary = (tmp_path / "out.txt").read_text(encoding="utf-8")
        assert summary == shown.stdout
        assert summary.startswith(f"command: check {check[0]}\n")
        assert summary.endswith(f"{verdict}\n")

    def test_failing_report_exits_one(self, tmp_path):
        run_cli(
            "check", "metric", "--trials", "5", "--inject-glue-defect",
            "-o", "bad.json", cwd=tmp_path,
        )
        proc = run_cli("report", "bad.json", cwd=tmp_path)
        assert proc.returncode == 1
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize(
        "records",
        [[1], {"a": 1}, [{"name": "x", "failures": 5}]],
        ids=["list-of-numbers", "object", "failures-not-a-list"],
    )
    def test_malformed_records_exit_two(self, tmp_path, records):
        (tmp_path / "odd.json").write_text(json.dumps({"pass": True, "records": records}))
        proc = run_cli("report", "odd.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.strip().splitlines() == [
            "error: a report's 'records' must be a list of objects"
        ]

    @pytest.mark.parametrize("verdict", ["false", 0, 1, None], ids=repr)
    def test_pass_that_is_not_a_boolean_exits_two(self, tmp_path, verdict):
        (tmp_path / "odd.json").write_text(json.dumps({"pass": verdict, "records": []}))
        proc = run_cli("report", "odd.json", cwd=tmp_path)
        assert proc.returncode == 2
        assert "PASS" not in proc.stdout
        assert proc.stderr.strip().splitlines() == [
            "error: a report's 'pass' must be true or false"
        ]


class TestUsage:
    @pytest.mark.parametrize(
        "args, env, named",
        [
            (("check", "all", "--trials", "0"), None, "--trials"),
            (("check", "metric", "--mode", "float", "--tolerance", "nan"), None,
             "--tolerance"),
            (("check", "metric", "--mode", "float", "--tolerance", "-1"), None,
             "--tolerance"),
            (("check", "metric", "--mode", "float", "--tolerance", "inf"), None,
             "--tolerance"),
            (("check", "metric", "--trials", "1"), {"ZFUN_SEED": "abc"}, "ZFUN_SEED"),
        ],
        ids=["trials-0", "tolerance-nan", "tolerance-negative", "tolerance-inf",
             "env-seed"],
    )
    def test_bad_parameters_exit_two(self, tmp_path, args, env, named):
        proc = run_cli(*args, env_extra=env, cwd=tmp_path)
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert named in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_no_arguments_exits_two(self):
        proc = run_cli()
        assert proc.returncode == 2

    def test_unknown_subcommand_exits_two(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_help_exits_zero(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        for sub in ("validate", "dist", "glue", "push", "extend", "check", "report"):
            assert sub in proc.stdout


class TestRepeatedMain:
    """``cli.main`` builds its parser once and may be called again and again
    in one process: no call's flags, failure or environment leaks into the
    next."""

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_of_one_call_do_not_carry_into_the_next(self, workdir, capsys):
        mu, nu, out = (str(workdir / name) for name in ("mu.json", "nu.json", "x.json"))
        code = cli.main(["dist", mu, nu, "--mode", "float", "--tolerance", "1e-3",
                         "--certificate", "plan", "-o", out])
        assert code == 0
        written = json.loads((workdir / "x.json").read_text())
        assert written["mode"] == "float" and list(written["certificate"]) == ["plan"]
        assert capsys.readouterr().out == ""
        assert cli.main(["dist", mu, nu]) == 0
        assert capsys.readouterr().out == run_child("dist", "mu.json", "nu.json",
                                                    cwd=workdir).stdout

    def test_a_usage_error_does_not_break_the_next_call(self, workdir, capsys):
        mu, nu = str(workdir / "mu.json"), str(workdir / "nu.json")
        with pytest.raises(SystemExit) as exc:
            cli.main(["dist", mu, nu, "--certificate", "neither"])
        assert exc.value.code == 2
        assert cli.main(["dist", mu, nu]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == "3/4"

    def test_each_call_reads_the_seed_variable_again(self, monkeypatch, capsys):
        for seed in ("5", "6"):
            monkeypatch.setenv("ZFUN_SEED", seed)
            assert cli.main(["check", "metric", "--trials", "1"]) == 0
            assert json.loads(capsys.readouterr().out)["config"]["seed"] == seed


class TestChildProcess:
    """``python -m zfun`` as users run it: the process exits with the code
    ``cli.main`` returns and prints an ``error:`` line only for exit 2."""

    @pytest.mark.parametrize("name, code", [("space.json", 0), ("broken.json", 1),
                                            ("nope.json", 2)])
    def test_the_exit_code_reaches_the_shell(self, workdir, name, code):
        proc = run_child("validate", name, cwd=workdir)
        assert proc.returncode == code
        errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        assert len(errors) == (1 if code == 2 else 0)


class TestRunCli:
    """The in-process runner leaves this process as it found it."""

    @pytest.mark.parametrize("args, code", [
        (("dist", "mu.json", "nu.json", "--certificate", "neither"), 2),
        (("validate", "nope.json"), 2),
        (("--help",), 0),
    ], ids=["usage-error", "zfun-error", "help"])
    def test_the_process_is_restored(self, workdir, args, code):
        def state():
            return (os.getcwd(), dict(os.environ),
                    getattr(sys, "get_int_max_str_digits", lambda: None)())

        before = state()
        proc = run_cli(*args, env_extra={"ZFUN_SEED": "3", "ZFUN_TEST_EXTRA": "1"},
                       cwd=workdir)
        assert proc.returncode == code
        assert state() == before

    def test_a_seed_in_this_process_does_not_reach_the_call(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ZFUN_SEED", "9")
        proc = run_cli("check", "metric", "--trials", "1", cwd=tmp_path)
        assert json.loads(proc.stdout)["config"]["seed"] == "0"
        assert os.environ["ZFUN_SEED"] == "9"
