"""The 0/1/2 exit-code contract under malformed input.

Every command run in-process through ``cli.main`` on a mutated input file
returns 0, 1 or 2, raises nothing, and prints at most one ``error:`` line.
The mutations put JSON atoms at the fields of a valid space, measure, map,
fixture, extend map, bijection or report; the byte-level files are not JSON
at all.
"""

import copy
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import run_cli

SPACE = {  # diameter 1, so it is also an anchor
    "points": ["a", "b", "c"],
    "dist": [["0", "1", "2/3"], ["1", "0", "1/3"], ["2/3", "1/3", "0"]],
}
AMBIENT = {
    "points": ["x0", "x1", "x2", "x3"],
    "dist": [["0", "1", "2", "1"], ["1", "0", "1", "2"],
             ["2", "1", "0", "1"], ["1", "2", "1", "0"]],
}
BIG_LITERAL = "9" * 5000  # past the default integer string limit of 4300 digits

# file contents that are not JSON: too deeply nested, not UTF-8, and an
# integer literal past the interpreter's integer string limit
MALFORMED_BYTES = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "not-utf8": b"\xff\xfe",
    "long-integer": f"[{BIG_LITERAL}]".encode(),
}


def _is_malformed(name: str) -> bool:
    """Whether ``MALFORMED_BYTES[name]`` is not JSON in this interpreter: the
    long integer is JSON where there is no integer string limit, or it is 0."""
    return name != "long-integer" or bool(getattr(sys, "get_int_max_str_digits", lambda: 0)())

# a valid object of each kind, and the commands that read it as "FILE"; the
# other files each command names are the valid objects of those kinds
VALID = {
    "space": SPACE,
    "measure": {"space": SPACE, "weights": {"a": "1/2", "b": "1/2"}},
    "map": {"domain": SPACE, "codomain": SPACE,
            "assignment": {"a": "b", "b": "b", "c": "a"}},
    "fixture": {"n": 4, "k": 2, "seed": 0, "h_seed": 1, "ambient": AMBIENT},
    "extend-map": {"domain": ["x0", "x1"],
                   "codomain": {"points": ["x2", "x3"], "dist": [["0", "1"], ["1", "0"]]},
                   "assignment": {"x0": "x3", "x1": "x2"}},
    "bijection": {"assignment": {"x0": "x1", "x1": "x0", "x2": "x3", "x3": "x2"}},
    "report": {"command": "check step", "config": {"seed": "0"},
               "records": [{"name": "r", "tag": "(a)", "instances": "1",
                            "failures": [{"instance": "0"}]}],
               "pass": False},
}
COMMANDS = {
    "space": [["validate", "FILE"], ["glue", "FILE"], ["glue", "space.json", "--anchor", "FILE"]],
    "measure": [["dist", "FILE", "measure.json"], ["push", "map.json", "FILE"]],
    "map": [["push", "FILE", "measure.json"]],
    "fixture": [["extend", "extend-map.json", "--fixture", "FILE", "--check-laws"]],
    "extend-map": [["extend", "FILE", "--n", "4", "--k", "2", "--check-laws"]],
    "bijection": [["extend", "FILE", "--n", "4", "--k", "2", "--decompose",
                   "--subset", "x0,x1"]],
    "report": [["report", "FILE"]],
}
BIG = object()  # stands for BIG_LITERAL, which json.dumps cannot write
ATOMS = [None, True, [], {}, "1/0", "nan", 1e400, "1e5000", BIG]


def _nodes(obj, path=()):
    """The path of the root, of every field and of each list's first entry,
    depth first (the program reads a list's other entries as its first)."""
    yield path
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj[:1]) if isinstance(obj, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _replace(obj, path, atom):
    if not path:
        return atom
    obj = copy.deepcopy(obj)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = atom
    return obj


def _dumps(obj) -> bytes:
    text = json.dumps(obj, default=lambda o: "\0BIG\0")
    return text.replace('"\\u0000BIG\\u0000"', BIG_LITERAL).encode()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding one valid file of each kind."""
    root = tmp_path_factory.mktemp("contract")
    for kind, obj in VALID.items():
        (root / f"{kind}.json").write_bytes(_dumps(obj))
    return root


def _run(workdir, command, content: bytes, mode: str):
    """``cli.main`` on ``command`` with FILE holding ``content``: code, stderr."""
    (workdir / "input.json").write_bytes(content)
    argv = ["input.json" if a == "FILE" else a for a in command]
    proc = run_cli(*argv, "--mode", mode, cwd=workdir)
    return proc.returncode, proc.stderr


def _error_lines(stderr: str) -> list[str]:
    return [line for line in stderr.splitlines() if line.startswith("error:")]


class TestMalformedBytes:
    @pytest.mark.parametrize("name", sorted(MALFORMED_BYTES))
    @pytest.mark.parametrize("command", [
        ["validate", "FILE"],
        ["dist", "FILE", "measure.json"],
        ["report", "FILE"],
        ["extend", "extend-map.json", "--fixture", "FILE"],
    ], ids=lambda c: c[0])
    def test_exits_two_with_one_error_line(self, workdir, name, command):
        if not _is_malformed(name):
            pytest.skip("no integer string limit, so the long integer is JSON")
        code, stderr = _run(workdir, command, MALFORMED_BYTES[name], "exact")
        assert code == 2
        assert stderr.splitlines() == _error_lines(stderr)
        assert len(_error_lines(stderr)) == 1
        assert "input.json is not valid JSON" in stderr

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_every_command_exits_two(self, workdir, mode):
        for command in (c for commands in COMMANDS.values() for c in commands):
            for name in filter(_is_malformed, MALFORMED_BYTES):
                code, stderr = _run(workdir, command, MALFORMED_BYTES[name], mode)
                assert (code, len(_error_lines(stderr))) == (2, 1), command


class TestMutationFuzz:
    def test_the_valid_objects_pass(self, workdir):
        for kind, commands in COMMANDS.items():
            for command in commands:
                for mode in ("exact", "float"):
                    code, stderr = _run(workdir, command, _dumps(VALID[kind]), mode)
                    assert (code, _error_lines(stderr)) == (0 if kind != "report" else 1, [])

    def test_every_single_mutation_keeps_the_contract(self, workdir):
        # each atom at each node, in exact and float mode by turns
        mutations = [(kind, path, atom) for kind, obj in VALID.items()
                     for path in _nodes(obj) for atom in ATOMS]
        for index, (kind, path, atom) in enumerate(mutations):
            content = _dumps(_replace(VALID[kind], path, atom))
            for command in COMMANDS[kind]:
                code, stderr = _run(workdir, command, content, ("exact", "float")[index % 2])
                assert code in (0, 1, 2) and len(_error_lines(stderr)) <= 1, (kind, path, atom)

    @settings(derandomize=True, max_examples=120, deadline=None, database=None)
    @given(data=st.data(), kind=st.sampled_from(sorted(VALID)),
           mode=st.sampled_from(["exact", "float"]))
    def test_every_pair_of_mutations_keeps_the_contract(self, workdir, data, kind, mode):
        obj = VALID[kind]
        for _ in range(2):
            path = data.draw(st.sampled_from(list(_nodes(obj))))
            obj = _replace(obj, path, data.draw(st.sampled_from(ATOMS)))
        for command in COMMANDS[kind]:
            code, stderr = _run(workdir, command, _dumps(obj), mode)
            assert code in (0, 1, 2)
            assert len(_error_lines(stderr)) <= 1
