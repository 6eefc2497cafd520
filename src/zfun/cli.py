"""Command-line interface: ``zfun <subcommand>``.

Exit codes: 0 when the requested checks pass, 1 when a check fails, 2 for
usage, file or contract errors.  JSON results, and the summary of
``zfun report``, go to --output (or stdout); the other human-readable
summaries and timings go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time

from . import fileio
from .errors import AxiomViolation, FormatError, ZfunError
from .kantorovich import kantorovich_dual, kantorovich_primal
from .measures import pushforward
from .numbers import DEFAULT_FLOAT_TOLERANCE, mode_from_name
from .scheme import (
    build_finite_fixture,
    conjugate_map,
    decompose_automorphism,
    extend_map,
    member_space,
)
from .spaces import glue_space, identity_map, metric_map
from .suites import (
    CheckRecord,
    Report,
    RunConfig,
    extension_functor_laws,
    extension_restricts,
    extension_transfers,
    factorization_law,
    run_suite,
)


def _trial_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and above 0, got {text!r}")
    return value


def _shared_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--mode", choices=("exact", "float"), default="exact",
        help="exact rational arithmetic (default) or tolerant floats",
    )
    common.add_argument(
        "--tolerance", type=_tolerance, default=DEFAULT_FLOAT_TOLERANCE,
        help="comparison tolerance for float mode (default 1e-9)",
    )
    common.add_argument(
        "--seed", type=int, default=None,
        help="random seed (default: ZFUN_SEED environment variable, then 0)",
    )
    common.add_argument(
        "-o", "--output", metavar="PATH", default=None,
        help="write the result here instead of stdout",
    )
    return common


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``zfun`` parser, built on the first call and then reused.

    Each ``parse_args`` call fills a fresh namespace and leaves the parser as
    it was, so every call of :func:`main` in one process can share it.
    """
    parser = argparse.ArgumentParser(
        prog="zfun",
        description="exact finite metric spaces, measures, gluing and extension checks",
    )
    common = _shared_flags()
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check the metric axioms of a space file")
    p.add_argument("space", help="space JSON file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("dist", parents=[common],
                       help="Kantorovich distance between two measure files")
    p.add_argument("mu", help="first measure JSON file")
    p.add_argument("nu", help="second measure JSON file")
    p.add_argument("--certificate", choices=("plan", "potential", "both"),
                   default="both", help="which optimality certificate to emit")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("glue", parents=[common],
                       help="adjoin the anchor to a space file")
    p.add_argument("space", help="space JSON file")
    p.add_argument("--anchor", default=None,
                   help="anchor space JSON file (default: two points at distance 1)")
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("push", parents=[common],
                       help="pushforward of a measure along a map")
    p.add_argument("map", help="map JSON file")
    p.add_argument("measure", help="measure JSON file")
    p.set_defaults(func=cmd_push)

    p = sub.add_parser("extend", parents=[common],
                       help="extend a map between fixture subsets to the ambient space")
    p.add_argument("map", help="map JSON file (domain/codomain may be label lists)")
    p.add_argument("--fixture", default=None,
                   help="fixture JSON file: {\"n\", \"k\", \"seed\", \"h_seed\"?}")
    p.add_argument("--n", type=int, default=None, help="ambient size (alternative to --fixture)")
    p.add_argument("--k", type=int, default=None, help="subset size (alternative to --fixture)")
    p.add_argument("--check-laws", action="store_true",
                   help="also verify identity/composition laws and "
                        "injectivity/surjectivity/image transfer")
    p.add_argument("--decompose", action="store_true",
                   help="treat the map as an ambient bijection and factor it")
    p.add_argument("--subset", default=None,
                   help="comma-separated member labels (required with --decompose)")
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("check", parents=[common],
                       help="run a property-check suite and report")
    p.add_argument("suite", choices=("metric", "measure", "kantorovich",
                                     "scheme", "step", "all"))
    p.add_argument("--trials", type=_trial_count, default=100,
                   help="randomized instances per record (default 100)")
    p.add_argument("--n", type=int, default=4, help="fixture ambient size")
    p.add_argument("--k", type=int, default=2, help="fixture subset size")
    p.add_argument("--inject-glue-defect", action="store_true",
                   help="harness self-test: corrupt one glue cross-distance")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("report", parents=[common],
                       help="pretty-print a saved report and exit by its pass flag")
    p.add_argument("report", help="report JSON file")
    p.set_defaults(func=cmd_report)

    return parser


def _mode(args):
    return mode_from_name(args.mode, args.tolerance)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("ZFUN_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"ZFUN_SEED must be an integer, got {raw!r}") from None


def _emit(obj, args) -> None:
    text = fileio.dump_json(obj, args.output)
    if args.output is None:
        sys.stdout.write(text)


def _print_records(report_obj, stream) -> None:
    for record in report_obj.get("records", ()):
        status = "PASS" if not record.get("failures") else "FAIL"
        print(
            f"{status} {record.get('name')} [{record.get('tag')}] "
            f"instances={record.get('instances')} "
            f"failures={len(record.get('failures', ()))}",
            file=stream,
        )


def _emit_report(report: Report, args, **extra) -> int:
    """Emit the report, then ``extra``; list its records on stderr; return its exit code."""
    out = {**report.as_dict(), **extra}
    _emit(out, args)
    _print_records(out, sys.stderr)
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    mode = _mode(args)
    record = CheckRecord("metric-axioms", "plumbing", 1)
    try:
        fileio.load_space(args.space, mode)
    except AxiomViolation as exc:
        for axiom, witness in exc.violations:
            record.failures.append({"axiom": axiom, "witness": list(witness)})
    cfg = RunConfig(mode=mode, seed=_seed(args), trials=1)
    return _emit_report(Report("validate", cfg, [record]), args)


def cmd_dist(args) -> int:
    mode = _mode(args)
    parsed: list = []  # a space both files give is parsed and validated once
    mu = fileio.load_measure(args.mu, mode, parsed)
    nu = fileio.load_measure(args.nu, mode, parsed)
    start = time.monotonic()
    dual_value, potential = kantorovich_dual(mu, nu)
    split = time.monotonic()
    primal_value, plan = kantorovich_primal(mu, nu)
    end = time.monotonic()
    gap = primal_value - dual_value
    passed = mode.eq(gap, mode.zero)
    certificate = {}
    if args.certificate in ("potential", "both"):
        certificate["potential"] = fileio.potential_to_obj(potential)
    if args.certificate in ("plan", "both"):
        certificate["plan"] = fileio.plan_to_obj(plan)
    out = {
        "command": "dist",
        "mode": mode.kind,
        "value": fileio.format_number(dual_value),
        "gap": fileio.format_number(gap),
        "certificate": certificate,
        "pass": passed,
    }
    _emit(out, args)
    print(f"dist: value={out['value']} gap={out['gap']} "
          f"(dual {split - start:.3f}s, primal {end - split:.3f}s)",
          file=sys.stderr)
    return 0 if passed else 1


def cmd_glue(args) -> int:
    mode = _mode(args)
    space = fileio.load_space(args.space, mode)
    anchor = fileio.load_space(args.anchor, mode) if args.anchor else None
    glued = glue_space(space, anchor)
    _emit(fileio.space_to_obj(glued), args)
    return 0


def cmd_push(args) -> int:
    mode = _mode(args)
    parsed: list = []  # a space the map and the measure share is parsed once
    f = fileio.load_map(args.map, mode, parsed)
    mu = fileio.load_measure(args.measure, mode, parsed)
    nu = pushforward(f, mu)
    _emit(fileio.measure_to_obj(nu), args)
    return 0


def cmd_extend(args) -> int:
    mode = _mode(args)
    seed = _seed(args)
    if args.fixture:
        ctx = fileio.load_fixture(args.fixture, mode, seed)
    elif args.n is None or args.k is None:
        raise FormatError("extend needs --fixture FILE or both --n and --k")
    else:
        ctx = build_finite_fixture(args.n, args.k, seed, mode)
    assignment, labels = fileio.load_extend_map(args.map)

    if args.decompose:
        if not args.subset:
            raise FormatError("--decompose requires --subset with member labels")
        member = ctx.member(label.strip() for label in args.subset.split(","))
        h = metric_map(ctx.ambient, ctx.ambient, assignment)
        u, v = decompose_automorphism(ctx, member, h)
        record = CheckRecord("decomposition-factorization", "(a)", 1)
        held = factorization_law(record, 0, ctx, member, h, u, v)
        _emit({
            "command": "extend --decompose",
            "ambient": list(ctx.ambient.points),
            "subset": list(member),
            "fixes_subset_pointwise": dict(u.assignment),
            "extends_restriction": dict(v.assignment),
            "pass": held,
            **({} if held else {"failures": record.failures}),
        }, args)
        return 0 if held else 1

    dom = member_space(ctx, labels("domain"))
    cod = member_space(ctx, labels("codomain"))
    phi = metric_map(dom, cod, assignment)
    hat = extend_map(ctx, phi)

    records = [CheckRecord("extension-restricts", "(b)", len(dom.points))]
    extension_restricts(records[0], 0, phi, hat)
    if args.check_laws:
        laws = [CheckRecord(name, tag, 1) for name, tag in (
            ("identity-law", "(a)"), ("injectivity-transfer", "(c)"),
            ("image-trace", "(d)"), ("surjectivity-transfer", "(e)"),
        )]
        # law (a) on the identity of the domain and the map: the composite
        # is the map itself
        extension_functor_laws(laws[0], 0, ctx, identity_map(dom), phi)
        extension_transfers(laws[1:], 0, ctx, phi, hat)
        records += laws

    cfg = RunConfig(mode=mode, seed=seed, trials=1,
                    n=len(ctx.ambient.points), k=ctx.subset_size)
    return _emit_report(Report("extend", cfg, records), args,
                        original=dict(phi.assignment),
                        conjugate=dict(conjugate_map(ctx, phi).assignment),
                        extension=dict(hat.assignment))


def cmd_check(args) -> int:
    cfg = RunConfig(mode=_mode(args), seed=_seed(args), trials=args.trials, n=args.n,
                    k=args.k, inject_glue_defect=args.inject_glue_defect)
    report = run_suite(args.suite, cfg)
    code = _emit_report(report, args)
    print(
        f"check {args.suite}: {'PASS' if report.passed else 'FAIL'} "
        f"({len(report.records)} records, {report.duration:.3f}s)",
        file=sys.stderr,
    )
    return code


def cmd_report(args) -> int:
    obj = fileio.load_report(args.report)
    target = contextlib.nullcontext(sys.stdout) if args.output is None else open(
        args.output, "w", encoding="utf-8")
    with target as stream:
        print(f"command: {obj.get('command', '?')}", file=stream)
        _print_records(obj, stream)
        print("PASS" if obj["pass"] else "FAIL", file=stream)
    return 0 if obj["pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ZfunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
