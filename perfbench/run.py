"""zfun benchmark: seeded workloads, verified outputs, end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload check-exact --seed 1 --seconds 25 --trace 0

Every workload is a closed loop with one caller in this single process.  The
benchmark generates its inputs from ``--seed`` and hands zfun only those
inputs.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
The exit code is 1 when any output fails verification, 2 when zfun cannot be
found.  See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "zfun"
WORK = Path(__file__).resolve().parent / ".work"

WORKLOADS = {  # name -> (operation, arithmetic mode)
    "check-exact": ("check", "exact"),
    "check-float": ("check", "float"),
    "dist-exact": ("dist", "exact"),
    "dist-float": ("dist", "float"),
}

CHECK_TRIALS = 100
CHECK_RECORDS = 44
# sha256 of the canonical `check all --seed 42 --trials 100` report
PINNED_SHA256 = {
    "exact": "32ce15ce2a3df00aba5d7cd0c7360f0eb317cf8b673229bc88bd266a450e6d9a",
    "float": "46405c368ec0f3a7871015981ed9b6bd0b8ef6e5c4a2dc8eeb25b13277836459",
}
PINNED_SEED = 42

# Point counts that dist requests cycle through.  An odd number of evenly
# spaced sizes puts the median and the 90th percentile inside one size's
# latencies rather than on the gap between two sizes.
DIST_SIZES = {"exact": (6, 7, 8, 9, 10), "float": (8, 11, 14, 17, 20)}
# Requests per size with distinct inputs; a run wraps around only past this.
# Every request gets its own space, so percentiles rest on many spaces.
DIST_PAIRS = 64
# Distances are k/den with den <= 8, so they are integers over DIST_SCALE;
# input files carry them unreduced, as "integer/840".
DIST_SCALE = 840
FLOAT_TOLERANCE = 1e-9  # zfun's default float-mode tolerance, per unit distance
SETUP_REPEATS = 5
TRACE_DIST_CYCLES = 2  # one traced dist unit = this many requests per size


def import_zfun():
    """Import zfun afresh from this checkout's src/, whatever PYTHONPATH says."""
    for name in [m for m in sys.modules if m == "zfun" or m.startswith("zfun.")]:
        del sys.modules[name]
    src = str(PACKAGE.parent)
    if sys.path[:1] != [src]:
        sys.path.insert(0, src)
    zfun = importlib.import_module("zfun")
    if Path(zfun.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"zfun was imported from {zfun.__file__}, not {PACKAGE}")
    for name in ("cli", "numbers", "suites"):
        importlib.import_module(f"zfun.{name}")
    return zfun


# ---------------------------------------------------------------------------
# inputs


def random_metric(rng: random.Random, n: int) -> list[list[int]]:
    """Shortest-path closure of random positive weights, in units of 1/DIST_SCALE.

    The same distribution as ``zfun.generate.random_space``, in integer
    arithmetic so that a distinct space per request costs little set-up.
    """
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(1, 40) * DIST_SCALE // rng.randint(1, 8)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik, di = d[i][k], d[i]
            for j in range(n):
                if dik + dk[j] < di[j]:
                    di[j] = dik + dk[j]
    return d


def random_weights(rng: random.Random, n: int) -> list[Fraction]:
    """Full-support weights, as ``zfun.generate.random_measure(full_support=True)``."""
    raw = [rng.randint(1, 9) for _ in range(n)]
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def make_dist_inputs(seed: int, mode: str, directory: Path) -> list[list[dict]]:
    """For each size, DIST_PAIRS spaces with one full-support (mu, nu) pair each."""
    pool = []
    for n in DIST_SIZES[mode]:
        rng = random.Random(f"perfbench:{seed}:{n}")
        points = [f"x{i}" for i in range(n)]
        row = []
        for k in range(DIST_PAIRS):
            dist = random_metric(rng, n)
            space = {"points": points, "dist": [[f"{v}/{DIST_SCALE}" for v in r] for r in dist]}
            item = {"points": points, "dist": dist}
            for key in ("mu", "nu"):
                weights = random_weights(rng, n)
                path = directory / f"{key}-{n}-{k}.json"
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"space": space,
                               "weights": {p: str(w) for p, w in zip(points, weights)}}, handle)
                item[key] = weights
                item[f"{key}_path"] = str(path)
            row.append(item)
        pool.append(row)
    return pool


def dist_input(pool: list[list[dict]], k: int) -> dict:
    """Request k: sizes cycle fastest, then the pair index."""
    sizes = len(pool)
    return pool[k % sizes][(k // sizes) % DIST_PAIRS]


# ---------------------------------------------------------------------------
# verification, independent of zfun


def verify_check(report, mode: str, seed: int, first_text: str | None) -> tuple[str, str | None]:
    text = report.to_json()
    if not report.passed:
        return text, "report does not pass"
    if len(report.records) != CHECK_RECORDS:
        return text, f"{len(report.records)} records, expected {CHECK_RECORDS}"
    if first_text is not None and text != first_text:
        return text, "report differs from the first pass of this run"
    if seed == PINNED_SEED:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != PINNED_SHA256[mode]:
            return text, f"report sha256 {digest} is not the pinned {PINNED_SHA256[mode]}"
    return text, None


def verify_dist(out: dict, item: dict, mode: str) -> str | None:
    """Check the emitted certificates against the generated input, exactly or within tolerance."""
    points = item["points"]
    dist = [[Fraction(v, DIST_SCALE) for v in r] for r in item["dist"]]
    mu, nu = item["mu"], item["nu"]
    n = len(points)
    if mode == "exact":
        num, tol = Fraction, 0
    else:
        num = float
        tol = FLOAT_TOLERANCE * max(1, max(max(r) for r in dist))

    def close(a, b) -> bool:
        return abs(a - b) <= tol

    if out.get("pass") is not True or out.get("mode") != mode:
        return "result does not pass"
    value = num(out["value"])
    gap = out["gap"]
    if mode == "exact" and gap != "0":
        return f"exact duality gap is {gap}, not 0"
    if not close(num(gap), 0):
        return f"duality gap {gap} exceeds the tolerance"
    potential = out["certificate"]["potential"]
    if sorted(potential) != sorted(points):
        return "potential is not defined on exactly the space's points"
    f = [num(potential[p]) for p in points]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(f[i] - f[j]) > dist[i][j] + tol:
                return f"potential is not 1-Lipschitz at ({points[i]}, {points[j]})"
    if not close(sum(fi * (a - b) for fi, a, b in zip(f, mu, nu)), value):
        return "integral of the potential does not equal the value"
    plan = out["certificate"]["plan"]
    if plan["points"] != points or len(plan["matrix"]) != n:
        return "plan is not indexed by the space's points"
    matrix = [[num(v) for v in row] for row in plan["matrix"]]
    if any(len(row) != n or min(row) < -tol for row in matrix):
        return "plan has a malformed row or a negative entry"
    for i in range(n):
        if not close(sum(matrix[i]), mu[i]) or not close(sum(r[i] for r in matrix), nu[i]):
            return f"plan marginal at {points[i]} does not match"
    cost = sum(matrix[i][j] * dist[i][j] for i in range(n) for j in range(n))
    if not close(cost, value):
        return "plan cost does not equal the value"
    return None


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload: set-up, and one operation at a time with its check."""

    def __init__(self, name: str, seed: int):
        self.kind, self.mode = WORKLOADS[name]
        self.seed = seed
        self.zfun = None
        self.pool: list[list[dict]] = []
        self.directory: Path | None = None
        self.first_text: str | None = None
        self.attempted = 0
        self.failed = 0

    def setup(self) -> float:
        """Import zfun and make the inputs; return the seconds it took."""
        self.close()
        WORK.mkdir(exist_ok=True)
        start = time.perf_counter()
        self.zfun = import_zfun()
        if self.kind == "dist":
            self.directory = Path(tempfile.mkdtemp(dir=WORK))
            self.pool = make_dist_inputs(self.seed, self.mode, self.directory)
        return time.perf_counter() - start

    def close(self) -> None:
        if self.directory is not None:
            shutil.rmtree(self.directory, ignore_errors=True)
            self.directory = None

    def run(self, k: int) -> float:
        """Perform operation k; return its wall time in seconds and verify it untimed."""
        self.attempted += 1
        try:
            if self.kind == "check":
                elapsed, error = self._check()
            else:
                elapsed, error = self._dist(k)
        except Exception:  # a crash is a failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            elapsed, error = 0.0, "operation raised"
        if error is not None:
            self.failed += 1
            print(f"{self.kind}-{self.mode} op {k}: {error}", file=sys.stderr)
        return elapsed

    def _check(self):
        z = self.zfun
        mode = z.numbers.EXACT if self.mode == "exact" else z.numbers.float_mode()
        cfg = z.suites.RunConfig(mode=mode, seed=self.seed, trials=CHECK_TRIALS)
        start = time.perf_counter()
        report = z.suites.run_suite("all", cfg)
        elapsed = time.perf_counter() - start
        text, error = verify_check(report, self.mode, self.seed, self.first_text)
        if self.first_text is None and error is None:
            self.first_text = text
        return elapsed, error

    def _dist(self, k: int):
        item = dist_input(self.pool, k)
        out_path = self.directory / "out.json"
        argv = ["dist", item["mu_path"], item["nu_path"], "-o", str(out_path)]
        if self.mode == "float":
            argv += ["--mode", "float"]
        with open(os.devnull, "w") as sink, contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            code = self.zfun.cli.main(argv)
            elapsed = time.perf_counter() - start
        if code != 0:
            return elapsed, f"zfun dist exited {code}"
        with open(out_path, encoding="utf-8") as handle:
            return elapsed, verify_dist(json.load(handle), item, self.mode)

    def unit_size(self) -> int:
        """Operations in one traced unit: one check pass, or a few dist cycles."""
        return 1 if self.kind == "check" else TRACE_DIST_CYCLES * len(self.pool)


def percentile(samples: list[float], p: int) -> float:
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def measure(workload: Workload, seconds: float) -> dict:
    latencies = []
    deadline = time.perf_counter() + seconds
    while not latencies or time.perf_counter() < deadline:
        latencies.append(workload.run(len(latencies)))
    ms = [t * 1000 for t in latencies]
    return {
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def measure_traced(workload: Workload, seconds: float) -> tuple[dict, list[str]]:
    """Alternate untraced and traced units of identical work; at least two traced."""
    tracer = Tracer()
    untraced, traced, self_times = [], [], []
    counts = None
    problems: list[str] = []
    ops = range(workload.unit_size())
    deadline = time.perf_counter() + seconds

    def unit() -> float:  # timed operations only, as in an untraced run
        return sum(workload.run(k) for k in ops)

    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(unit())
        tracer.reset()
        tracer.install()
        try:
            wall = unit()
        finally:
            broken = tracer.uninstall()
        if broken:
            problems.append(f"not restored after tracing: {broken}")
        traced.append(wall)
        unit_counts, unit_self, remainder = tracer.summary(wall)
        if abs(sum(unit_self.values()) + remainder - wall) > 1e-6 * wall or remainder < 0:
            problems.append(f"self times {sum(unit_self.values())} + remainder "
                            f"{remainder} do not add up to the traced wall {wall}")
        if counts is None:
            counts = unit_counts
        elif unit_counts != counts:
            changed = sorted(k for k in counts if counts[k] != unit_counts[k])
            problems.append(f"counts differ between traced units: {changed}")
        self_times.append(unit_self)
    metrics = {name: (value, "count") for name, value in counts.items()}
    for name in NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(s[name] for s in self_times), "s")
    metrics["trace_overhead_ratio"] = (
        statistics.median(traced) / statistics.median(untraced), "ratio")
    return metrics, problems


# ---------------------------------------------------------------------------


def run_info(args) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(), "commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no zfun package at {PACKAGE}", file=sys.stderr)
        return 2

    workload = Workload(args.workload, args.seed)
    problems: list[str] = []
    try:
        setups = [workload.setup() for _ in range(1 if args.trace else SETUP_REPEATS)]
        if args.trace:
            metrics, problems = measure_traced(workload, args.seconds)
        else:
            metrics = measure(workload, args.seconds)
            metrics["setup_s"] = (statistics.median(setups), "s")
    finally:
        workload.close()
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in problems:
        print(f"trace: {problem}", file=sys.stderr)
    info = run_info(args)
    info.update(setups=len(setups), operations=workload.attempted,
                failed_ratio=workload.failed / workload.attempted)
    print(json.dumps({"run_info": info}))
    correct = workload.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
