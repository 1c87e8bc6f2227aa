"""Benchmark of the cubestable CLI: three workloads, untraced or traced.

    python3 perfbench/run.py --workload verify|census5|session --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N     # all three, a table

Each workload drives ``cubestable.cli.main(argv)`` in this process as a
closed loop with one client: a request is sent only after the previous one
returned.  Stdout and stderr are captured, and every request's exit code
and stdout digest are checked against ``data/pins.json``.  A round is one
pass over the workload's requests; the first round always runs, and the
next only if it would still end within ``--seconds``.  BENCHMARK.json
names verify and session; census5 runs by hand only.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then one round with the tracer of ``tracer.py`` installed,
checks that both rounds printed the same bytes, writes the spans to
``.perfbench_out/`` and prints the per-layer metrics.  The last line of
stdout is always one JSON object {correct, attempted, failed, metrics}.
See README.md in this directory for the metrics and how to read them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import ROOT, PINS_FILE, Request

SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
THREADS_ENV = "CUBESTABLE_THREADS"

#: Set-up runs in fresh processes besides the measuring one, at least;
#: one runs before each round, so they sample the whole run.  setup_s is
#: the median over all of them.
SETUP_PROBES = 8

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p95_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_N = ("n_le6", "n_ge7")
PER_LAYER = {
    "core.evaluate_sparse.calls": "count",
    "core.evaluate_sparse.self_s": "s",
    **{f"core.wht.{b}.{s}": u for b in _N
       for s, u in (("calls", "count"), ("self_s", "s"), ("butterfly_ops", "computed_ops"))},
    **{f"core.inverse_wht.{b}.{s}": u for b in _N
       for s, u in (("calls", "count"), ("self_s", "s"))},
    **{f"core.TruthTable.values.{b}.self_s": "s" for b in _N},
    "kfunctions.enumerate_spectral.self_s": "s",
    "kfunctions.enumerate_spectral.leaves": "count",
    "kfunctions.enumerate_spectral.hits": "count",
    "kfunctions.enumerate_spectral.hit_ratio": "ratio",
    **{f"kfunctions.enumerate_spectral.n5k{k}.{s}": "count"
       for k in range(1, 6) for s in ("leaves", "hits")},
    "kfunctions.uniform_flip_count.calls": "count",
    "kfunctions.uniform_flip_count.self_s": "s",
    "kfunctions.enumerate_truth_tables.self_s": "s",
    "kfunctions.enumerate_truth_tables.tables_scanned": "computed_tables",
    **{f"group.canonical_form.{b}.{s}": u for b in ("n_le4", "n_ge5")
       for s, u in (("calls", "count"), ("self_s", "s"))},
    "group.apply.self_s": "s",
    "scenery.exact_scenery.calls": "count",
    "scenery.exact_scenery.self_s": "s",
    "sos.sos_count.self_s": "s",
    "sos.check_bounds.self_s": "s",
    "constructions.lift_pair.self_s": "s",
    "serialize.function_to_json.self_s": "s",
    "serialize.function_from_json.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    **{f"verify.c{c:02d}.s": "s" for c in range(1, 12)},
    "verify.pass.threads1.s": "s",
    "verify.pass.threads8.s": "s",
    "util.parallel_map.calls": "count",
    "util.parallel_map.self_s": "s",
    "util.parallel_map.workers": "count",
    "trace_overhead_ratio": "ratio",
}


# -- the program under test ---------------------------------------------------


def load_cli():
    """Import cubestable.cli from this checkout's src/, and nowhere else."""
    if not (SRC / "cubestable" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, str(SRC))
    import cubestable.cli

    where = Path(cubestable.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"perfbench: imported cubestable from {where}, not {SRC}")
    return cubestable.cli


def execute(cli, argv: list[str]) -> tuple[int | str, str, float]:
    """(exit code, stdout, seconds) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed request, not a crashed run
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), seconds


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """One workload's inputs, materialised in a private work directory."""

    def __init__(self, workload: str):
        self.workload = workload
        self.work = WORK_ROOT / f"{workload}-{os.getpid()}"

    def setup(self, seed: int) -> float:
        """Import, generate inputs, warm up; returns the seconds taken."""
        t0 = time.perf_counter()
        self.cli = load_cli()
        self.pins = json.loads(PINS_FILE.read_text(encoding="utf-8"))
        self.requests, warm = workloads.build(self.workload, seed)
        self.work.mkdir(parents=True, exist_ok=True)
        self.argvs = [r.argv(self.work) for r in self.requests]
        self.warm_count = len(warm)
        self.warm_failures = [
            f"warm-up {r.cls}" for r in warm
            if not self.check(r, *execute(self.cli, r.argv(self.work))[:2])
        ]
        return time.perf_counter() - t0

    def check(self, req: Request, code, out: str) -> bool:
        return self.pins.get(req.key()) == [code, digest(out)]

    def round(self, tracer=None) -> dict:
        """One closed-loop pass over the requests, checks included."""
        latencies, outputs, failures = [], [], []
        cli = self.cli
        t0 = time.perf_counter()
        for i, (req, argv) in enumerate(zip(self.requests, self.argvs)):
            if tracer is not None:
                tracer.request = i
            code, out, seconds = execute(cli, argv)
            latencies.append(seconds)
            outputs.append((code, out))
            if not self.check(req, code, out):
                failures.append(f"request {i} ({req.cls}): exit {code!r}")
        facts, census = {}, None
        if self.workload == "census5":
            facts, census = workloads.census_facts(self.requests, outputs)
            failures += [f"census fact {name} is false"
                         for name, ok in facts.items() if not ok]
        wall = time.perf_counter() - t0
        return {"wall": wall, "latencies": latencies, "outputs": outputs,
                "peak_rss_mb": peak_rss_mb(),
                "failures": failures, "attempted": len(latencies) + len(facts),
                "census": census}

    def close(self) -> None:
        for path in self.work.glob("*"):
            path.unlink()
        self.work.rmdir()


# -- results -----------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def rank(n: int, q: int) -> int:
    """0-based index of the nearest-rank q-th percentile of n sorted values."""
    return max(0, -(-n * q // 100) - 1)


def provenance(workload: str, seed: int, trace: int) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    numpy = sys.modules.get("numpy")
    h = hashlib.sha256()
    for path in sorted((SRC / "cubestable").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "trace": bool(trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": getattr(numpy, "__version__", None),
        "git_commit": git_commit(),
        "src_sha256": h.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(stats: dict, counts: dict, overhead: float) -> dict[str, float]:
    flat: dict[str, float] = dict(counts)
    for key, (calls, total, own) in stats.items():
        flat[key + ".calls"] = calls
        flat[key + ".s"] = total
        flat[key + ".self_s"] = own
    spectral = "kfunctions.enumerate_spectral.n"
    for stat in ("self_s", "leaves", "hits"):
        flat["kfunctions.enumerate_spectral." + stat] = sum(
            v for k, v in flat.items()
            if k.startswith(spectral) and k.endswith("." + stat))
    leaves = flat["kfunctions.enumerate_spectral.leaves"]
    flat["kfunctions.enumerate_spectral.hit_ratio"] = (
        flat["kfunctions.enumerate_spectral.hits"] / leaves if leaves else 0.0)
    # The table scan runs in the private helper _scan_range; its self time
    # is the function's own work, so it is charged to the public name.
    flat["kfunctions.enumerate_truth_tables.self_s"] = (
        flat.get("kfunctions.enumerate_truth_tables.self_s", 0.0)
        + flat.get("kfunctions.scan_range.self_s", 0.0))
    flat["trace_overhead_ratio"] = overhead
    return {name: flat.get(name, 0) for name in PER_LAYER}


def emit(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


# -- modes -------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of a fresh process, run as a child of this one."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def timed_rounds(runner: Runner, args) -> tuple[list[dict], list[float]]:
    """(rounds, set-up samples): rounds while the next one, taken to last
    as long as the mean round so far, still ends within --seconds, and the
    first round always; a set-up probe before each round."""
    rounds, setups = [], []
    start = time.perf_counter()
    while True:
        setups.append(setup_probe(args.workload, args.seed))
        rounds.append(runner.round())
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > args.seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(args.workload, args.seed))
    return rounds, setups


def run_untraced(runner: Runner, args) -> None:
    setup = runner.setup(args.seed)
    rounds, setups = timed_rounds(runner, args)
    setups.append(setup)
    # Every round sends the same requests, so each request has one latency
    # per round; its best one is its sample, as timeit takes the best of
    # its repeats.  The host's speed drifts by tens of percent over seconds
    # to minutes, and only ever downwards from its quiet speed, so a best
    # taken request by request reaches that speed far more often than a
    # best taken round by round.  wall_s is a round with every request at
    # its best latency, plus the round's median time outside the requests
    # (the checks).
    best = [min(xs) for xs in zip(*(r["latencies"] for r in rounds))]
    checks = statistics.median(r["wall"] - sum(r["latencies"]) for r in rounds)
    wall = sum(best) + checks
    ranked = sorted(zip(best, (req.cls for req in runner.requests)))
    by_class: dict[str, list[float]] = {}
    for x, cls in ranked:
        by_class.setdefault(cls, []).append(x)
    failures = runner.warm_failures + [f for r in rounds for f in r["failures"]]
    attempted = runner.warm_count + sum(r["attempted"] for r in rounds)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "req_p50_ms": ranked[rank(len(ranked), 50)][0] * 1e3,
        "req_p95_ms": ranked[rank(len(ranked), 95)][0] * 1e3,
        "req_per_s": len(best) / wall,
        # A user's CLI call runs in a process of its own; later rounds
        # only add the allocator's leftovers from the rounds before.
        "peak_rss_mb": rounds[0]["peak_rss_mb"],
    }
    report = {
        "provenance": provenance(args.workload, args.seed, 0),
        "rounds": len(rounds),
        "round_walls_s": [r["wall"] for r in rounds],
        "round_peak_rss_mb": [r["peak_rss_mb"] for r in rounds],
        "check_s": checks,
        "setup_samples_s": setups,
        "latency_samples": len(best),
        "p50_class": ranked[rank(len(ranked), 50)][1],
        "p95_class": ranked[rank(len(ranked), 95)][1],
        "classes_ms": {cls: {"count": len(xs), "median": statistics.median(xs) * 1e3,
                             "max": max(xs) * 1e3}
                       for cls, xs in sorted(by_class.items())},
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "census5": rounds[0]["census"],
    }
    print(json.dumps({"report": report}))
    for name, value in metrics.items():
        print(f"{args.workload:8s} {name:12s} {value:14.6f} {END_TO_END[name]}")
    emit(not failures, attempted, len(failures), metrics, END_TO_END)


def run_traced(runner: Runner, args) -> None:
    from tracer import Tracer

    runner.setup(args.seed)
    plain = runner.round()
    tracer = Tracer()
    try:
        tracer.install()
        traced = runner.round(tracer)
    finally:
        tracer.uninstall()
    failures = runner.warm_failures + plain["failures"] + traced["failures"]
    identical = plain["outputs"] == traced["outputs"]
    if not identical:
        failures.append("traced stdout differs from untraced stdout")
    stats, counts = tracer.aggregate()
    overhead = traced["wall"] / plain["wall"]
    metrics = layer_metrics(stats, counts, overhead)
    attempted = runner.warm_count + plain["attempted"] + traced["attempted"] + 1
    prov = provenance(args.workload, args.seed, 1)
    OUT_ROOT.mkdir(exist_ok=True)
    out = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({
        "provenance": prov,
        "untraced_wall_s": plain["wall"],
        "traced_wall_s": traced["wall"],
        "stdout_identical": identical,
        "failures": failures,
        "bindings": tracer.bindings,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in metrics.items()},
        "aggregates": {k: {"calls": c, "total_s": t, "self_s": s}
                       for k, (c, t, s) in sorted(stats.items())},
        "counts": dict(sorted(counts.items())),
        "spans": tracer.spans,
    }, indent=1), encoding="utf-8")
    print(json.dumps({"report": {
        "provenance": prov,
        "trace_file": str(out.relative_to(ROOT)),
        "stdout_identical": identical,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
    }}))
    emit(not failures, attempted, len(failures), metrics, PER_LAYER)


def run_all(args) -> int:
    """Each workload in its own fresh process; prints every metric by name."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode or not lines:
            print(f"{workload}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:52s} {m['value']:>16.6f} {m['unit']}")
        status |= not result["correct"]
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    os.environ.pop(THREADS_ENV, None)  # also unset for every child process
    if args.workload == "all":
        return run_all(args)
    if not PINS_FILE.is_file():
        raise SystemExit(f"perfbench: missing {PINS_FILE}")
    runner = Runner(args.workload)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": runner.setup(args.seed)}))
        elif args.trace:
            run_traced(runner, args)
        else:
            run_untraced(runner, args)
    finally:
        if runner.work.exists():
            runner.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
