"""phenocausal benchmark: two closed-loop workloads, timed from outside.

    python3 perfbench/run.py --workload lingam --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40
    python3 perfbench/run.py --summarize OUT.json perfbench/results/*.json
    python3 perfbench/run.py --compare BASE.json NEW.json

With ``--trace 0`` one untraced pass over the workload's task list gives
the end-to-end metrics. With ``--trace 1`` the same list runs untraced,
then again with every layer wrapped (``tracing.py``); that pass gives the
per-layer metrics and the tracing overhead. The last line of standard
output is one JSON object; the lines before it name every metric with its
unit and sample count. The exit code is nonzero when a task fails, a
correctness floor, a determinism check, a bypass prediction or the
self-time accounting fails.
"""

import time

T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

# One BLAS thread: steadier figures on a small shared machine, and within
# the nproc limit whatever the machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("lingam", "discrete")
SETUP_PROBES = 2      # fresh processes that repeat set-up, besides this one
ROTATE_SECONDS = 0.5
# least share of statistical tasks (LiNGAM, shift localization) matching
# ground truth; every exact task must match
STATISTICAL_FLOOR = 0.8

# stamp fields that may differ between results that are compared
STAMP_IDENTITY = ("git_sha", "code_sha256")


# ---------------------------------------------------------------------------
# Environment stamp
# ---------------------------------------------------------------------------


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _code_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp() -> dict:
    import numpy
    import scipy

    return {"git_sha": _git_sha(), "code_sha256": _code_sha256(),
            "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def run_pass(tasks, tracer=None) -> dict:
    """Run every task once, in order; time each and score it.

    Between tasks the caller moves to the next allowed CPU every
    ``ROTATE_SECONDS``. On a shared host each core is slowed by other
    tenants at its own times; alternating averages that out instead of
    leaving a whole run on one slow core.
    """
    cpus = sorted(os.sched_getaffinity(0))
    next_cpu = itertools.cycle(cpus)
    kinds, latencies, outcomes, oks = [], [], [], []
    failed = 0
    start = switched = time.perf_counter()
    for i, task in enumerate(tasks):
        if time.perf_counter() - switched >= ROTATE_SECONDS:
            os.sched_setaffinity(0, {next(next_cpu)})
            switched = time.perf_counter()
        if tracer is not None:
            tracer.task = i
        t = time.perf_counter()
        try:
            result = task.run()
            latency = time.perf_counter() - t
            outcome, ok = task.score(result)
        except Exception as exc:  # a failed task is counted, not fatal
            latency = time.perf_counter() - t
            traceback.print_exc()
            outcome, ok = f"error:{type(exc).__name__}", False
            failed += 1
        kinds.append(task.kind)
        latencies.append(latency)
        outcomes.append(f"{task.kind}\t{outcome}")
        oks.append(ok)
    wall = time.perf_counter() - start
    os.sched_setaffinity(0, cpus)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    by_kind = {}
    for kind in sorted(set(kinds)):
        lat = [x for k, x in zip(kinds, latencies) if k == kind]
        by_kind[kind] = {"n": len(lat), "median_ms": 1e3 * statistics.median(lat),
                         "mean_ms": 1e3 * statistics.mean(lat)}
    return {"wall": wall, "latencies": latencies, "oks": oks,
            "failed": failed, "digest": digest, "kinds": by_kind}


def setup_probes(args) -> list[float]:
    """Set-up time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def e2e_metrics(p: dict, setup: list[float]) -> dict:
    n = len(p["latencies"])
    return {
        "wall_s": p["wall"],
        "task_p50_ms": 1e3 * statistics.median(p["latencies"]),
        "task_p90_ms": 1e3 * statistics.quantiles(p["latencies"], n=10)[8],
        "correct_frac": sum(p["oks"]) / n,
        # add-one smoothed: never 0, and one failure doubles it
        "error_frac": (p["failed"] + 1) / (n + 1),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def determinism_errors(record: dict) -> list[str]:
    """Compare with saved runs of the same code, workload, seed and length."""
    errors = []
    for path in RESULTS.glob(f"{record['workload']}-seed{record['seed']}-"
                             f"{record['seconds']}s-trace*.json"):
        other = json.loads(path.read_text())
        if (other["stamp"]["code_sha256"] == record["stamp"]["code_sha256"]
                and other["digest"] != record["digest"]):
            errors.append(f"outcome digest differs from {path.name}")
    return errors


def correctness_errors(tasks, oks) -> list[str]:
    errors = [f"{t.kind} task {i} does not match ground truth"
              for i, (t, ok) in enumerate(zip(tasks, oks))
              if not (ok or t.statistical)]
    stat = [ok for t, ok in zip(tasks, oks) if t.statistical]
    if stat and sum(stat) < STATISTICAL_FLOOR * len(stat):
        errors.append(f"{sum(stat)}/{len(stat)} statistical tasks correct, "
                      f"floor {STATISTICAL_FLOOR}")
    return errors


def run_workload(args) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tasks = workloads.build(args.workload, args.seed, args.seconds, work)
        setup = [time.perf_counter() - T0]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        if not args.trace:
            setup += setup_probes(args)
        plain = run_pass(tasks)
        errors = []
        if plain["failed"]:
            errors.append(f"{plain['failed']} tasks failed")
        errors += correctness_errors(tasks, plain["oks"])
        metrics = e2e_metrics(plain, setup)
        declared = spec["end_to_end"]
        if args.trace:
            import tracing

            tracer = tracing.install()
            traced = run_pass(tasks, tracer)
            if traced["digest"] != plain["digest"]:
                errors.append("traced pass outcomes differ from the untraced pass")
            metrics, accounting = tracing.layer_metrics(tracer, traced["wall"],
                                                        plain["wall"])
            errors += accounting + tracing.bypass_errors(args.workload, metrics)
            declared = spec["per_layer"]
            RESULTS.mkdir(exist_ok=True)
            tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in declared}
    if list(units) != list(metrics):
        errors.append("metrics differ from those declared in BENCHMARK.json")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "stamp": environment_stamp(), "digest": plain["digest"],
              "tasks": len(tasks), "kinds": plain["kinds"],
              "metrics": {k: {"value": v, "unit": units.get(k)} for k, v in metrics.items()}}
    RESULTS.mkdir(exist_ok=True)
    errors += determinism_errors(record)
    (RESULTS / f"{args.workload}-seed{args.seed}-{args.seconds}s-"
               f"trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  {len(tasks)} tasks  "
          f"outcome digest {plain['digest'][:16]}")
    for kind, k in plain["kinds"].items():
        print(f"  kind {kind:30s} n={k['n']:5d}  median {k['median_ms']:10.2f} ms")
    samples = {"wall_s": 1, "task_p50_ms": len(tasks), "task_p90_ms": len(tasks),
               "correct_frac": len(tasks), "error_frac": len(tasks),
               "setup_s": len(setup), "peak_rss_mb": 1}
    for name, m in record["metrics"].items():
        n = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:52s} {m['value']:14.6g} {m['unit']}{n}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    print(json.dumps({"correct": not errors, "attempted": len(tasks),
                      "failed": plain["failed"], "metrics": record["metrics"]}))
    return 1 if errors else 0


# ---------------------------------------------------------------------------
# Every workload, summaries and comparisons
# ---------------------------------------------------------------------------


def run_all(args) -> int:
    """Each workload in its own process, one at a time, untraced then traced."""
    status, attempted, failed, metrics = 0, 0, 0, {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", str(args.seed), "--seconds",
                 str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0:
                status = 1
                print(proc.stderr[-4000:])
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                status = 1
                continue
            attempted += result["attempted"] if trace == 0 else 0
            failed += result["failed"] if trace == 0 else 0
            metrics.update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": status == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return status


def _load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _check_stamps(stamps: list[dict]) -> str | None:
    first = {k: v for k, v in stamps[0].items() if k not in STAMP_IDENTITY}
    for s in stamps[1:]:
        other = {k: v for k, v in s.items() if k not in STAMP_IDENTITY}
        if other != first:
            diff = sorted(k for k in set(first) | set(other)
                          if first.get(k) != other.get(k))
            return f"environment stamps differ in {diff}"
    return None


def summarize(out: str, paths: list[str]) -> int:
    """Median and quartiles of each metric over saved untraced results."""
    records = [_load(p) for p in paths]
    records = [r for r in records if r.get("trace") == 0]
    refusal = _check_stamps([r["stamp"] for r in records])
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    summary = {"stamp": records[0]["stamp"], "workloads": {}}
    for workload in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == workload]
        entry = {"runs": len(runs), "seeds": sorted(r["seed"] for r in runs),
                 "metrics": {}, "kinds": {}}
        for name, m in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][name] = {"value": statistics.median(values),
                                      "q1": q1, "q3": q3, "unit": m["unit"],
                                      "spread": (q3 - q1) / statistics.median(values)}
        for kind in runs[0]["kinds"]:
            entry["kinds"][kind] = {
                stat: statistics.median(r["kinds"][kind][stat] for r in runs)
                for stat in ("median_ms", "mean_ms")}
        summary["workloads"][workload] = entry
    Path(out).write_text(json.dumps(summary, indent=1) + "\n")
    for workload, entry in summary["workloads"].items():
        for name, m in entry["metrics"].items():
            print(f"{workload:10s} {name:14s} median {m['value']:12.6g} {m['unit']:3s}"
                  f"  IQR/median {m['spread']:.4f}  (n={entry['runs']})")
    return 0


def _as_workloads(obj: dict) -> dict:
    if "workloads" in obj:
        return {w: e["metrics"] for w, e in obj["workloads"].items()}
    return {obj["workload"]: obj["metrics"]}


def compare(base_path: str, new_path: str) -> int:
    """Each end-to-end metric of NEW against BASE and the declared bound."""
    base, new = _load(base_path), _load(new_path)
    refusal = _check_stamps([base["stamp"], new["stamp"]])
    if refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2
    spec = {m["name"]: m for m in _load(ROOT / "BENCHMARK.json")["end_to_end"]}
    worse = 0
    base_w, new_w = _as_workloads(base), _as_workloads(new)
    for workload in sorted(set(base_w) & set(new_w)):
        for name, m in spec.items():
            if name not in base_w[workload] or name not in new_w[workload]:
                continue
            b = base_w[workload][name]["value"]
            v = new_w[workload][name]["value"]
            change = (v - b) / b if m["better"] == "lower" else (b - v) / b
            verdict = "WORSE" if change > m["bound"] else "ok"
            worse += verdict == "WORSE"
            print(f"{workload:10s} {name:14s} {b:12.6g} -> {v:12.6g} {m['unit']:3s}"
                  f" worse by {change:+.3f} (bound {m['bound']})  {verdict}")
    return 1 if worse else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--summarize", nargs="+", metavar=("OUT", "RESULT"))
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.summarize:
        return summarize(args.summarize[0], args.summarize[1:])
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "phenocausal" / "__init__.py").is_file():
        print(f"no phenocausal sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
