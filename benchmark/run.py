#!/usr/bin/env python3
"""Build and run the repository benchmark (see benchmark/README.md).

  python3 benchmark/run.py                  every workload once, seed 1
  python3 benchmark/run.py --runs 5 --out D every workload with seeds 1..5,
                                            results saved under D
  python3 benchmark/run.py --trace          also the traced runs and the
                                            per-layer table
  python3 benchmark/run.py --smoke          1 s per workload (self-check)
  python3 benchmark/run.py --workload W --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is
                                            the result as one JSON object
  python3 benchmark/run.py compare A/ B/    A (parent) against B (change)

The benchmark is built from source into .bench_build/ with the
repository defaults (RelWithDebInfo, TQ_TELEMETRY=ON). Runs that find
the host noisy (tqbench exit code 3) are discarded and rerun, at most
twice; discarded runs are counted and printed.
"""

import argparse
import fcntl
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "tqbench"
GOLDEN = ROOT / "benchmark" / "golden" / "sim_grid.digest"
MIN_CPUS = 4
NOISY_EXIT = 3
MAX_RERUNS = 2
RUN_DEADLINE_S = 175  # a single run ends within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (BUILD / "CMakeCache.txt").exists():
            cmd = ["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD / "CMakeFiles", ignore_errors=True)
                (BUILD / "CMakeCache.txt").unlink(missing_ok=True)
                return False
        jobs = str(len(os.sched_getaffinity(0)))
        return subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                              stdout=sys.stderr).returncode == 0


def run_tqbench(workload, seed, seconds, trace, deadline=None):
    """One tqbench process per attempt (until the monotonic @deadline,
    if given); returns the result with its discarded-run count."""
    discarded = 0
    for attempt in range(MAX_RERUNS + 1):
        cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace)),
               "--out", str(OUT), "--golden", str(GOLDEN)]
        if attempt == MAX_RERUNS:
            cmd.append("--accept-noisy")
        timeout = (None if deadline is None
                   else max(10.0, deadline - time.monotonic()))
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == NOISY_EXIT:
            discarded += 1
            log(f"# {workload} seed {seed}: host noisy "
                f"({lines[-1] if lines else ''}), run discarded")
            continue
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"tqbench failed with code {proc.returncode}")
        result = json.loads(lines[-1])
        result["discarded"] = discarded
        return result
    raise RuntimeError("unreachable")


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e5 else f"{v:.0f}"


def print_run(r, names):
    status = "ok" if r["correct"] else "FAILED: " + "; ".join(r["errors"])
    noise = r["noise"]
    print(f"== {r['workload']} seed {r['seed']} trace {r['trace']}: "
          f"{r['attempted']} attempted, {r['failed']} failed "
          f"(failed_frac {r['failed'] / max(r['attempted'], 1):.2g}), "
          f"{status}; host cpu_share {noise['cpu_share']:.3f}, "
          f"calibration error {noise['calib_err'] * 100:.4f}%"
          f"{' NOISY' if noise['noisy'] else ''}, "
          f"{r['discarded']} discarded run(s)")
    for name in names:
        m = r["metrics"][name]
        print(f"  {name:42s} {fmt(m['value']):>12s} {m['unit']:6s} "
              f"(n={m['samples']})")
    for name, m in r["diag"].items():
        print(f"  ~ {name:40s} {fmt(m['value']):>12s} {m['unit']:6s} "
              f"(n={m['samples']}, not gated)")


def result_line(r, metrics):
    """The single-run result: exactly the metrics of this mode."""
    missing = [m["name"] for m in metrics if m["name"] not in r["metrics"]]
    if missing:
        raise RuntimeError(f"tqbench did not report {missing}")
    return json.dumps({
        "correct": bool(r["correct"]),
        "attempted": int(r["attempted"]),
        "failed": int(r["failed"]),
        "metrics": {m["name"]: {"value": r["metrics"][m["name"]]["value"],
                                "unit": m["unit"]} for m in metrics},
    })


def prepare():
    cpus = len(os.sched_getaffinity(0))
    if cpus < MIN_CPUS:
        log(f"run.py: needs {MIN_CPUS} CPUs (client, dispatcher, two "
            f"workers); this host has {cpus}")
        sys.exit(2)
    if not build():
        log("run.py: build failed")
        sys.exit(1)
    OUT.mkdir(exist_ok=True)


def single(args, spec):
    """One run; the result JSON is the last stdout line."""
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        log(f"run.py: unknown workload {args.workload}")
        sys.exit(2)
    start = time.monotonic()
    prepare()
    # The first run in a checkout also builds: give it its own window.
    deadline = max(start + RUN_DEADLINE_S, time.monotonic() + 150)
    trace = args.trace == "1"
    seconds = args.seconds or spec["run_seconds"]
    r = run_tqbench(args.workload, args.seed, seconds, trace, deadline)
    metrics = spec["per_layer"] if trace else spec["end_to_end"]
    print_run(r, [m["name"] for m in metrics])
    print(result_line(r, metrics), flush=True)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def suite(args, spec):
    """Every workload, several seeds; summary and per-layer tables."""
    prepare()
    seconds = 1 if args.smoke else (args.seconds or spec["run_seconds"])
    workloads = [w["name"] for w in spec["workloads"]]
    out = Path(args.out) if args.out else OUT / "latest"
    out.mkdir(parents=True, exist_ok=True)
    e2e = [m["name"] for m in spec["end_to_end"]]
    results = {w: [] for w in workloads}
    traced = {}
    discarded = 0
    ok = True
    for seed in range(args.seed, args.seed + args.runs):
        for w in workloads:
            r = run_tqbench(w, seed, seconds, False)
            print_run(r, e2e)
            discarded += r["discarded"]
            ok &= r["correct"]
            results[w].append(r)
            with open(out / f"{w}.jsonl", "a") as f:
                f.write(json.dumps(r) + "\n")
    if args.trace:
        for w in workloads:
            r = run_tqbench(w, args.seed, seconds, True)
            discarded += r["discarded"]
            ok &= r["correct"]
            traced[w] = r
            with open(out / f"{w}.trace.jsonl", "a") as f:
                f.write(json.dumps(r) + "\n")

    print(f"\n== end-to-end: median [q1, q3] over {args.runs} run(s) of "
          f"{seconds} s; {discarded} noisy run(s) discarded; results in {out}")
    print(f"{'metric':18s} {'unit':6s} " +
          " ".join(f"{w:>28s}" for w in workloads))
    for m in spec["end_to_end"]:
        cells = []
        for w in workloads:
            vals = [r["metrics"][m["name"]]["value"] for r in results[w]]
            q1, q2, q3 = quartiles(vals)
            n = results[w][-1]["metrics"][m["name"]]["samples"]
            cells.append(f"{fmt(q2)} [{fmt(q1)}, {fmt(q3)}] n={n}")
        print(f"{m['name']:18s} {m['unit']:6s} " +
              " ".join(f"{c:>28s}" for c in cells))
    if traced:
        print("\n== per-layer (traced runs, seed "
              f"{args.seed}; Chrome traces in {OUT})")
        print(f"{'metric':40s} {'unit':6s} " +
              " ".join(f"{w:>16s}" for w in traced))
        for m in spec["per_layer"]:
            cells = [fmt(traced[w]["metrics"][m["name"]]["value"])
                     for w in traced]
            print(f"{m['name']:40s} {m['unit']:6s} " +
                  " ".join(f"{c:>16s}" for c in cells))
    sys.exit(0 if ok else 1)


def load_results(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*.jsonl")):
        if path.name.endswith(".trace.jsonl"):
            continue
        with open(path) as f:
            for line in f:
                r = json.loads(line)
                runs.setdefault(r["workload"], {})[r["seed"]] = r
    return runs


def compare(a_dir, b_dir, spec):
    """choosing-metrics sections 6-8: A is the parent, B the change.

    Runs pair up by seed (make them alternately, A then B). A workload
    fails when B's runs fail more operations or more output checks than
    A's. A metric is regressed when B's median is worse than A's by more
    than the bound, or when A's own quartile spread is wider than the
    bound and every B run is worse than every A run; improved when B
    wins at least 9/10 of the pairs and the medians differ by more than
    A's quartile spread; unresolved when A's spread is wider than the
    bound and the runs do not separate; unchanged otherwise.

    Exits 1 when a workload failed or a metric regressed, else 3 when a
    metric is unresolved, else 0.
    """
    a_runs, b_runs = load_results(a_dir), load_results(b_dir)
    counts = {"failed": 0, "regressed": 0, "unresolved": 0}
    print(f"{'workload':16s} {'metric':16s} {'A median [q1, q3]':>30s} "
          f"{'B median [q1, q3]':>30s} {'wins':>6s} {'bound':>6s}  verdict")
    for w in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(a_runs.get(w, {})) & set(b_runs.get(w, {})))
        if not seeds:
            continue
        checks = {}
        for side, runs in (("A", a_runs[w]), ("B", b_runs[w])):
            checks[side] = (sum(runs[s]["failed"] for s in seeds),
                            sum(runs[s]["attempted"] for s in seeds),
                            sum(not runs[s]["correct"] for s in seeds))
        (af, aa, ai), (bf, ba, bi) = checks["A"], checks["B"]
        more_failures = bf > af or bi > ai
        counts["failed"] += more_failures
        print(f"{w:16s} {'failed':16s} {f'{af}/{aa}, {ai} run(s) wrong':>30s} "
              f"{f'{bf}/{ba}, {bi} run(s) wrong':>30s} {'':6s} {'':6s}  "
              f"{'FAILED: more failures in B' if more_failures else 'ok'}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            lower = m["better"] == "lower"
            a = [a_runs[w][s]["metrics"][name]["value"] for s in seeds]
            b = [b_runs[w][s]["metrics"][name]["value"] for s in seeds]
            aq, bq = quartiles(a), quartiles(b)

            def better(x, y):
                return x < y if lower else x > y

            wins = sum(better(y, x) for x, y in zip(a, b))
            win_frac = wins / len(seeds)
            worse = (bq[1] - aq[1]) / aq[1] * (1 if lower else -1)
            spread = aq[2] - aq[0]
            wide = spread / aq[1] > bound
            every_b_better = all(better(y, x) for x in a for y in b)
            every_b_worse = all(better(x, y) for x in a for y in b)
            if worse > bound or (wide and every_b_worse):
                verdict = "regressed"
            elif (win_frac >= 0.9 and better(bq[1], aq[1])
                    and abs(bq[1] - aq[1]) > spread):
                verdict = "improved"
            elif wide and not every_b_better:
                verdict = "unresolved"
            else:
                verdict = "unchanged"
            counts[verdict] = counts.get(verdict, 0) + 1
            print(f"{w:16s} {name:16s} "
                  f"{fmt(aq[1]) + ' [' + fmt(aq[0]) + ', ' + fmt(aq[2]) + ']':>30s} "
                  f"{fmt(bq[1]) + ' [' + fmt(bq[0]) + ', ' + fmt(bq[2]) + ']':>30s} "
                  f"{win_frac:6.2f} {bound:6.2f}  "
                  f"{verdict.upper() if verdict != 'unchanged' else verdict} "
                  f"({len(seeds)} pairs, {m['unit']})")
    print(f"\n{counts['failed']} workload(s) with more failures, "
          f"{counts['regressed']} regressed, {counts['unresolved']} "
          f"unresolved, {counts.get('improved', 0)} improved")
    if counts["failed"] or counts["regressed"]:
        sys.exit(1)
    sys.exit(3 if counts["unresolved"] else 0)


def main():
    spec = load_spec()
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="results of the parent (run.py --out)")
        p.add_argument("b", help="results of the change")
        args = p.parse_args(sys.argv[2:])
        compare(args.a, args.b, spec)
        return
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", help="run only this workload, once")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   help="0|1 (single run); bare --trace in suite mode")
    p.add_argument("--runs", type=int, default=1, help="suite: seeds each")
    p.add_argument("--smoke", action="store_true", help="suite: 1 s each")
    p.add_argument("--out", help="suite: directory for result files")
    args = p.parse_args()
    try:
        if args.workload:
            single(args, spec)
        else:
            args.trace = args.trace == "1"
            suite(args, spec)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        log(f"run.py: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
