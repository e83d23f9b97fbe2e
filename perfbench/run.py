"""quickwit_ray benchmark: HTTP search, ingest beside search, Ray build.

    python3 perfbench/run.py --workload search_zipf --seed 1 --seconds 10 \
                             --trace 0

Run from the root of a source tree. Inputs are generated from `--seed`;
the program is used from `quickwit_ray/` in that tree. The run measures
for `--seconds`, checks every answer, prints a table of its metrics and,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
the program's layer functions are wrapped and the metrics are the
per-layer ones. Every run also writes a full record (environment, sample
counts, tail percentiles, workload detail, and the time of a fixed
Python loop before and after the workload) to
`.perfbench_work/results/`; `perfbench/compare.py` compares two sets of
records. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

# (name, unit): the end-to-end metrics, the same on every workload
END_TO_END = [
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("side_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("index_bytes_per_doc", "B"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def source_digest() -> str:
    """sha1 over the program's Python sources, for trees without git."""
    h = hashlib.sha1()
    pkg = os.path.join(ROOT, "quickwit_ray")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                p = os.path.join(dirpath, f)
                h.update(os.path.relpath(p, pkg).encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(cpu: int) -> dict:
    import platform

    import pyarrow
    import ray

    import workloads

    return {"nproc": workloads.nproc(), "cpu": cpu,
            "python": platform.python_version(),
            "ray": ray.__version__, "pyarrow": pyarrow.__version__,
            "git_commit": git_commit(), "source_sha1": source_digest()}


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: the host's CPU speed at the
    time of a run, so that compare.py can tell host drift from a change
    in the program."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i % 7
        times.append((time.perf_counter() - t0) * 1000.0)
    return statistics.median(times)


def print_table(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} "
          f"nproc={record['env']['nproc']}")
    print(f"  ops attempted={record['attempted']} failed={record['failed']}"
          f" error_rate={record['error_rate']:.4g}"
          f" calibration_ms={record['calibration_ms']:.2f}"
          f" steal_frac={record['steal_frac']:.4f}")
    for e in record["errors"][:5]:
        print(f"  error: {e}")
    for name, v in record["e2e"].items():
        print(f"  {name:<34} {v:>14.4f} {dict(END_TO_END)[name]}")
    for k, v in record["detail"].items():
        if isinstance(v, dict) and "percentile" in v:
            print(f"  {k:<34} {v['value']:>14.4f} ms  (p{v['percentile']:g}"
                  f" of {v['samples']} samples, {v['beyond']} beyond)")
        elif isinstance(v, (int, float)):
            print(f"  {k:<34} {v:>14.4f}")
    import layers

    for name, v in record["layers"].items():
        print(f"  {name:<34} {v:>14.4f} {layers.UNITS[name]}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "quickwit_ray", "__init__.py")):
        print(f"perfbench: no quickwit_ray package under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import layers
    import steal
    import workloads

    # one CPU for the benchmark and everything it starts: the steal
    # counted on it is then the time their work was held up (steal.py)
    cpu = steal.pin()

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from "
                f"{sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(WORK, "runs", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = workloads.Run(seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), work=work)
    calibration = [calibrate()]
    m0 = steal.mark()
    try:
        res = workloads.WORKLOADS[args.workload](run)
        wall_ms, unstolen_ms = steal.elapsed_ms(m0, steal.mark())
        calibration.append(calibrate())
    finally:
        run.stop_servers()
        for d in os.listdir(work):
            if d not in ("logs", "trace"):
                shutil.rmtree(os.path.join(work, d), ignore_errors=True)

    if not res.e2e or any(v is None for v in res.e2e.values()):
        print("perfbench: the run produced no samples", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(cpu),
        "correct": res.failed == 0, "attempted": res.attempted,
        "failed": res.failed,
        "calibration_ms": statistics.mean(calibration),
        "calibration_samples_ms": calibration,
        # share of the workload's wall time the hypervisor gave to other
        # guests while the benchmark's CPU had work ready
        "steal_frac": (wall_ms - unstolen_ms) / wall_ms,
        "error_rate": res.failed / res.attempted if res.attempted else 1.0,
        "errors": res.errors, "e2e": res.e2e, "detail": res.detail,
        "layers": res.layers}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{tag}.json"), "w") as f:
        json.dump(record, f, indent=1, default=str)
    print_table(record)

    if args.trace:
        metrics = {n: {"value": res.layers[n], "unit": u}
                   for n, u in layers.PER_LAYER}
    else:
        metrics = {n: {"value": res.e2e[n], "unit": u}
                   for n, u in END_TO_END}
    print(json.dumps({"correct": record["correct"],
                      "attempted": res.attempted, "failed": res.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
