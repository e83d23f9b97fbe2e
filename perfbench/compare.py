"""Compare two sets of benchmark results.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are each a directory of run records (what run.py writes to
`.perfbench_work/results/`) or one record file. For every workload x
metric the table shows both sides' median and quartiles over their runs.
A row is flagged `WORSE` or `better` when the medians differ by more
than the metric's bound in BENCHMARK.json. It is marked `unresolved`
when either side's spread (quartile distance over median) is wider than
the bound, or, for a time metric, when the two sides' median
calibration (a fixed Python loop each run times) differs by more than
the bound: the host's CPU speed changed between the sides, so a time
verdict would measure the host. Per-layer metrics have no bound and are
listed for reading only. When one side holds traced and untraced runs of
a workload, the tracing overhead (traced minus untraced median) is
printed for each end-to-end metric.
"""

from __future__ import annotations

import json
import os
import sys

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
TIME_UNITS = ("ms", "s", "1/s")   # metrics the host's CPU speed moves


def load_records(path: str) -> list[dict]:
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".json")] if os.path.isdir(path) else [path])
    out = []
    for f in files:
        with open(f) as fh:
            out.append(json.load(fh))
    return out


def series(records: list[dict], trace: int) -> dict:
    """(workload, metric) -> values, from records with that trace flag."""
    out: dict[tuple, list] = {}
    for r in records:
        if int(r.get("trace", 0)) != trace:
            continue
        group = r["layers"] if trace else r["e2e"]
        for k, v in group.items():
            out.setdefault((r["workload"], k), []).append(float(v))
    return out


def spread(values: list[float]) -> float:
    q1, q2, q3 = stats.quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def host_medians(records: list[dict], key: str) -> dict:
    """workload -> median of `key` (a host reading) over untraced runs."""
    out: dict[str, list] = {}
    for r in records:
        if int(r.get("trace", 0)) == 0 and r.get(key) is not None:
            out.setdefault(r["workload"], []).append(r[key])
    return {wl: stats.median(v) for wl, v in out.items()}


def verdict(base: list[float], new: list[float], bound: float,
            better: str, host_drift: float | None = None) -> str:
    """`host_drift` is the relative change of the calibration between
    the sides for a time metric (None when a side has no calibration),
    and 0 for a metric the CPU speed does not move."""
    mb, mn = stats.median(base), stats.median(new)
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if host_drift is None or host_drift > bound:
        return "unresolved"
    if not mb:
        return ""
    change = (mn - mb) / abs(mb)
    if better == "lower":
        change = -change
    if change < -bound:
        return "WORSE"
    if change > bound:
        return "better"
    return ""


def fmt(values: list[float]) -> str:
    q1, q2, q3 = stats.quartiles(values)
    return f"{q2:>11.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    base_recs, new_recs = load_records(argv[0]), load_records(argv[1])
    cal_b = host_medians(base_recs, "calibration_ms")
    cal_n = host_medians(new_recs, "calibration_ms")
    steal_b = host_medians(base_recs, "steal_frac")
    steal_n = host_medians(new_recs, "steal_frac")
    for wl in sorted(set(cal_b) & set(cal_n)):
        print(f"calibration {wl:<14} base {cal_b[wl]:.2f} ms  "
              f"new {cal_n[wl]:.2f} ms  (CPU steal base "
              f"{steal_b.get(wl, float('nan')):.3f}, new "
              f"{steal_n.get(wl, float('nan')):.3f})")
    flagged = 0
    for trace in (0, 1):
        base, new = series(base_recs, trace), series(new_recs, trace)
        keys = sorted(set(base) & set(new))
        if not keys:
            continue
        print("end-to-end" if not trace else "per-layer (no bounds)")
        print(f"  {'workload':<14} {'metric':<32} {'base median [q1, q3]':>34}"
              f" {'new median [q1, q3]':>34}  n  verdict")
        for wl, name in keys:
            b, n = base[(wl, name)], new[(wl, name)]
            v = ""
            if not trace and name in e2e:
                drift = 0.0
                if e2e[name]["unit"] in TIME_UNITS:
                    drift = (abs(cal_n[wl] - cal_b[wl]) / cal_b[wl]
                             if wl in cal_b and wl in cal_n else None)
                v = verdict(b, n, e2e[name]["bound"], e2e[name]["better"],
                            drift)
                flagged += v in ("WORSE", "unresolved")
            print(f"  {wl:<14} {name:<32} {fmt(b):>34} {fmt(n):>34} "
                  f"{len(b)}/{len(n)}  {v}")
    for label, recs in (("base", base_recs), ("new", new_recs)):
        traced: dict[tuple, list] = {}
        for r in recs:
            if int(r.get("trace", 0)) == 1:
                for k, v in r["e2e"].items():
                    traced.setdefault((r["workload"], k), []).append(v)
        plain = series(recs, 0)
        common = sorted(set(plain) & set(traced))
        if common:
            print(f"tracing overhead on {label} (traced - untraced median)")
            for wl, name in common:
                d = (stats.median(traced[(wl, name)])
                     - stats.median(plain[(wl, name)]))
                print(f"  {wl:<14} {name:<32} {d:>+12.4g}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
