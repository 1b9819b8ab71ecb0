"""Steadiness and compare tool for the benchmark.

Run N runs of each workload, at seeds 1 to N and ``run_seconds`` from
BENCHMARK.json, and report each metric's median and quartiles and its spread,
the distance between the quartiles as a share of the median:

    python3 perfbench/steady.py run --workload wide cli_wide --runs 10 \\
        --out .perfbench_out/steady-a.json

Compare two saved result sets metric by metric, one row per workload, with
the bounds from BENCHMARK.json; op k of a seed must have the same digest in
both sets:

    python3 perfbench/steady.py compare .perfbench_out/steady-a.json \\
        .perfbench_out/steady-b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def run_one(workload: str, seed: int, seconds: int) -> dict:
    """One untraced run of ``workload``, with its per-op digests."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    tag = f"{workload}-seed{seed}-trace0"
    with open(os.path.join(ROOT, ".perfbench_out", f"result-{tag}.json"), encoding="utf-8") as fh:
        details = json.load(fh)
    result["digests"] = [op["digest"] for op in details["ops"]]
    result["loadavg"] = [details["environment"]["loadavg_1m_before"],
                         details["environment"]["loadavg_1m_after"]]
    return result


def cmd_run(args) -> int:
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    saved = {}
    for workload in args.workload:
        runs = {}
        for i in range(args.runs):
            seed = i + 1
            runs[str(seed)] = run_one(workload, seed, spec["run_seconds"])
            r = runs[str(seed)]
            print(f"{workload} seed {seed}: {r['attempted']} ops, {r['failed']} failed, "
                  f"loadavg {r['loadavg'][0]:.2f}->{r['loadavg'][1]:.2f}", flush=True)
        saved[workload] = runs
        print_summary(workload, runs, bounds)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(saved, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


def metric_values(runs: dict) -> dict:
    values: dict[str, list[float]] = {}
    units = {}
    for r in runs.values():
        for name, m in r["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    return {name: (vals, units[name]) for name, vals in values.items()}


def print_summary(workload: str, runs: dict, bounds: dict) -> None:
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(f"\n{workload}: {len(runs)} runs, {attempted} ops, fail_frac "
          f"{failed / attempted:.4f}")
    print(f"{'metric':<42} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name, (vals, unit) in metric_values(runs).items():
        q1, med, q3 = quartiles(vals)
        s = spread(vals)
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = ("steady" if s < bound / 3 else
                       "within bound" if s <= bound else "too wide")
        print(f"{name:<42} {unit:<6} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{s:>8.2%} {'' if bound is None else f'{bound:.2f}':>6}  {verdict}")


def compare_metric(a: list[float], b: list[float], bound: float, better: str) -> str:
    """Status of ``b`` against ``a``: ok, worse, better or unresolved."""
    change = (statistics.median(b) - statistics.median(a)) / abs(statistics.median(a))
    worsening = change if better == "lower" else -change
    all_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
    if max(spread(a), spread(b)) > bound:
        status = "better" if all_better else "unresolved"
    elif worsening > bound:
        status = "worse"
    elif worsening < -bound:
        status = "better"
    else:
        status = "ok"
    return f"{change:+.1%} {status}"


def cmd_compare(args) -> int:
    spec = load_spec()
    with open(args.base, encoding="utf-8") as fh:
        base = json.load(fh)
    with open(args.new, encoding="utf-8") as fh:
        new = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"]]
    print(f"{'workload':<10} " + " ".join(f"{n:>22}" for n in names) + "  digests; failed ops")
    worst = 0
    for workload in sorted(set(base) & set(new)):
        a, b = metric_values(base[workload]), metric_values(new[workload])
        cells = []
        for m in spec["end_to_end"]:
            cell = compare_metric(a[m["name"]][0], b[m["name"]][0], m["bound"], m["better"])
            worst = max(worst, int(cell.endswith("worse")))
            cells.append(cell)
        # Runs of one seed may fit different op counts; op k must match op k.
        pairs = [pair for seed in set(base[workload]) & set(new[workload])
                 for pair in zip(base[workload][seed]["digests"], new[workload][seed]["digests"])]
        differ = sum(a_digest != b_digest for a_digest, b_digest in pairs)
        digests = f"{len(pairs) - differ} of {len(pairs)} op digests identical"
        worst = max(worst, int(differ > 0))
        failed = " vs ".join(
            f"{sum(r['failed'] for r in runs.values())}/{sum(r['attempted'] for r in runs.values())}"
            for runs in (base[workload], new[workload]))
        print(f"{workload:<10} " + " ".join(f"{c:>22}" for c in cells)
              + f"  {digests}; failed {failed}")
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="N runs per workload, with medians and quartiles")
    p.add_argument("--workload", nargs="+", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=None, help="save the runs here as JSON")
    p.set_defaults(fn=cmd_run)
    p = sub.add_parser("compare", help="compare two saved result sets")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
