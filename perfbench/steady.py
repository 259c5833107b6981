"""Steadiness check: two interleaved sets of runs of the same code.

Usage, from the root of a checkout::

    python3 perfbench/steady.py --runs 5

Runs ``run.py`` (untraced, ``run_seconds`` long) ``--runs`` times per
set on every workload of ``BENCHMARK.json``, with a distinct seed per
run, alternating which set goes first.  For every workload and
end-to-end metric it prints each set's median and quartiles, the
spread (interquartile range over median) of all runs together, the
signed change of the second median against the first, and whether the
sets agree within the metric's bound: each set's spread within the
bound and the two medians apart by no more than the bound, in either
direction.  The failed share of operations must match exactly.  Raw
results go to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid


def run_once(workload: str, seed: int) -> dict:
    """One untraced run; its length is ``run_seconds``, run.py's default."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(lines[-1])


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def main(argv=None) -> int:
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in bench["workloads"]]
    results = {w: {"A": [], "B": []} for w in workloads}
    for index in range(args.runs):
        order = ("A", "B") if index % 2 == 0 else ("B", "A")
        for workload in workloads:
            for side in order:
                seed = 2 * index + (1 if side == "A" else 2)
                result = run_once(workload, seed)
                results[workload][side].append(result)
                print(f"run {index} {workload} set {side} seed {seed}: "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                      flush=True)
    out = ROOT / ".perfbench" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")

    agree = True
    header = f"{'workload':<14} {'metric':<14} {'A median [q1, q3]':<34} {'B median [q1, q3]':<34} {'spread':>7} {'worse':>7} {'bound':>6}  verdict"
    print(header)
    for workload in workloads:
        sets = results[workload]
        shares = {
            side: {r["failed"] / r["attempted"] for r in runs} for side, runs in sets.items()
        }
        if shares["A"] != shares["B"] or len(shares["A"]) != 1:
            agree = False
            print(f"{workload}: failed shares differ: {shares}")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = {side: [r["metrics"][name]["value"] for r in runs] for side, runs in sets.items()}
            qa, qb = quartiles(values["A"]), quartiles(values["B"])
            both = spread(values["A"] + values["B"])
            set_spread = max(spread(values["A"]), spread(values["B"]))
            worse = worse_by(metric, qa[1], qb[1])
            ok = abs(worse) <= bound and set_spread <= bound
            agree &= ok
            print(
                f"{workload:<14} {name:<14} "
                f"{qa[1]:>10.4g} [{qa[0]:.4g}, {qa[2]:.4g}]".ljust(64)
                + f"{qb[1]:>10.4g} [{qb[0]:.4g}, {qb[2]:.4g}]".ljust(34)
                + f" {both:>7.3f} {worse:>7.3f} {bound:>6.2f}  {'ok' if ok else 'DISAGREE'}"
            )
    print("sets agree within bounds" if agree else "sets DISAGREE")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
