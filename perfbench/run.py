"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-run --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced rounds;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, spans written to ``.perfbench/traces/``.  Metric
names and units come from ``BENCHMARK.json``.  All scratch output goes
to a fresh directory under ``.perfbench/tmp/`` that is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 16  # half before the rounds, half after


@dataclass
class Context:
    """What every workload function receives."""

    seed: int
    tmp: str
    env: Dict[str, str] = field(default_factory=dict)

    def probe_argv(self, workload: str) -> List[str]:
        """A fresh interpreter that runs only ``workload``'s set-up."""
        return [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(self.seed), "--setup-probe",
        ]


def _bench() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: run_seconds from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _setup_seconds(argv, env) -> float:
    """Wall time of one fresh interpreter that only sets the workload up."""
    from measure import run_subprocess

    started = time.perf_counter()
    done = run_subprocess(argv, env)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise SystemExit(f"set-up probe exited {done.returncode}: {done.stderr[-300:]}")
    return elapsed


def _rounds(module, ctx, state, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed (at least one of each
    kind); with tracing, untraced and traced rounds alternate."""
    from spans import SpanRecorder

    plain, traced = [], []
    started = time.perf_counter()
    while True:
        plain.append(module.run_round(ctx, state))
        if trace:
            recorder = SpanRecorder(f"{module.NAME}-seed{ctx.seed}-round{len(traced)}")
            with recorder:
                module.install_spans(recorder, state)
                traced.append(module.run_round(ctx, state, recorder))
        if time.perf_counter() - started >= seconds:
            return plain, traced


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    bench = _bench()
    sys.path.insert(0, str(SRC))
    from measure import median, peak_rss_mb, typical_round
    from workloads import WORKLOADS

    module = WORKLOADS.get(args.workload)
    if module is None:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=tmp)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    ctx = Context(seed=args.seed, tmp=tmp, env=env)
    try:
        if args.setup_probe:
            module.setup(ctx)
            return 0
        module.prepare(ctx)
        probes = 0 if args.trace else SETUP_PROBES // 2
        setup_times = [_setup_seconds(module.setup_argv(ctx), env) for _ in range(probes)]
        state = module.setup(ctx)
        seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
        plain, traced = _rounds(module, ctx, state, seconds, bool(args.trace))
        setup_times += [_setup_seconds(module.setup_argv(ctx), env) for _ in range(probes)]
        checked = module.check(ctx, state, plain + traced)
        if args.trace:
            values = module.layer_metrics(ctx, state, traced)
            values["trace.overhead_s"] = typical_round(traced)[0] - typical_round(plain)[0]
            traces = ROOT / ".perfbench" / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            with open(traces / f"{args.workload}-seed{args.seed}.json", "w") as handle:
                json.dump([r.spans.to_json() for r in traced], handle)
        else:
            wall_s, cpu_s = typical_round(plain)
            values = {
                "setup_s": median(setup_times),
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "sim_ops_per_s": median([r.ops for r in plain]) / wall_s,
                "peak_rss_mb": peak_rss_mb(),
            }
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for operation, messages in sorted(checked.failures.items()):
        for message in messages:
            print(f"FAILED {operation}: {message}")
    metrics = {}
    for spec in bench["per_layer" if args.trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        value = float(values.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
