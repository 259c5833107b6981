"""Host-side measurement helpers shared by the workloads."""

from __future__ import annotations

import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


class Stopwatch:
    """Wall and CPU seconds of one timed region."""

    def __enter__(self) -> "Stopwatch":
        self.wall_s = self.cpu_s = 0.0
        self._cpu = cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = cpu_seconds() - self._cpu


def run_subprocess(argv: Sequence[str], env: Dict[str, str], timeout: float = 120.0):
    """Run ``argv`` to completion with its output captured."""
    return subprocess.run(
        list(argv),
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=False,
    )


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


@dataclass
class Round:
    """One timed pass over a workload's operations.

    ``parts`` maps each timed part of the round (an invocation, a kernel
    pair, a campaign pass) to its ``(wall_s, cpu_s)``; ``ops`` are the
    simulated FP ops the round asked for; ``results`` holds the plain
    values the checks and layer metrics read, gathered after the timers
    stopped.
    """

    parts: Dict[str, Tuple[float, float]]
    ops: int
    results: dict = field(default_factory=dict)
    spans: object = None


def typical_round(rounds: Sequence[Round]) -> Tuple[float, float]:
    """(wall_s, cpu_s) of a typical round: the sum over its parts of each
    part's median across rounds, so one disturbed part in one round does
    not move the figure."""
    parts = rounds[0].parts
    return tuple(
        sum(median([r.parts[part][i] for r in rounds]) for part in parts)
        for i in (0, 1)
    )


@dataclass
class Checked:
    """Operations attempted and the failure messages of those that failed."""

    attempted: int = 0
    failures: Dict[str, List[str]] = field(default_factory=dict)

    def add(self, operation: str, messages: List[str]) -> None:
        self.attempted += 1
        if messages:
            self.failures.setdefault(operation, []).extend(messages)

    @property
    def failed(self) -> int:
        return len(self.failures)


# ------------------------------------------------ the model's own statistics
def unit_counts(counters, lut_stats, ecu_stats) -> dict:
    """Plain per-unit-kind counts from the program's ``FpuEventCounters``,
    ``LutStats`` and ``EcuStats`` maps (kinds that executed nothing are
    left out of the counters)."""
    return {
        "counters": {
            kind.value: {
                "ops": c.ops,
                "errors_injected": c.errors_injected,
                "errors_masked": c.errors_masked,
                "errors_recovered": c.errors_recovered,
            }
            for kind, c in counters.items()
            if c.ops
        },
        "lut": {
            kind.value: {
                "lookups": s.lookups,
                "hits": s.hits,
                "commuted": sum(
                    n for outcome, n in s.outcome_counts.items() if outcome.name == "COMMUTED"
                ),
            }
            for kind, s in lut_stats.items()
        },
        "recovery_cycles": sum(s.recovery_cycles for s in ecu_stats.values()),
    }


def memo_metrics(lut_by_kernel: Dict[str, List[dict]]) -> Dict[str, float]:
    """``memo.*`` from per-kernel lists of per-unit LUT counts."""
    metrics: Dict[str, float] = {}
    totals = dict.fromkeys(("lookups", "hits", "commuted"), 0)
    for kernel, units in lut_by_kernel.items():
        lookups = sum(u["lookups"] for u in units)
        hits = sum(u["hits"] for u in units)
        totals["lookups"] += lookups
        totals["hits"] += hits
        totals["commuted"] += sum(u.get("commuted", 0) for u in units)
        metrics[f"memo.hit_rate.{kernel}"] = hits / lookups if lookups else 0.0
    metrics.update({f"memo.{name}": value for name, value in totals.items()})
    metrics["memo.hit_rate"] = totals["hits"] / totals["lookups"] if totals["lookups"] else 0.0
    return metrics


def timing_metrics(runs: List[dict]) -> Dict[str, float]:
    """``timing.*`` summed over runs given as :func:`unit_counts` dicts."""
    metrics = {
        f"timing.{field}": sum(
            c[field] for run in runs for c in run["counters"].values()
        )
        for field in ("errors_injected", "errors_masked", "errors_recovered")
    }
    metrics["timing.recovery_cycles"] = sum(run["recovery_cycles"] for run in runs)
    return metrics
