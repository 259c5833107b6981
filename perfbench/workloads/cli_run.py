"""``cli-run``: what a user waits for at the terminal.

Each operation is one ``python -m repro run K --error-rate 0.02
--energy`` in a fresh interpreter (scalar backend, telemetry off).  The
CLI exposes no error-stream seed for a single run, so ``--seed`` only
fixes the order of the five invocations in a round.  Checks read the
CLI's own report: its host validation verdict, per-unit hit counts,
PSNR and the energy table, and require every round to print the same
statistics.
"""

from __future__ import annotations

import random
import re
import sys
from contextlib import nullcontext
from typing import Dict, List

from measure import Checked, Round, Stopwatch, median, memo_metrics, run_subprocess
from checks import MIN_PSNR_DB

NAME = "cli-run"
KERNELS = ("Haar", "FWT", "BlackScholes", "BinomialOption", "Sobel")
ERROR_RATE = "0.02"

_VERDICT = re.compile(
    r"^(?P<kernel>\w+): (?P<verdict>Passed|FAILED) \((?P<detail>.*)\)$", re.M
)
_UNIT = re.compile(r"^  (?P<unit>\w+)\s+hit rate\s+[\d.]+% \((?P<hits>\d+)/(?P<lookups>\d+)\)$", re.M)
_PHASE = re.compile(r"^\s*(?P<phase>[\w.]+)\s*\|\s*(?P<seconds>[-+.\deE]+)\s*\|", re.M)


def _run_argv(kernel: str, profile: bool) -> List[str]:
    argv = [sys.executable, "-m", "repro", "run", kernel, "--error-rate", ERROR_RATE, "--energy"]
    return argv + ["--profile"] if profile else argv


def prepare(ctx) -> None:
    """One untimed invocation, so compiled bytecode exists."""
    run_subprocess(_run_argv("Haar", profile=False), ctx.env)


def setup_argv(ctx) -> List[str]:
    return [sys.executable, "-m", "repro", "list"]


def setup(ctx) -> dict:
    order = list(KERNELS)
    random.Random(ctx.seed).shuffle(order)
    return {"order": order}


def run_round(ctx, state, recorder=None) -> Round:
    outputs: Dict[str, dict] = {}
    parts = {}
    for kernel in state["order"]:
        argv = _run_argv(kernel, profile=recorder is not None)
        with recorder.span(f"cli.run.{kernel}") if recorder else nullcontext():
            with Stopwatch() as watch:
                done = run_subprocess(argv, ctx.env)
        parts[kernel] = (watch.wall_s, watch.cpu_s)
        outputs[kernel] = {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}
    ops = sum(parse(output["stdout"])["ops"] for output in outputs.values())
    return Round(parts, ops, {"outputs": outputs}, recorder)


def install_spans(recorder, state) -> None:
    """Nothing to wrap: the program runs in child processes, so the
    round records one span per invocation and passes ``--profile``."""


def parse(stdout: str) -> dict:
    """The statistics one ``repro run`` printed."""
    verdict = _VERDICT.search(stdout)
    detail = verdict.group("detail") if verdict else ""
    fields = dict(
        part.split("=", 1) for part in detail.split(", ") if "=" in part
    )
    units = {
        m.group("unit"): (int(m.group("hits")), int(m.group("lookups")))
        for m in _UNIT.finditer(stdout)
    }
    stats_text, _, profile_text = stdout.partition("host phases")
    energy = None
    for line in stats_text.splitlines():
        if line.startswith("TOTAL"):
            energy = float(line.split("|")[-1])
    phases = {
        m.group("phase"): float(m.group("seconds"))
        for m in _PHASE.finditer(profile_text)
    }
    return {
        "kernel": verdict.group("kernel") if verdict else None,
        "passed": bool(verdict) and verdict.group("verdict") == "Passed",
        "ops": int(fields.get("ops", 0)),
        "psnr_db": float(fields["PSNR"].split()[0]) if "PSNR" in fields else None,
        "units": units,
        "energy_pj": energy,
        "stats_text": stats_text.rstrip(),
        "phases": phases,
    }


def check_invocation(kernel: str, output: dict) -> List[str]:
    """One invocation's report: exit 0, validation passed, counts consistent."""
    if output["code"] != 0:
        return [f"{kernel}: exit code {output['code']}: {output['stderr'][-300:]}"]
    report = parse(output["stdout"])
    failures = []
    if report["kernel"] != kernel or not report["passed"]:
        failures.append(f"{kernel}: host validation did not pass")
    if report["ops"] <= 0:
        failures.append(f"{kernel}: no simulated ops reported")
    lookups = sum(lookups for _, lookups in report["units"].values())
    if lookups != report["ops"]:
        failures.append(f"{kernel}: {lookups} LUT lookups for {report['ops']} ops")
    for unit, (hits, unit_lookups) in report["units"].items():
        if hits > unit_lookups:
            failures.append(f"{kernel} {unit}: {hits} hits > {unit_lookups} lookups")
    if report["psnr_db"] is not None and not report["psnr_db"] >= MIN_PSNR_DB:
        failures.append(f"{kernel}: PSNR {report['psnr_db']} dB < {MIN_PSNR_DB:g} dB")
    if not (report["energy_pj"] or 0.0) > 0.0:
        failures.append(f"{kernel}: no energy total reported")
    return failures


def check(ctx, state, rounds: List[Round]) -> Checked:
    checked = Checked()
    first: Dict[str, str] = {}
    for index, round_ in enumerate(rounds):
        for kernel, output in round_.results["outputs"].items():
            failures = check_invocation(kernel, output)
            stats = parse(output["stdout"])["stats_text"]
            first.setdefault(kernel, stats)
            if not failures and stats != first[kernel]:
                failures.append(f"{kernel}: round {index} printed other statistics")
            checked.add(f"{index}:{kernel}", failures)
    return checked


def _import_seconds(ctx) -> float:
    code = (
        "import time; t = time.perf_counter(); import repro.cli; "
        "print(time.perf_counter() - t)"
    )
    done = run_subprocess([sys.executable, "-c", code], ctx.env)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(ctx, state, traced: List[Round]) -> Dict[str, float]:
    metrics = {"cli.import_s": median([_import_seconds(ctx) for _ in range(3)])}
    for kernel in KERNELS:
        metrics[f"cli.run_s.{kernel}"] = median(
            [r.spans.total(f"cli.run.{kernel}") for r in traced]
        )
    reports = [
        [parse(output["stdout"]) for output in r.results["outputs"].values()]
        for r in traced
    ]
    for phase in ("execute", "lut_lookup", "ecu_replay"):
        metrics[f"fpu.{phase}_s"] = median(
            [sum(rep["phases"].get(f"fpu.{phase}", 0.0) for rep in round_) for round_ in reports]
        )
    last = reports[-1]
    metrics.update(
        memo_metrics(
            {
                rep["kernel"]: [{"hits": h, "lookups": n} for h, n in rep["units"].values()]
                for rep in last
            }
        )
    )
    metrics["energy.memo_pj"] = sum(rep["energy_pj"] or 0.0 for rep in last)
    return metrics
