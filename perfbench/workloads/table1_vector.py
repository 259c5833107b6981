"""``table1-vector``: the seven Table-1 kernels on the vector backend.

One operation is one kernel run memoized and unmemoized at a 2%
Bernoulli error rate, executors built inside the timed part, telemetry
off, in this process.  ``--seed`` is the error-stream seed; the inputs
are the registry's default workloads.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, List

import numpy as np

import checks
from measure import Checked, Round, Stopwatch, median, memo_metrics, timing_metrics, unit_counts

NAME = "table1-vector"
ERROR_RATE = 0.02
#: Exact-matching kernels: memoized output must equal unmemoized output.
EXACT = ("FWT", "EigenValue")
IMAGES = ("Sobel", "Gaussian")
#: Tolerance of the unmemoized (error-free by recovery) output against
#: the NumPy reference.  Images: one grey level (float32 vs float64
#: rounding before truncation).  Float kernels: 1e-5 of the output's
#: largest magnitude.  FWT: exact (small integer sums).  EigenValue: the
#: width of the final bisection interval, computed per workload.
IMAGE_TOLERANCE = 1.0
RELATIVE_TOLERANCE = 1e-5
#: Tolerance of the memoized output of the approximate non-image kernels:
#: the acceptance of the SDK host self-check for each (Table 1).
MEMO_TOLERANCE = {"Haar": 0.05 * 16.0, "BlackScholes": 1e-3, "BinomialOption": 1e-3}


def prepare(ctx) -> None:
    import repro.gpu.executor  # noqa: F401  (compiles bytecode once)


def setup_argv(ctx) -> List[str]:
    return ctx.probe_argv(NAME)


def setup(ctx) -> dict:
    from repro.config import MemoConfig, SimConfig, TimingConfig, small_arch
    from repro.kernels.registry import KERNEL_REGISTRY

    kernels = {}
    for name, spec in KERNEL_REGISTRY.items():
        config = SimConfig(
            arch=small_arch(),
            memo=MemoConfig(threshold=spec.threshold),
            timing=TimingConfig(error_rate=ERROR_RATE, seed=ctx.seed),
            backend="vector",
        )
        kernels[name] = (spec.default_factory(), config)
    return {"kernels": kernels}


SIDES = (("memo", True), ("base", False))


def _simulate(workload, config, memoized: bool) -> tuple:
    from repro.gpu.executor import GpuExecutor

    executor = GpuExecutor(config, memoized=memoized)
    output = workload.run(executor)
    return executor.device, output, executor.device.energy_report()


def run_round(ctx, state, recorder=None) -> Round:
    from repro.gpu.performance import performance_report

    runs = {}
    parts = {}
    for name, (workload, config) in state["kernels"].items():
        with recorder.span(f"table1.{name}") if recorder else nullcontext():
            with Stopwatch() as watch:
                runs[name] = {
                    side: _simulate(workload, config, memoized) for side, memoized in SIDES
                }
        parts[name] = (watch.wall_s, watch.cpu_s)
    results = {
        name: {
            side: dict(
                unit_counts(device.counters(), device.lut_stats(), device.ecu_stats()),
                output=np.asarray(output),
                ops=device.executed_ops,
                energy_pj=energy.total_pj,
                cycles=performance_report(device).device_cycles,
            )
            for side, (device, output, energy) in pair.items()
        }
        for name, pair in runs.items()
    }
    ops = sum(run["ops"] for pair in results.values() for run in pair.values())
    return Round(parts, ops, results, recorder)


def _reference(name: str, workload) -> tuple:
    """(NumPy reference output, tolerance of the unmemoized output)."""
    if name == "Sobel":
        return checks.sobel_reference(workload.image), IMAGE_TOLERANCE
    if name == "Gaussian":
        return checks.gaussian_reference(workload.image), IMAGE_TOLERANCE
    if name == "FWT":
        return checks.walsh_reference(workload.signal), 0.0
    if name == "EigenValue":
        width = (workload.upper - workload.lower) / 2 ** workload.iterations
        return checks.eigenvalue_reference(workload.diag, workload.offdiag), width
    if name == "Haar":
        ref = checks.haar_reference(workload.signal)
    elif name == "BlackScholes":
        ref = checks.black_scholes_reference(
            workload.price, workload.strike, workload.years,
            workload.rate, workload.volatility,
        )
    elif name == "BinomialOption":
        ref = checks.binomial_reference(
            workload.price, workload.strike, workload.steps,
            workload.rate, workload.volatility, workload.years,
        )
    else:
        raise KeyError(name)
    return ref, RELATIVE_TOLERANCE * float(np.max(np.abs(ref)))


def check_pair(name: str, entry: dict, reference, tolerance: float, golden) -> List[str]:
    """Every check of one kernel pair (memoized + unmemoized run)."""
    memo, base = entry["memo"], entry["base"]
    failures = checks.check_close(f"{name} unmemoized", base["output"], reference, tolerance)
    failures += checks.check_identical(
        name, base["output"], golden, "unmemoized and golden outputs"
    )
    if name in EXACT:
        failures += checks.check_identical(
            name, memo["output"], base["output"], "memoized and unmemoized outputs"
        )
    elif name in IMAGES:
        failures += checks.check_psnr(f"{name} memoized", memo["output"], reference)
    else:
        failures += checks.check_close(
            f"{name} memoized", memo["output"], reference, MEMO_TOLERANCE[name]
        )
    for side, memoized in SIDES:
        run = entry[side]
        failures += checks.check_conservation(
            f"{name} {side}", run["counters"], run["lut"], memoized
        )
        injected = sum(c["errors_injected"] for c in run["counters"].values())
        failures += checks.check_injection(f"{name} {side}", injected, run["ops"], ERROR_RATE)
    return failures


def _fingerprint(entry: dict) -> tuple:
    return tuple(
        (entry[side]["output"].tobytes(), repr(entry[side]["counters"]), repr(entry[side]["lut"]))
        for side in ("memo", "base")
    )


def check(ctx, state, rounds: List[Round]) -> Checked:
    checked = Checked()
    first = {}
    for name, (workload, config) in state["kernels"].items():
        reference, tolerance = _reference(name, workload)
        golden = workload.golden(wavefront_size=config.arch.wavefront_size)
        for index, round_ in enumerate(rounds):
            entry = round_.results[name]
            failures = check_pair(name, entry, reference, tolerance, golden)
            first.setdefault(name, _fingerprint(entry))
            if _fingerprint(entry) != first[name]:
                failures.append(f"{name}: round {index} differs from round 0")
            checked.add(f"{index}:{name}", failures)
    return checked


def install_spans(recorder, state) -> None:
    from repro.gpu.device import Device
    from repro.gpu.executor import GpuExecutor

    recorder.wrap(GpuExecutor, "__init__", "gpu.build")
    recorder.wrap(GpuExecutor, "run", "gpu.run")
    recorder.wrap(Device, "run_wavefronts", "gpu.dispatch")
    recorder.wrap(Device, "energy_report", "energy.report")
    for workload, _ in state["kernels"].values():
        recorder.wrap(type(workload), "run", "kernels.run")


def simulated_metrics(results: Dict[str, dict]) -> Dict[str, float]:
    """The model's outputs over one round (identical on every round)."""
    metrics = memo_metrics(
        {name: list(entry["memo"]["lut"].values()) for name, entry in results.items()}
    )
    runs = [entry[side] for entry in results.values() for side in ("memo", "base")]
    metrics.update(timing_metrics(runs))
    memo_pj = sum(entry["memo"]["energy_pj"] for entry in results.values())
    base_pj = sum(entry["base"]["energy_pj"] for entry in results.values())
    metrics["energy.memo_pj"] = memo_pj
    metrics["energy.baseline_pj"] = base_pj
    metrics["energy.saving"] = 1.0 - memo_pj / base_pj
    metrics["gpu.sim_ops"] = sum(run["ops"] for run in runs)
    metrics["gpu.sim_cycles"] = sum(run["cycles"] for run in runs)
    metrics["gpu.ops_per_cycle"] = metrics["gpu.sim_ops"] / metrics["gpu.sim_cycles"]
    return metrics


def layer_metrics(ctx, state, traced: List[Round]) -> Dict[str, float]:
    def per_round(fn):
        return median([fn(r) for r in traced])

    metrics = {
        "gpu.build_s": per_round(lambda r: r.spans.total("gpu.build")),
        "gpu.decode_s": per_round(lambda r: r.spans.self_time("gpu.run")),
        "gpu.dispatch_s": per_round(lambda r: r.spans.total("gpu.dispatch")),
        "kernels.host_s": per_round(lambda r: r.spans.self_time("kernels.run")),
        "energy.report_s": per_round(lambda r: r.spans.total("energy.report")),
        "gpu.launches": traced[-1].spans.count("gpu.run"),
    }
    for name in state["kernels"]:
        metrics[f"gpu.us_per_op.{name}"] = per_round(
            lambda r: 1e6 * r.spans.total(f"table1.{name}")
            / (r.results[name]["memo"]["ops"] + r.results[name]["base"]["ops"])
        )
    metrics.update(simulated_metrics(traced[-1].results))
    return metrics
