"""``campaign-grid``: a fig10-style campaign, cold, warm, then via the service.

The grid is EigenValue and FWT (exact matching) beside Haar and
BlackScholes (approximate) at error rates {0, 0.02, 0.04}, one seed
(``--seed``, the error-stream seed), scalar backend, telemetry
collected.  Each round runs it cold through ``run_campaign(jobs=2)``
into an empty store, re-runs it warm, and submits it warm to an
in-process ``ServiceThread``.  Operations: each cold shard, the warm
pass and the service submission.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import nullcontext
from typing import Dict, List

import checks
from measure import Checked, Round, Stopwatch, median, memo_metrics, timing_metrics, unit_counts

NAME = "campaign-grid"
KERNELS = ("EigenValue", "FWT", "Haar", "BlackScholes")
EXACT = ("EigenValue", "FWT")
ERROR_RATES = (0.0, 0.02, 0.04)
JOBS = 2
POLL_S = 0.02


def prepare(ctx) -> None:
    import repro.campaign.runner  # noqa: F401  (compiles bytecode once)
    import repro.service  # noqa: F401


def setup_argv(ctx) -> List[str]:
    return ctx.probe_argv(NAME)


def setup(ctx) -> dict:
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore
    from repro.service import JobManager  # noqa: F401  (part of a user's set-up)

    spec = CampaignSpec(
        name="bench-grid",
        kernels=KERNELS,
        error_rates=ERROR_RATES,
        seeds=(ctx.seed,),
        collect_telemetry=True,
    )
    # A user's set-up opens a store; the rounds open fresh, empty ones.
    ResultStore(tempfile.mkdtemp(prefix="store-", dir=ctx.tmp))
    return {"spec": spec, "tasks": spec.tasks(), "document": spec.to_dict()}


def run_round(ctx, state, recorder=None) -> Round:
    from repro.campaign.runner import run_campaign
    from repro.campaign.store import ResultStore
    from repro.service import JobManager, ServiceClient, ServiceThread

    spec = state["spec"]
    root = tempfile.mkdtemp(prefix="store-", dir=ctx.tmp)
    stores = {side: ResultStore(root) for side in ("cold", "warm", "service")}
    parts = {}

    def span(name):
        return recorder.span(name) if recorder else nullcontext()

    with span("bench.cold"), Stopwatch() as watch:
        cold = run_campaign(spec, stores["cold"], jobs=JOBS)
    parts["cold"] = (watch.wall_s, watch.cpu_s)
    with span("bench.warm"), Stopwatch() as watch:
        warm = run_campaign(spec, stores["warm"], jobs=JOBS)
    parts["warm"] = (watch.wall_s, watch.cpu_s)
    with span("bench.service"), Stopwatch() as watch:
        with span("service.start"):
            service = ServiceThread(JobManager(stores["service"], jobs=JOBS)).__enter__()
        try:
            with span("service.submit_to_result"):
                client = ServiceClient(service.url)
                job = client.submit(state["document"])
                final = client.wait(job["job_id"], poll_s=POLL_S)
                service_text = client.result_bytes(job["job_id"]).decode("utf-8")
        finally:
            service.__exit__(None, None, None)
    parts["service"] = (watch.wall_s, watch.cpu_s)
    results = _gather(state, cold, warm, final, service_text, stores)
    shutil.rmtree(root, ignore_errors=True)
    ops = sum(2 * shard["ops"] for shard in results["shards"].values())
    return Round(parts, ops, results, recorder)


def _gather(state, cold, warm, final, service_text, stores) -> dict:
    """Plain values from the three passes and the store, for the checks."""
    from repro.campaign.codec import decode_seed_shard

    shards = {}
    for task in state["tasks"]:
        payload = stores["cold"].get(task.key)
        if payload is None:
            continue
        shard = decode_seed_shard(payload)
        counts = unit_counts(shard.counters, shard.lut_stats, shard.ecu_stats)
        shards[task.label] = dict(
            counts,
            kernel=task.kernel,
            rate=task.error_rate,
            ops=sum(c["ops"] for c in counts["counters"].values()),
        )
    records = [record for engine in cold.engines for record in engine.shards]
    return {
        "shards": shards,
        "computed_labels": [record.label for record in records],
        "cold": {
            "cached_at_start": cold.cached,
            "computed": cold.computed,
            "total": cold.total,
            "text": cold.result.to_json() if cold.result else "",
        },
        "warm": {
            "computed": warm.computed,
            "cached": warm.cached,
            "total": warm.total,
            "text": warm.result.to_json() if warm.result else "",
        },
        "service": {
            "computed": final.get("completed_shards", 0) - final.get("cached", 0),
            "cached": final.get("cached", 0),
            "total": final.get("total", 0),
            "status": final.get("status"),
            "text": service_text,
        },
        "engines": [
            {
                "workers": engine.workers,
                "shard_walls": [record.wall_time_s for record in engine.shards],
                "shard_cpu": [record.cpu_time_s or 0.0 for record in engine.shards],
                "telemetry_s": engine.phase_totals().get("host.telemetry", {}).get("total_s", 0.0),
            }
            for engine in cold.engines
        ],
        "store_bytes": stores["cold"].stats().total_bytes,
        "store_counters": {side: store.counter_values() for side, store in stores.items()},
    }


def check_round(state, results: dict) -> Dict[str, List[str]]:
    """Failure messages keyed by operation: shard label, "warm" or "service"."""
    labels = [task.label for task in state["tasks"]]
    failures: Dict[str, List[str]] = {label: [] for label in labels}
    failures["warm"] = []
    failures["service"] = []
    cold = results["cold"]
    whole_cold = checks.check_cold_start(cold["cached_at_start"], cold["computed"], cold["total"])
    coverage = checks.check_shard_coverage(labels, results["computed_labels"])
    whole_cold += coverage.pop("", [])
    for label in labels:
        failures[label] += whole_cold + coverage.get(label, [])
    ops_by_kernel: Dict[str, Dict[float, int]] = {}
    for label in labels:
        shard = results["shards"].get(label)
        if shard is None:
            failures[label].append(f"shard {label!r} is not in the store")
            continue
        failures[label] += checks.check_conservation(label, shard["counters"], shard["lut"], True)
        injected = sum(c["errors_injected"] for c in shard["counters"].values())
        failures[label] += checks.check_injection(label, injected, shard["ops"], shard["rate"])
        ops_by_kernel.setdefault(shard["kernel"], {})[shard["rate"]] = shard["ops"]
    for kernel in EXACT:
        message = checks.check_same_ops(kernel, ops_by_kernel.get(kernel, {}))
        for label in labels:
            if label.startswith(f"{kernel} "):
                failures[label] += message
    for side in ("warm", "service"):
        run = results[side]
        failures[side] += checks.check_warm(side, run["computed"], run["cached"], run["total"])
        failures[side] += checks.check_same_bytes(side, cold["text"], run["text"])
    if results["service"]["status"] != "complete":
        failures["service"].append(f"service job ended {results['service']['status']!r}")
    return failures


def check(ctx, state, rounds: List[Round]) -> Checked:
    checked = Checked()
    first_text = rounds[0].results["cold"]["text"]
    for index, round_ in enumerate(rounds):
        failures = check_round(state, round_.results)
        if round_.results["cold"]["text"] != first_text:
            failures["warm"].append(f"round {index}: merged result differs from round 0")
        for operation, messages in failures.items():
            checked.add(f"{index}:{operation}", messages)
    return checked


# ------------------------------------------------------------------ tracing
def install_spans(recorder, state) -> None:
    import repro.analysis.parallel as parallel
    import repro.campaign.runner as runner
    import repro.service.jobs as jobs
    from repro.campaign.store import ResultStore
    from repro.service import ServiceClient

    recorder.wrap(runner, "plan_campaign", "campaign.plan")
    recorder.wrap(jobs, "plan_campaign", "campaign.plan")
    recorder.wrap(runner, "merge_campaign", "campaign.merge")
    recorder.wrap(jobs, "merge_campaign", "campaign.merge")
    recorder.wrap(runner, "checkpoint_manifest", "campaign.checkpoint")
    recorder.wrap(jobs, "checkpoint_manifest", "campaign.checkpoint")
    recorder.wrap(runner, "run_sharded", "parallel.batch")
    recorder.wrap(parallel, "ProcessPoolExecutor", "parallel.pool")
    recorder.wrap(ResultStore, "put", "campaign.store_put")
    recorder.wrap(ResultStore, "get", "campaign.store_get")
    recorder.wrap(ServiceClient, "_request_bytes", "service.request")


def _round_layers(r: Round) -> Dict[str, float]:
    spans, results = r.spans, r.results
    cold = spans.named("bench.cold")[0]
    warm = spans.named("bench.warm")[0]
    service = spans.named("bench.service")[0]
    batches = spans.named("parallel.batch", within=cold)
    engines = results["engines"]
    batch_walls = [b["end"] - b["start"] for b in batches]
    shard_s = sum(sum(e["shard_walls"]) for e in engines)
    reads = [warm, service]
    return {
        "campaign.cold_s": cold["end"] - cold["start"],
        "campaign.warm_s": warm["end"] - warm["start"],
        "campaign.shard_s": shard_s,
        "campaign.plan_s": spans.total("campaign.plan"),
        "campaign.merge_s": spans.total("campaign.merge"),
        "campaign.store_put_s": spans.total("campaign.store_put", within=cold),
        "campaign.store_get_s": sum(spans.total("campaign.store_get", within=w) for w in reads),
        "campaign.checkpoint_s": spans.total("campaign.checkpoint"),
        "parallel.overhead_s": sum(
            wall - max(e["shard_walls"]) for wall, e in zip(batch_walls, engines)
        ),
        "parallel.worker_idle_s": sum(
            e["workers"] * wall for wall, e in zip(batch_walls, engines)
        ) - shard_s,
        "parallel.worker_cpu_s": sum(sum(e["shard_cpu"]) for e in engines),
        "service.start_s": spans.total("service.start"),
        "service.submit_to_result_s": spans.total("service.submit_to_result"),
        "telemetry.host_s": sum(e["telemetry_s"] for e in engines),
    }


def _telemetry_overhead(ctx, state) -> tuple:
    """(on/off wall ratio, off wall) of one EigenValue and one FWT shard
    run in-process with ``collect_telemetry`` on and off."""
    import dataclasses

    from repro.analysis.multirun import run_seed_shard

    shards = [
        task.shard
        for task in state["tasks"]
        if task.kernel in EXACT and task.error_rate == 0.02
    ]
    walls = {}
    for collect in (False, True):
        started = time.perf_counter()
        for shard in shards:
            run_seed_shard(dataclasses.replace(shard, collect_telemetry=collect))
        walls[collect] = time.perf_counter() - started
    return walls[True] / walls[False], walls[False]


def layer_metrics(ctx, state, traced: List[Round]) -> Dict[str, float]:
    per_round = [_round_layers(r) for r in traced]
    metrics = {name: median([p[name] for p in per_round]) for name in per_round[0]}
    last_spans, last = traced[-1].spans, traced[-1].results
    store = last["store_counters"]
    metrics["campaign.store_puts"] = store["cold"]["write"]
    metrics["campaign.store_gets"] = sum(
        store[side]["hit"] + store[side]["miss"] for side in ("warm", "service")
    )
    metrics["campaign.store_bytes"] = last["store_bytes"]
    metrics["campaign.checkpoints"] = last_spans.count("campaign.checkpoint")
    metrics["campaign.shards_computed"] = (
        last["cold"]["computed"] + last["warm"]["computed"] + last["service"]["computed"]
    )
    metrics["campaign.shards_cached"] = last["warm"]["cached"] + last["service"]["cached"]
    metrics["parallel.pools"] = last_spans.count("parallel.pool")
    metrics["service.requests"] = last_spans.count("service.request")
    ratio, base = _telemetry_overhead(ctx, state)
    metrics["telemetry.overhead_ratio"] = ratio
    metrics["telemetry.base_s"] = base
    shards = list(last["shards"].values())
    metrics.update(
        memo_metrics(
            {
                kernel: [u for shard in shards if shard["kernel"] == kernel for u in shard["lut"].values()]
                for kernel in KERNELS
            }
        )
    )
    metrics.update(timing_metrics(shards))
    return metrics
