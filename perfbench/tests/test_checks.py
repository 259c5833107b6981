"""Each benchmark check accepts the program's real output and rejects a
wrong one.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import copy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import checks
from measure import unit_counts
from run import Context
from spans import SpanRecorder
from workloads import campaign_grid, cli_run, table1_vector

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------ kernel outputs
@pytest.fixture(scope="module")
def sobel_entry():
    """A real Sobel pair on a 16x16 image, vector backend, 2% errors."""
    from repro.config import MemoConfig, SimConfig, TimingConfig, small_arch
    from repro.gpu.executor import GpuExecutor
    from repro.images.synth import synth_face
    from repro.kernels.sobel import SobelWorkload

    workload = SobelWorkload(synth_face(16))
    config = SimConfig(
        arch=small_arch(),
        memo=MemoConfig(threshold=1.0),
        timing=TimingConfig(error_rate=0.02, seed=3),
        backend="vector",
    )
    entry = {}
    for side, memoized in (("memo", True), ("base", False)):
        executor = GpuExecutor(config, memoized=memoized)
        output = workload.run(executor)
        device = executor.device
        entry[side] = dict(
            unit_counts(device.counters(), device.lut_stats(), device.ecu_stats()),
            output=np.asarray(output),
            ops=device.executed_ops,
        )
    reference = checks.sobel_reference(workload.image)
    return entry, reference, workload.golden(64)


def _pair_failures(entry, reference, golden):
    return table1_vector.check_pair(
        "Sobel", entry, reference, table1_vector.IMAGE_TOLERANCE, golden
    )


def test_real_sobel_pair_passes(sobel_entry):
    assert _pair_failures(*sobel_entry) == []


def test_perturbed_output_pixel_is_rejected(sobel_entry):
    entry, reference, golden = sobel_entry
    bad = copy.deepcopy(entry)
    bad["base"]["output"][5, 7] += 3.0
    failures = _pair_failures(bad, reference, golden)
    assert any("element 87" in f for f in failures)
    assert any("unmemoized and golden outputs differ (1 elements)" in f for f in failures)


def test_memoized_image_below_30db_is_rejected(sobel_entry):
    entry, reference, golden = sobel_entry
    bad = copy.deepcopy(entry)
    bad["memo"]["output"] = np.zeros_like(bad["memo"]["output"])
    assert any("PSNR" in f for f in _pair_failures(bad, reference, golden))


def test_references_match_the_golden_outputs():
    from repro.kernels.registry import KERNEL_REGISTRY

    for name, spec in KERNEL_REGISTRY.items():
        if name in ("Sobel", "Gaussian", "EigenValue"):
            continue  # the slower ones are covered by the benchmark itself
        workload = spec.default_factory()
        reference, tolerance = table1_vector._reference(name, workload)
        assert checks.check_close(name, workload.golden(64), reference, tolerance) == []


def test_exact_kernel_memoized_output_must_equal_unmemoized():
    out = np.arange(8, dtype=np.float32)
    other = out.copy()
    other[3] = np.nextafter(other[3], np.float32(10))
    assert checks.check_identical("FWT", out, out.copy(), "outputs") == []
    assert checks.check_identical("FWT", out, other, "outputs") != []


# -------------------------------------------------------- method properties
def _counts(**overrides):
    counters = {"ADD": {"ops": 100, "errors_injected": 5, "errors_masked": 2, "errors_recovered": 3}}
    lut = {"ADD": {"lookups": 100, "hits": 40}}
    counters["ADD"].update(overrides)
    return counters, lut


def test_conservation_accepts_consistent_counts():
    assert checks.check_conservation("k", *_counts(), memoized=True) == []


def test_counts_that_break_conservation_are_rejected():
    assert checks.check_conservation("k", *_counts(errors_recovered=4), memoized=True)
    counters, lut = _counts()
    lut["ADD"]["hits"] = 101
    assert checks.check_conservation("k", counters, lut, memoized=True)
    counters, lut = _counts()
    lut["ADD"]["lookups"] = 99
    assert checks.check_conservation("k", counters, lut, memoized=True)
    assert checks.check_conservation("k", *_counts(), memoized=False)


def test_injection_outside_five_sigma_is_rejected():
    assert checks.check_injection("k", 200, 10_000, 0.02) == []
    assert checks.check_injection("k", 300, 10_000, 0.02)
    assert checks.check_injection("k", 1, 10_000, 0.0)
    assert checks.check_injection("k", 0, 10_000, 0.0) == []


def test_exact_kernel_op_count_must_not_vary_across_cells():
    assert checks.check_same_ops("FWT", {0.0: 10, 0.02: 10}) == []
    assert checks.check_same_ops("FWT", {0.0: 10, 0.02: 11})


# ---------------------------------------------------------------- campaigns
@pytest.fixture(scope="module")
def grid_round():
    """One real round of a small grid: cold with 2 workers, warm, service."""
    from repro.campaign.spec import CampaignSpec

    with tempfile.TemporaryDirectory() as tmp:
        spec = CampaignSpec(
            name="test-grid", kernels=("FWT", "Haar"), error_rates=(0.0, 0.02),
            seeds=(1,), collect_telemetry=True,
        )
        state = {"spec": spec, "tasks": spec.tasks(), "document": spec.to_dict()}
        ctx = Context(seed=1, tmp=tmp)
        yield state, campaign_grid.run_round(ctx, state).results


def _failed(state, results):
    return {op for op, msgs in campaign_grid.check_round(state, results).items() if msgs}


def test_real_grid_round_passes(grid_round):
    assert _failed(*grid_round) == set()


def test_dropped_shard_is_rejected(grid_round):
    state, results = grid_round
    bad = copy.deepcopy(results)
    dropped = bad["computed_labels"].pop(1)
    assert _failed(state, bad) == {dropped}


def test_duplicated_shard_is_rejected(grid_round):
    state, results = grid_round
    bad = copy.deepcopy(results)
    bad["computed_labels"].append(bad["computed_labels"][0])
    assert _failed(state, bad) == {bad["computed_labels"][0]}


def test_shard_counts_breaking_conservation_are_rejected(grid_round):
    state, results = grid_round
    bad = copy.deepcopy(results)
    label = "Haar rate=0.02 seed=1"
    kind = next(iter(bad["shards"][label]["counters"]))
    bad["shards"][label]["counters"][kind]["errors_masked"] += 1
    assert _failed(state, bad) == {label}


def test_warm_result_that_differs_is_rejected(grid_round):
    state, results = grid_round
    bad = copy.deepcopy(results)
    bad["service"]["text"] += " "
    bad["warm"]["computed"] = 1
    assert _failed(state, bad) == {"warm", "service"}


def test_store_left_warm_by_an_earlier_run_is_rejected():
    from repro.campaign.runner import run_campaign
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore

    spec = CampaignSpec(name="warm-test", kernels=("Haar",), error_rates=(0.0,), seeds=(1,))
    with tempfile.TemporaryDirectory() as root:
        first = run_campaign(spec, ResultStore(root))
        assert checks.check_cold_start(first.cached, first.computed, first.total) == []
        again = run_campaign(spec, ResultStore(root))
        assert checks.check_cold_start(again.cached, again.computed, again.total)


# ----------------------------------------------------------------------- CLI
@pytest.fixture(scope="module")
def haar_invocation():
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    done = subprocess.run(
        cli_run._run_argv("Haar", profile=True), env=env, cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    return {"code": done.returncode, "stdout": done.stdout, "stderr": done.stderr}


def test_real_cli_invocation_passes(haar_invocation):
    assert cli_run.check_invocation("Haar", haar_invocation) == []
    report = cli_run.parse(haar_invocation["stdout"])
    assert report["ops"] == 1020 and report["energy_pj"] > 0
    assert set(report["phases"]) >= {"fpu.execute", "fpu.lut_lookup", "host.dispatch"}


def test_cli_hits_above_lookups_are_rejected(haar_invocation):
    bad = dict(haar_invocation)
    bad["stdout"] = bad["stdout"].replace("(93/510)", "(593/510)")
    assert bad["stdout"] != haar_invocation["stdout"]
    assert cli_run.check_invocation("Haar", bad)


def test_cli_failed_validation_or_exit_code_is_rejected(haar_invocation):
    bad = dict(haar_invocation, stdout=haar_invocation["stdout"].replace("Passed", "FAILED"))
    assert cli_run.check_invocation("Haar", bad)
    assert cli_run.check_invocation("Haar", dict(haar_invocation, code=1))


# --------------------------------------------------------------------- spans
def test_self_time_subtracts_children_and_wrappers_are_restored():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    original = Layer.outer
    recorder = SpanRecorder("test")
    with recorder:
        recorder.wrap(Layer, "outer", "outer")
        recorder.wrap(Layer, "inner", "inner")
        assert Layer().outer() == 2
    assert Layer.outer is original
    (outer,), (inner,) = recorder.named("outer"), recorder.named("inner")
    assert inner["parent"] == outer["id"] and inner["run"] == "test"
    expected = (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    assert recorder.self_time("outer") == pytest.approx(expected)


def test_benchmark_refuses_to_run_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    done = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "cli-run", "--seed", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
