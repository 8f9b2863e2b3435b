"""Tests of the benchmark itself, on smoke-sized workloads.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import speed  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)


@pytest.fixture(autouse=True)
def scratch_out(tmp_path, monkeypatch):
    run.ensure_package()
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))


def smoke_air():
    return run.LibraryWorkload("cfds", 8, 4)


def smoke_study():
    return run.StudyWorkload(("4x4x4", "8x8x4"))


def with_reference(workload):
    """The workload, checked against its own untraced fingerprint."""
    fp = run.repetition(workload, traced=False).fingerprint
    if isinstance(workload, run.StudyWorkload):
        workload.reference = {
            "newton_avg": fp["newton_avg"], "krylov_avg": fp["krylov_avg"],
            "finest_max_error": fp["max_error"][-1], "finest_rtol": 1e-3,
            "min_order": 0.0}
    else:
        workload.reference = fp
    return workload


@pytest.mark.parametrize("make", [smoke_air, smoke_study])
def test_traced_fingerprint_is_bit_identical(make):
    workload = with_reference(make())
    plain = run.repetition(workload, traced=False)
    traced = run.repetition(workload, traced=True)
    assert plain.problems == [] and traced.problems == []
    assert traced.fingerprint == plain.fingerprint   # plain ran under the meter
    assert plain.solve_s > 0 and traced.solve_s == traced.solve_wall_s
    calls = traced.tracer.calls
    for name in ("stepper.advance", "stepper.residual", "krylov.bicgstab_l",
                 "krylov.matvec", "cds.apply_full.matvec",
                 "cds.apply_full.fold", "model.reaction", "model.jacobian",
                 "stepper.build_scheme"):
        assert calls[name] > 0, name


def test_study_trace_sees_cli_layers():
    rep = run.repetition(with_reference(smoke_study()), traced=True)
    m = run.layer_metrics(rep.tracer, rep.solve_s)
    # 4x4x4 and 8x8x4 in space-time mode: 8 solves, of which 8x8x4 and
    # 8x8x8 are each made twice
    assert m["cli.integrate_calls"][0] == 8
    assert m["cli.distinct_solve_ratio"][0] == 6 / 8
    assert m["richardson.extrapolate_calls"][0] == 2
    assert m["model.forcing_calls"][0] > 0
    assert m["cli.field_dump_bytes"][0] > 0


@pytest.mark.parametrize("perturb", [
    lambda ref: ref.update(newton_per_step=ref["newton_per_step"] + 1e-12),
    lambda ref: ref.update(probe_centre=[v * (1 + 1e-6)
                                         for v in ref["probe_centre"]]),
])
def test_perturbed_result_counts_as_failure(perturb):
    workload = with_reference(smoke_air())
    workload.reference = json.loads(json.dumps(workload.reference))
    perturb(workload.reference)
    result = run.run(workload, "smoke", seed=1, seconds=0, trace=False)["result"]
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_raised_solver_error_counts_as_failure(monkeypatch):
    workload = with_reference(smoke_air())

    def breakdown(pkg, inputs, tracer):
        raise pkg.krylov.KrylovBreakdown("injected")

    monkeypatch.setattr(workload, "timed_call", breakdown)
    rep = run.repetition(workload, traced=False)
    assert rep.solve_s is None and "KrylovBreakdown" in rep.problems[0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_smoke_run_prints_every_named_metric(trace, section, monkeypatch,
                                             capsys):
    workloads = {"smoke": with_reference(smoke_study())}
    monkeypatch.setattr(run, "load_workloads", lambda: workloads)
    code = run.main(["--workload", "smoke", "--seed", "7", "--seconds", "0",
                     "--trace", str(trace)])
    assert code == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected


def test_speed_meter_scales_each_gap_by_its_bursts():
    ref = speed.REF_BURST_S
    meter = speed.SpeedMeter()
    # a 1-s gap between two bursts at half the reference speed, then a 1-s
    # gap between a half-speed and a full-speed burst
    meter.marks = [(0.0, 2 * ref), (1 + 2 * ref, 1 + 4 * ref),
                   (2 + 4 * ref, 2 + 5 * ref)]
    scaled, wall = meter.rescale(0.0, 3.0)
    assert wall == pytest.approx(2.0)
    assert scaled == pytest.approx(0.5 + 2 / 3)
    # clipped to the second half of the first gap
    scaled, wall = meter.rescale(0.5 + 2 * ref, 1.0 + 2 * ref)
    assert wall == pytest.approx(0.5) and scaled == pytest.approx(0.25)


def test_speed_meter_samples_during_the_body_and_cleans_up():
    meter = speed.SpeedMeter()
    before = signal.getsignal(signal.SIGALRM)
    with meter.sampling():
        time.sleep(3.5 * speed.PERIOD_S)
    assert len(meter.marks) >= 4   # before, at least two during, after
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "air-cfds-32",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
