"""Toy-size self-test of the benchmark harness.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository root.
The scenarios are tiny (32^2 images, about 100 time samples), so the whole
file takes seconds; it checks the harness, not the program's speed.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

TOY = {
    "model": {"kind": "nsw", "tau": 0.11, "tau_tilde": 0.1},
    "geometry": {"kind": "circle", "radius": 1.7, "count": 120},
    "phantom": {"kind": "shepp-logan"},
    "duration": 6.0,
    "forward_time_count": 120,
    "forward_sensor_count": 128,
    "inversion_time_count": 100,
    "image_size": 32,
    "quad_nodes": 1024,
    "forward_quad_nodes": 2048,
}


@pytest.fixture
def toy(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    good = tmp_path / "toy.json"
    good.write_text(json.dumps(TOY))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TOY, no_such_field=1)))
    return good, bad


def emitted(report, bench, trace):
    line = json.loads(run.result_line(report, bench, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    names = [m["name"] for m in bench["per_layer" if trace else "end_to_end"]]
    assert list(line["metrics"]) == names
    for entry in line["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and entry["unit"]
    return line


def check_spans(dump):
    spans = dump["spans"]
    assert spans
    for span in spans:
        assert span["end"] >= span["start"]
        assert span["self"] >= -1e-9
        if span["parent"] >= 0:
            parent = spans[span["parent"]]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert parent["scenario"] == span["scenario"]
    assert dump["unrestored"] == []


def test_bad_config_counts_as_failure_not_abort(toy):
    good, bad = toy
    workload = {"kind": "cold", "configs": [str(good), str(bad)]}
    report, bench = run.execute("toy-cold", workload, None, 1, 1.0, False)
    assert (report["attempted"], report["failed"]) == (2, 1)
    assert report["end_to_end"]["failed_frac"]["value"] == 0.5
    speed = report["host_speed"]
    assert speed["n"] == 3  # before simulate and reconstruct, and the bad config's simulate
    scenario = report["end_to_end"]["scenario_s"]
    assert scenario["value"] == pytest.approx(
        scenario["raw"] * speed["nominal_s"] / speed["reference_median_s"])
    assert not report["correct"]
    line = emitted(report, bench, False)
    assert line["failed"] == 1 and not line["correct"]


def test_traced_cold_run_emits_every_layer_metric(toy):
    good, _ = toy
    workload = {"kind": "cold", "configs": [str(good)], "single_thread": True}
    report, bench = run.execute("toy-cold", workload, None, 1, 1.0, True)
    assert report["failed"] == 0, report["problems"]
    line = emitted(report, bench, True)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["attenuation.r1_evals"] > 0
    assert metrics["wavefield.steps"] == TOY["forward_time_count"]
    assert metrics["experiments.forward_cache_hit_ratio"] == 0
    assert metrics["gridio.files_written"] > 0 and metrics["recon.ubp_calls"] == 3
    dumps = [d for r in report["records"] for d in r.get("dumps", [])]
    assert len(dumps) == 4  # simulate and reconstruct, default and single-threaded
    for dump in dumps:
        check_spans(dump)


def test_constant_law_runs_no_r1_quadrature(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    config = tmp_path / "constant.json"
    config.write_text(json.dumps(dict(TOY, model={"kind": "constant", "k_inf": 0.45})))
    workload = {"kind": "cold", "configs": [str(config)]}
    report, bench = run.execute("toy-constant", workload, None, 1, 1.0, True)
    assert report["failed"] == 0, report["problems"]
    metrics = {k: v["value"] for k, v in emitted(report, bench, True)["metrics"].items()}
    assert metrics["attenuation.r1_evals"] == 0  # M is diagonal under the constant law
    assert metrics["wavefield.steps"] > 0


def test_sweep_reuses_traces_and_counts_bad_points(toy):
    good, _ = toy
    workload = {"kind": "sweep", "configs": [str(good)]}
    points = [[0.0, 1], [0.2, 2], [-0.1, 3], [0.2, 4]]
    report, bench = run.execute("toy-sweep", workload, None, 1, 60.0, True, points)
    assert (report["attempted"], report["failed"]) == (4, 1)
    line = emitted(report, bench, True)
    metrics = {k: v["value"] for k, v in line["metrics"].items()}
    assert metrics["single_thread.scenario_s"] == 0  # the baseline runs on cold-nsw-circle only
    assert metrics["wavefield.steps"] == 0
    assert metrics["experiments.forward_cache_hit_ratio"] == 1
    assert metrics["attenuation.r1_evals"] > 0
    check_spans(report["records"][1]["dumps"][0])
    emitted(report, bench, False)


def test_sweep_points_follow_the_seed():
    assert run.sweep_points(3) == run.sweep_points(3)
    assert run.sweep_points(3) != run.sweep_points(4)
    first = run.sweep_points(3)[: len(run.SWEEP_LEVELS)]
    assert sorted(p[0] for p in first) == sorted(run.SWEEP_LEVELS)


def test_reference_mismatch_is_a_problem():
    ref = {"naive": 0.3, "full": 0.2}
    assert run.errors_match({"naive": 0.3, "full": 0.2001}, ref, 0.05) == []
    assert run.errors_match({"naive": 0.3, "full": 0.3}, ref, 0.05)
    assert run.errors_match({"naive": 0.3}, ref, 0.05)
    assert run.errors_match({"naive": float("nan"), "full": 0.2}, ref, 0.05)


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile(list(range(10))) is None
    p, value = run.high_percentile(list(range(20)))
    assert p == 50.0 and value == 9


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-nsw-circle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_working_set_is_computed_against_the_cache():
    sizes = {"r1": [[2**15, 500], [2**14, 443]]}
    text = run.working_set(sizes, 810, {"L2": "2048K", "L3": "307200K"})
    assert text["r_1 block 61x32768 complex128 and its exp temporary"] == "61.0 MiB"
    assert text["largest"].startswith("r_1 block")  # 2e6 complex values, twice
    assert "fits in the 300 MiB L3" in text["largest"]
    assert "exceeds the 2 MiB L2" in run.working_set(sizes, None, {"L2": "2048K"})["largest"]
