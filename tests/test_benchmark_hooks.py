"""The benchmark harness in ``perfbench/`` reaches into the program by name:
its tracer patches public functions and methods, and its set-up probe loads a
config and reads config fields.  These tests only read ``perfbench/``; they
fail when a change to the program removes or renames something the harness
uses, which would otherwise surface only as a failed benchmark run."""

import os
import subprocess
import sys
from pathlib import Path

import attenpat

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tr = tracer.Tracer()
    try:
        tracer.install(tr)
    finally:
        broken = tr.uninstall()  # also after a failed install, so no test sees a patch
    assert broken == []


def test_tracer_hooks_bind_the_arguments_they_count(monkeypatch):
    # the hooks read arguments by name, so a renamed parameter shows here, not at benchmark time
    import numpy as np

    from attenpat import attenuation, recon, wavefield
    from attenpat.models import NswModel

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    tr = tracer.Tracer()
    try:
        tracer.install(tr)  # patches module attributes: call through the modules
        sensors = wavefield.SensorArray.circle(1.7, 8)
        wave = wavefield.WaveData(np.zeros((20, 8)), wavefield.TimeGrid.from_duration(6.0, 20),
                                  sensors, "pressure")
        recon.ubp_2d(wave, recon.ImageGrid.centered(8, 1.0))
        attenuation.compute_r1(NswModel(0.11, 0.10), np.linspace(0.0, 1.0, 5), num_nodes=64)
        wavefield.SpectralPropagator(wavefield.disk_phantom(0.4, 1.0, 32),
                                     wavefield.SensorArray.circle(1.2, 8), 0.5, 0.05)
    finally:
        broken = tr.uninstall()
    assert broken == []
    counts = tr.counts[None]
    assert counts["recon.ubp_calls"] == 1 and counts["recon.pixel_sensor_pairs"] == 64 * 8
    assert counts["attenuation.r1_evals"] > 0
    assert counts["wavefield.grid_n"] > 0


def test_setup_probe_loads_the_benchmark_config():
    src = str(Path(attenpat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), str(ROOT / "configs" / "nsw_circle.json")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_noise_only_rerun_reads_as_the_sweep_expects(monkeypatch):
    # the sweep workload fills the forward cache, then traces noise-only points and requires
    # no propagation, a cache hit and r_1 quadrature (the inversion still builds its own M)
    import dataclasses

    from attenpat import experiments
    from attenpat.models import NswModel

    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import tracer

    base = experiments.ScenarioConfig(
        model=NswModel(0.11, 0.10), phantom={"kind": "disk"}, forward_time_count=60,
        forward_sensor_count=64, inversion_time_count=50, geometry={"kind": "circle", "count": 64},
        image_size=32)
    experiments.simulate_scenario(base)
    config = dataclasses.replace(base, noise_level=0.2, seed=3)
    tr = tracer.Tracer()
    try:
        tracer.install(tr)  # patches module attributes: call through the modules
        pa, phantom, runtimes = experiments.simulate_scenario(config)
        experiments.reconstruct_scenario(config, pa, phantom, runtimes)
    finally:
        broken = tr.uninstall()
    assert broken == []
    layers = tracer.merge_layers([tracer.layer_metrics(tr.dump(), None)])
    assert layers["experiments.propagations"] == 0
    assert layers["experiments.forward_calls"] == 1
    assert layers["attenuation.r1_evals"] > 0
    for metric, rule in run.EXPECT["sweep-nsw-circle"].items():
        value = layers[metric]
        assert value > 0 if rule == ">0" else value == float(rule[1:]), (metric, rule, value)
