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


def test_setup_probe_loads_the_benchmark_config():
    src = str(Path(attenpat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "probe.py"), str(ROOT / "configs" / "nsw_circle.json")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
