import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import attenpat
from attenpat.cli import main
from attenpat.gridio import read_grid, save_wave, write_grid
from attenpat.wavefield import SensorArray, TimeGrid, WaveData

SMALL_SCENARIO = {
    "model": {"kind": "nsw", "tau": 0.11, "tau_tilde": 0.1},
    "geometry": {"kind": "circle", "radius": 1.7, "count": 128},
    "phantom": {"kind": "disk", "radius": 0.4, "intensity": 1.0},
    "forward_time_count": 160,
    "forward_sensor_count": 160,
    "inversion_time_count": 141,
    "image_size": 32,
}


def _write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestValidateModelCommand:
    def test_constant_report(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": {"kind": "constant", "k_inf": 0.45}})
        assert main(["validate-model", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "classification: weak" in out
        assert "derivative_bound_min: 1.45" in out

    def test_power_law_strong(self, tmp_path, capsys):
        cfg = _write_config(
            tmp_path, {"model": {"kind": "power-law", "amplitude": 0.005, "exponent": 2.0}}
        )
        assert main(["validate-model", "--config", cfg]) == 0
        assert "classification: strong" in capsys.readouterr().out

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["validate-model"]) == 1

    def test_malformed_config_names_field(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": {"kind": "nsw"}})
        assert main(["validate-model", "--config", cfg]) == 1
        assert "model.tau" in capsys.readouterr().err

    def test_non_mapping_config_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, [1, 2])
        assert main(["validate-model", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: config: expected a mapping")


class TestCompareCommand:
    def test_identical_images_zero_error(self, tmp_path, capsys):
        a = tmp_path / "a.atw"
        write_grid(a, np.ones((8, 8)), kind="image")
        assert main(["compare", str(a), str(a)]) == 0
        out = capsys.readouterr().out
        assert "rel_l2_error = 0" in out

    def test_shape_mismatch_is_usage_error(self, tmp_path, capsys):
        a = tmp_path / "a.atw"
        b = tmp_path / "b.atw"
        write_grid(a, np.ones((8, 8)), kind="image")
        write_grid(b, np.ones((4, 4)), kind="image")
        assert main(["compare", str(a), str(b)]) == 1

    @pytest.mark.parametrize("spacing, origin, differs", [
        ((0.5, 0.5), (3.0, 3.0), "spacing"),
        ((0.1, 0.1), (3.0, 3.0), "origin"),
    ])
    def test_grid_mismatch_is_usage_error(self, tmp_path, capsys, spacing, origin, differs):
        # equal shapes, but the images sample different points, as rel_l2_error refuses
        a = tmp_path / "a.atw"
        b = tmp_path / "b.atw"
        write_grid(a, np.ones((4, 4)), kind="image", spacing=(0.1, 0.1), origin=(0.0, 0.0))
        write_grid(b, np.full((4, 4), 0.5), kind="image", spacing=spacing, origin=origin)
        assert main(["compare", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert "rel_l2_error" not in captured.out
        assert f"{a} and {b} lie on different grids: {differs}" in captured.err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        assert main(["validate-model", "--frobnicate"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run-scenario", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["run-scenario", "--config", str(path)]) == 1
        assert "JSON" in capsys.readouterr().err


class TestExitCodeMapping:
    def test_numerical_errors_map_to_two(self):
        from attenpat.attenuation import ConditioningError
        from attenpat.cli import _is_numerical
        from attenpat.experiments import ScenarioStageError

        cause = ConditioningError("singular", condition=1e18)
        wrapped = ScenarioStageError("reconstruct-full", cause)
        wrapped.__cause__ = cause
        assert _is_numerical(wrapped)
        assert not _is_numerical(ScenarioStageError("phantom", ValueError("bad")))


class TestPipelineCommands:
    def test_simulate_then_reconstruct(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        sim_dir = tmp_path / "sim"
        assert main(["simulate", "--config", cfg, "--out", str(sim_dir)]) == 0
        data = sim_dir / "data_forward.atw"
        assert data.exists()
        files = (data, Path(f"{data}.json"))
        written = [(f.read_bytes(), f.stat().st_mtime_ns) for f in files]
        rec_dir = tmp_path / "rec"
        assert main(
            ["reconstruct", "--config", cfg, "--data", str(data), "--out", str(rec_dir)]
        ) == 0
        metrics = json.loads((rec_dir / "metrics.json").read_text())
        assert set(metrics["errors"]) == {"naive", "compensated", "full"}
        assert set(metrics["diagnostics"]) == {"taylor_order", "condition"}
        assert 1.0 < metrics["diagnostics"]["condition"] < np.inf
        assert metrics["diagnostics"]["taylor_order"] == 20
        assert not (rec_dir / "data_forward.atw").exists()  # no copy of the input
        # reconstructing into the data's own directory leaves the input untouched
        assert main(
            ["reconstruct", "--config", cfg, "--data", str(data), "--out", str(sim_dir)]
        ) == 0
        assert [(f.read_bytes(), f.stat().st_mtime_ns) for f in files] == written

    def test_reconstruct_missing_data_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        data = tmp_path / "absent.atw"
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--data", str(data), "--out", str(out)]) == 1
        assert f"data file not found: {data}" in capsys.readouterr().err
        assert not out.exists()

    def test_run_scenario_artifacts(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "out"
        assert main(["run-scenario", "--config", cfg, "--out", str(out)]) == 0
        for name in (
            "truth.atw", "truth.pgm", "recon_naive.atw", "recon_compensated.atw",
            "recon_full.atw", "recon_naive.pgm", "cross_sections.csv",
            "metrics.json", "data_forward.atw", "data_inversion.atw",
            "scenario_config.json",
        ):
            assert (out / name).exists(), name
        sections = out / "cross_sections.csv"
        with open(sections, encoding="ascii") as fh:
            assert fh.readline().strip().split(",") == ["x", "truth", "naive", "compensated",
                                                        "full"]
        assert np.loadtxt(sections, delimiter=",", skiprows=1).shape == (32, 5)
        img = read_grid(out / "recon_full.atw")
        assert img.values.shape == (32, 32)
        stdout = capsys.readouterr().out
        assert "full: rel_l2_error" in stdout

    def test_outdir_env_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ATTENPAT_OUTDIR", str(tmp_path / "envout"))
        cfg = _write_config(tmp_path, {"model": {"kind": "constant", "k_inf": 0.45},
                                       **{k: v for k, v in SMALL_SCENARIO.items() if k != "model"}})
        assert main(["simulate", "--config", cfg]) == 0
        assert (tmp_path / "envout" / "data_forward.atw").exists()

    def test_threads_flag_is_usage_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "threads"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--threads", "4"]) == 1
        assert "--threads" in capsys.readouterr().err
        assert not (out / "data_forward.atw").exists()

    def test_compare_takes_no_config_or_seed(self, tmp_path, capsys):
        a = tmp_path / "a.atw"
        write_grid(a, np.ones((8, 8)), kind="image")
        assert main(["compare", str(a), str(a), "--config", str(tmp_path / "none.json")]) == 1
        assert "--config" in capsys.readouterr().err
        assert main(["compare", str(a), str(a), "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_validate_model_takes_no_seed(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, {"model": {"kind": "constant", "k_inf": 0.45}})
        assert main(["validate-model", "--config", cfg, "--seed", "3"]) == 1
        assert "--seed" in capsys.readouterr().err

    def test_scalar_noise_section_is_config_error(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, dict(SMALL_SCENARIO, noise=0.2))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "noise: expected a mapping" in capsys.readouterr().err

    def test_negative_seed_fails_before_simulating(self, tmp_path, capsys):
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "neg"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 1
        assert capsys.readouterr().err.startswith("error: noise.seed: must be >= 0")
        assert not (out / "data_forward.atw").exists()

    def test_bad_wave_sidecar_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.atw"
        save_wave(data, WaveData(np.zeros((141, 128)), TimeGrid.from_duration(6.0, 141),
                                 SensorArray.circle(1.7, 128), kind="attenuated"))
        sidecar = tmp_path / "data.atw.json"
        meta = json.loads(sidecar.read_text())
        meta["geometry"]["count"] = 128.9
        sidecar.write_text(json.dumps(meta))
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--data", str(data), "--out", str(out)]) == 1
        assert "geometry.count: expected an integer, got 128.9" in capsys.readouterr().err
        assert not (out / "metrics.json").exists()

    def test_unknown_wave_sidecar_geometry_key_is_config_error(self, tmp_path, capsys):
        data = tmp_path / "data.atw"
        save_wave(data, WaveData(np.zeros((141, 128)), TimeGrid.from_duration(6.0, 141),
                                 SensorArray.circle(1.7, 128), kind="attenuated"))
        sidecar = tmp_path / "data.atw.json"
        meta = json.loads(sidecar.read_text())
        meta["geometry"]["standoff"] = 1.7
        sidecar.write_text(json.dumps(meta))
        cfg = _write_config(tmp_path, SMALL_SCENARIO)
        out = tmp_path / "rec"
        assert main(["reconstruct", "--config", cfg, "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "data.atw.json: geometry.standoff: unknown field for kind 'circle'" in err
        assert not (out / "metrics.json").exists()

    def test_grid_over_cap_names_the_config_keys(self, tmp_path, capsys):
        # a 600-pixel image on the default circle asks for dx = 2/600, finer than
        # the 2048-point propagator grid allows: refused before any step, not coarsened
        cfg = _write_config(tmp_path, {"image_size": 600})
        out = tmp_path / "cap"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "'forward-propagation' failed" in err and "exceeds the 2048x2048 cap" in err
        assert "dx 0.00333333 is too fine" in err
        assert "forward_time_count (0.012)" in err
        assert "image_size" in err and "phantom.grid_size" in err
        assert "np.float64" not in err and "target_dx" not in err
        assert not (out / "data_forward.atw").exists()

    def test_seed_override(self, tmp_path):
        payload = dict(SMALL_SCENARIO)
        payload["noise"] = {"level": 0.2, "seed": 1}
        cfg = _write_config(tmp_path, payload)
        out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
        assert main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "9"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out3), "--seed", "10"]) == 0
        a = read_grid(out1 / "data_forward.atw").values
        b = read_grid(out2 / "data_forward.atw").values
        c = read_grid(out3 / "data_forward.atw").values
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# Which scipy modules a fresh interpreter holds after each step: the CLI
# import and both halves of a scenario run on numpy alone.
IMPORT_PROBE = """
import json, sys
import attenpat.cli
from attenpat.experiments import ScenarioConfig, reconstruct_scenario, simulate_scenario
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
loaded = {"import": scipy_modules()}
cfg = ScenarioConfig.from_dict(json.loads(sys.argv[1]))
pa, phantom, _ = simulate_scenario(cfg)
loaded["simulate"] = bool(scipy_modules())
reconstruct_scenario(cfg, pa, phantom)
loaded["reconstruct"] = bool(scipy_modules())
print(json.dumps(loaded))
"""


def test_pipeline_loads_no_scipy():
    src = str(Path(attenpat.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(SMALL_SCENARIO)],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == {"import": [], "simulate": False, "reconstruct": False}
