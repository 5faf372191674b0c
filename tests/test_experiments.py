import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

from attenpat.experiments import (
    ConfigError,
    ScenarioConfig,
    add_noise,
    cross_section,
    reconstruct_scenario,
    rel_l2_error,
    resample_data,
    run_scenario,
    simulate_scenario,
)
from attenpat.models import ConstantModel, NswModel
from attenpat.recon import ImageGrid, ReconImage
from attenpat.wavefield import SensorArray, TimeGrid, WaveData, make_shepp_logan


def _wave(values, tg, sensors, kind="attenuated"):
    return WaveData(values, tg, sensors, kind=kind)


SMALL = dict(
    phantom={"kind": "disk", "radius": 0.4, "intensity": 1.0},
    forward_time_count=180,
    forward_sensor_count=256,
    inversion_time_count=160,
    geometry={"kind": "circle", "count": 212},
    image_size=48,
)


class TestAddNoise:
    tg = TimeGrid.from_duration(6.0, 443)
    sensors = SensorArray.circle(1.7, 849)

    def test_zero_level_identity(self):
        rng = np.random.default_rng(0)
        w = _wave(rng.standard_normal((443, 849)), self.tg, self.sensors)
        out = add_noise(w, 0.0, seed=5)
        assert np.array_equal(out.values, w.values)

    def test_std_matches_level(self):
        rng = np.random.default_rng(1)
        clean = _wave(rng.standard_normal((443, 849)), self.tg, self.sensors)
        noisy = add_noise(clean, 0.2, seed=7)
        target = 0.2 * np.abs(clean.values).max()
        measured = np.std(noisy.values - clean.values)
        assert measured == pytest.approx(target, rel=0.02)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        w = _wave(rng.standard_normal((100, 50)), TimeGrid.from_duration(1.0, 100),
                  SensorArray.circle(1.7, 50))
        a = add_noise(w, 0.2, seed=42)
        b = add_noise(w, 0.2, seed=42)
        c = add_noise(w, 0.2, seed=43)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_negative_level_rejected(self):
        w = _wave(np.zeros((10, 4)), TimeGrid.from_duration(1.0, 10), SensorArray.circle(1.7, 4))
        with pytest.raises(ValueError):
            add_noise(w, -0.1, seed=0)


class TestResample:
    def test_identity_grids(self):
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.circle(1.7, 64)
        rng = np.random.default_rng(3)
        w = _wave(rng.standard_normal((100, 64)), tg, sensors)
        out = resample_data(w, tg, sensors)
        assert np.allclose(out.values, w.values, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda n: SensorArray.circle(1.7, n),
                                      lambda n: SensorArray.line(10.2, 1.7, n)],
                             ids=["circle", "line"])
    def test_own_grids_bitwise_identity(self, make):
        # reconstruct_scenario resamples even when the inversion grids equal the
        # forward ones, so resampling onto the source's own grids must be exact
        tg = TimeGrid.from_duration(6.0, 443)
        w = _wave(np.random.default_rng(5).standard_normal((443, 849)), tg, make(849))
        out = resample_data(w, TimeGrid.from_duration(6.0, 443), make(849))
        assert np.array_equal(out.values, w.values)

    def test_constant_data_preserved(self):
        w = _wave(np.full((100, 64), 2.5), TimeGrid.from_duration(6.0, 100),
                  SensorArray.circle(1.7, 64))
        out = resample_data(w, TimeGrid.from_duration(6.0, 89), SensorArray.circle(1.7, 53))
        assert np.allclose(out.values, 2.5, atol=1e-12)

    def test_linear_in_time_exact(self):
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.line(10.2, 1.7, 64)
        vals = (3.0 * tg.times - 1.0)[:, None] * np.ones((1, 64))
        w = _wave(vals, tg, sensors)
        target_tg = TimeGrid.from_duration(6.0, 89)
        out = resample_data(w, target_tg, SensorArray.line(10.2, 1.7, 64))
        expect = (3.0 * target_tg.times - 1.0)[:, None]
        assert np.allclose(out.values, expect, atol=1e-12)

    def test_circle_wraps_periodically(self):
        tg = TimeGrid.from_duration(1.0, 10)
        src = SensorArray.circle(1.7, 96)
        ang = src.arc_parameter()
        vals = np.tile(np.cos(ang), (10, 1))
        w = _wave(vals, tg, src)
        dst = SensorArray.circle(1.7, 49)
        out = resample_data(w, tg, dst)
        expect = np.cos(dst.arc_parameter())
        assert np.max(np.abs(out.values - expect)) <= 2e-3  # linear-interp error only

    def test_refining_rejected(self):
        # a finer grid's first sample precedes the source's, yet the finer grid is the fault
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.circle(1.7, 64)
        w = _wave(np.zeros((100, 64)), tg, sensors)
        with pytest.raises(ValueError, match="target time grid is finer than the source"):
            resample_data(w, TimeGrid.from_duration(6.0, 150), sensors)
        with pytest.raises(ValueError, match="target sensor array is finer than the source"):
            resample_data(w, tg, SensorArray.circle(1.7, 96))

    def test_time_extrapolation_rejected(self):
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.circle(1.7, 64)
        w = _wave(np.zeros((100, 64)), tg, sensors)
        with pytest.raises(ValueError, match="extrapolate"):
            resample_data(w, TimeGrid.from_duration(7.0, 90), sensors)

    def test_geometry_mismatch_rejected(self):
        tg = TimeGrid.from_duration(6.0, 100)
        w = _wave(np.zeros((100, 64)), tg, SensorArray.circle(1.7, 64))
        with pytest.raises(ValueError, match="mismatch"):
            resample_data(w, tg, SensorArray.line(10.2, 1.7, 32))
        with pytest.raises(ValueError, match="radius"):
            resample_data(w, tg, SensorArray.circle(1.5, 32))


class TestMetrics:
    grid = ImageGrid.centered(32, 1.0)

    def _img(self, values, method="naive-ubp"):
        return ReconImage(values, self.grid, method)

    def test_identical_images(self):
        truth = self._img(np.random.default_rng(0).standard_normal((32, 32)))
        assert rel_l2_error(truth, truth) == 0.0

    def test_double_image(self):
        truth = self._img(np.ones((32, 32)))
        assert rel_l2_error(self._img(2 * np.ones((32, 32))), truth) == pytest.approx(1.0)

    def test_zero_image(self):
        truth = self._img(np.ones((32, 32)))
        assert rel_l2_error(self._img(np.zeros((32, 32))), truth) == pytest.approx(1.0)

    def test_zero_truth_rejected(self):
        truth = self._img(np.zeros((32, 32)))
        with pytest.raises(ValueError):
            rel_l2_error(self._img(np.ones((32, 32))), truth)

    def test_cross_section_constant(self):
        xs, vals = cross_section(self._img(np.full((32, 32), 3.0)), y=0.0)
        assert np.all(vals == 3.0)
        assert xs.shape == (32,)

    def test_cross_section_palindromic_for_symmetric_image(self):
        axes = self.grid.axes()
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        img = self._img(np.exp(-(X**2 + Y**2)))
        _, vals = cross_section(img, y=0.0)
        assert np.allclose(vals, vals[::-1])

    def test_cross_section_matches_phantom_row(self):
        ph = make_shepp_logan(128, 1.0)
        grid = ImageGrid.centered(128, 1.0)
        img = ReconImage(ph.values, grid, "ground-truth")
        _, vals = cross_section(img, y=0.0)
        j = int(round((0.0 - grid.origin[1]) / grid.spacing))
        assert np.array_equal(vals, ph.values[:, j])
        assert vals.max() >= 1.0  # crosses the interior plateau

    def test_cross_section_out_of_range(self):
        with pytest.raises(ValueError):
            cross_section(self._img(np.ones((32, 32))), y=5.0)


class TestScenarioConfig:
    def test_defaults_follow_geometry(self):
        assert ScenarioConfig(geometry={"kind": "circle"}).duration == 6.0
        assert ScenarioConfig(geometry={"kind": "line"}).duration == 8.0

    def test_from_dict_round_trip(self):
        cfg = ScenarioConfig(model=NswModel(0.11, 0.10), noise_level=0.2, seed=9,
                             **dict(SMALL, geometry={"kind": "line", "count": 212}))
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again.model == cfg.model
        assert again.geometry == {"kind": "line", "length": 10.2, "standoff": 1.7, "count": 212}
        assert again.noise_level == 0.2
        assert again.seed == 9
        assert again.geometry["count"] == cfg.geometry["count"]
        # every key set, each to a value other than its default
        raw = {
            "model": {"kind": "tabulated", "omega": [-50.0, 0.0, 50.0],
                      "kstar_real": [0.2, 0.0, 0.2], "kstar_imag": [-0.1, 0.0, 0.1],
                      "k_inf": 0.3},
            "geometry": {"kind": "line", "length": 9.0, "standoff": 1.6, "count": 300},
            "duration": 7.0,
            "forward_time_count": 400,
            "forward_sensor_count": 320,
            "inversion_time_count": 350,
            "image_size": 64,
            "image_half_extent": 0.9,
            "phantom": {"kind": "ellipses", "grid_size": 48, "half_extent": 0.95, "items": [
                {"intensity": 1.0, "center": [0.1, -0.2], "axes": [0.3, 0.2], "angle_deg": 15.0},
                {"intensity": -0.5, "center": [0.0, 0.0], "axes": [0.1, 0.1], "angle_deg": 0.0},
            ]},
            "noise": {"level": 0.05, "seed": 17},
            "omega_max": 150.0,
            "quad_nodes": 4096,
            "forward_quad_nodes": 8192,
            "regularization": 1e-3,
        }
        cfg = ScenarioConfig.from_dict(raw)
        assert cfg.regularization == 1e-3
        assert json.loads(json.dumps(cfg.to_dict())) == raw
        assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
        # the circle's own key, which a line rejects
        circle = {"kind": "circle", "radius": 1.5, "count": 300}
        cfg = ScenarioConfig.from_dict({"geometry": circle})
        assert cfg.to_dict()["geometry"] == circle

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            ScenarioConfig.from_dict({"frobnicate": 1})
        for deleted in ("target_dx", "taylor_order", "forward_taylor_order"):
            with pytest.raises(ConfigError, match=f"^{deleted}: unknown config field"):
                ScenarioConfig.from_dict({deleted: 10})

    def test_bad_model_named(self):
        with pytest.raises(ConfigError, match="model.kind"):
            ScenarioConfig.from_dict({"model": {"kind": "nope"}})

    @pytest.mark.parametrize(
        "reg, field",
        [
            ({"kind": "tikhonov", "lam": 0}, "regularization.lam"),
            ({"kind": "tikhonov", "lam": -1e-3}, "regularization.lam"),
            ({"kind": "tikhonov"}, "regularization.lam"),
            ({"kind": "tikhonov", "lam": "small"}, "regularization.lam"),
            (0.0, "regularization.lam"),
            ({"kind": "ridge", "lam": 1e-3}, "regularization.kind"),
            ({"lam": 1e-3}, "regularization.kind"),
        ],
    )
    def test_bad_regularization_named(self, reg, field):
        with pytest.raises(ConfigError, match=field):
            ScenarioConfig.from_dict({"regularization": reg})

    def test_regularization_accepted_and_round_trips(self):
        cfg = ScenarioConfig.from_dict({"regularization": {"kind": "tikhonov", "lam": 1e-3}})
        assert cfg.regularization == 1e-3
        assert ScenarioConfig.from_dict(cfg.to_dict()).regularization == 1e-3
        assert ScenarioConfig.from_dict({"regularization": "none"}).regularization is None

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"noise": 0.2}, "noise"),
            ({"noise": {"levle": 0.2}}, "noise.levle"),
            ({"noise": {"level": "loud"}}, "noise.level"),
            ({"geometry": "circle"}, "geometry"),
            ({"geometry": {"kind": "circle", "radus": 2.0}}, "geometry.radus"),
            ({"geometry": {"kind": "circle", "radius": None}}, "geometry.radius"),
            ({"phantom": {"kind": "disk", "radus": 0.1}}, "phantom.radus"),
            ({"phantom": {"grid_sise": 64}}, "phantom.grid_sise"),
            ({"phantom": {"kind": "shepp-logan", "radius": 0.3}}, "phantom.radius"),
            ({"phantom": {"kind": "ellipses", "items": [], "intensity": 1.0}}, "phantom.intensity"),
            ({"phantom": {"kind": "star"}}, "phantom.kind"),
            ({"model": {"kind": "nsw", "tau": 0.11, "tau_tilde": 0.1, "tauu": 3}}, "model.tauu"),
            ({"model": {"kind": "constant", "k_inf": 0.45, "tau": 0.1}}, "model.tau"),
            ({"duration": True}, "duration"),
            ({"geometry": {"kind": "circle", "radius": "2.0"}}, "geometry.radius"),
            ({"omega_max": float("nan")}, "omega_max"),
            ({"noise": {"level": float("inf")}}, "noise.level"),
            ({"duration": 0}, "duration"),
            ({"omega_max": -200.0}, "omega_max"),
            ({"target_dx": 0.01}, "target_dx"),  # a deleted field is unknown
            ({"image_half_extent": -1.0}, "image_half_extent"),
            ({"geometry": {"kind": "line", "length": 0}}, "geometry.length"),
            ({"geometry": {"kind": "line", "standoff": -1.7}}, "geometry.standoff"),
            ({"phantom": {"kind": "disk", "radius": 0.0}}, "phantom.radius"),
            ({"phantom": {"kind": "ellipses", "items": {"intensity": 1.0}}}, "phantom.items"),
            ({"phantom": {"kind": "ellipses", "items": [{"intensity": 1.0}]}}, "phantom.items"),
            ({"phantom": {"kind": "ellipses", "items": [
                {"intensity": 1.0, "center": [0.0, 0.0], "axes": [0.2]}]}}, "phantom.items"),
            ({"regularization": {"kind": "tikhonov", "lam": 1e-3, "lamda": 1e-3}},
             "regularization.lamda"),
            ({"model": {"kind": "constant", "k_inf": "0.45"}}, "model.k_inf"),
            ({"model": {"kind": "nsw", "tau": True, "tau_tilde": 0.1}}, "model.tau"),
            ({"model": {"kind": "nsw", "tau": 0.11, "tau_tilde": float("nan")}},
             "model.tau_tilde"),
            ({"model": {"kind": "power-law", "amplitude": 1.0, "exponent": float("inf")}},
             "model.exponent"),
            ({"model": {"kind": "tabulated", "omega": [-50.0, 0.0, 50.0],
                        "kstar_real": [0.0, 0.0, 0.0], "kstar_imag": [0.0, 0.0, 0.0],
                        "k_inf": "0.3"}}, "model.k_inf"),
            ({"phantom": {"kind": "disk", "grid_size": 8}}, "phantom.grid_size"),
            ({"image_size": 8}, "image_size"),
            ({"phantom": {"kind": "disk", "radius": 1.5}}, "phantom.radius"),
            ({"phantom": {"kind": "disk", "radius": 0.5, "half_extent": 0.5}}, "phantom.radius"),
            ({"phantom": {"kind": "shepp-logan", "half_extent": 0.7}}, "phantom.half_extent"),
            ({"image_half_extent": 0.5}, "image_half_extent"),
            # the image grid must lie strictly inside the inversion geometry
            ({"image_half_extent": 2.5}, "image_half_extent"),
            ({"geometry": {"kind": "line", "standoff": 0.5}}, "image_half_extent"),
            # a tabulated law's tables are checked when the config loads, not after propagation
            ({"model": {"kind": "tabulated", "omega": [-50.0, 0.0, 50.0],
                        "kstar_real": [0.0, 0.0, 0.0], "kstar_imag": [0.0, float("nan"), 0.0],
                        "k_inf": 0.3}}, "model.kstar_imag"),
            # a geometry key that its kind does not read
            ({"geometry": {"kind": "line", "radius": 3.0, "count": 64}}, "geometry.radius"),
            ({"geometry": {"kind": "circle", "length": 10.2}}, "geometry.length"),
            ({"geometry": {"kind": "circle", "radius": 1.7, "standoff": 1.7}},
             "geometry.standoff"),
            ({"geometry": {"standoff": 1.7}}, "geometry.standoff"),  # the default kind is circle
        ],
    )
    def test_bad_section_named(self, raw, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}:"):
            ScenarioConfig.from_dict(raw)

    def test_non_mapping_phantom_named(self):
        with pytest.raises(ConfigError, match="^phantom: expected a mapping"):
            ScenarioConfig.from_dict({"phantom": "disk"})

    @pytest.mark.parametrize(
        "raw, field",
        [
            ({"phantom": {"kind": "shepp-logan", "grid_size": 40.7}}, "phantom.grid_size"),
            ({"noise": {"level": 0.1, "seed": -1}}, "noise.seed"),
            ({"inversion_time_count": 443.7}, "inversion_time_count"),
            ({"seed": 2.9}, "seed"),
            ({"noise": {"seed": 2.9}}, "noise.seed"),
            ({"image_size": True}, "image_size"),
            ({"geometry": {"kind": "circle", "count": "849"}}, "geometry.count"),
            ({"quad_nodes": None}, "quad_nodes"),
            ({"image_size": 0, "phantom": {"kind": "shepp-logan", "grid_size": 32}},
             "image_size"),
            ({"forward_quad_nodes": 0}, "forward_quad_nodes"),
            ({"forward_time_count": -5}, "forward_time_count"),
            ({"geometry": {"kind": "circle", "count": 0}}, "geometry.count"),
            ({"quad_nodes": 0}, "quad_nodes"),
            # an inversion grid finer than the forward one, which resampling cannot refine
            ({"forward_time_count": 60, "inversion_time_count": 80}, "inversion_time_count"),
            ({"forward_sensor_count": 64, "geometry": {"kind": "circle", "count": 128}},
             "geometry.count"),
            # one time sample, which can be neither differentiated nor back-projected
            ({"forward_time_count": 1, "inversion_time_count": 1, "image_size": 16},
             "forward_time_count"),
            ({"forward_time_count": 2, "inversion_time_count": 1}, "inversion_time_count"),
        ],
    )
    def test_bad_integer_or_boolean_named(self, raw, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}:"):
            ScenarioConfig.from_dict(raw)

    def test_integral_float_accepted(self):
        cfg = ScenarioConfig.from_dict({"inversion_time_count": 443.0})
        assert cfg.inversion_time_count == 443 and type(cfg.inversion_time_count) is int

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).parent.parent / "configs").glob("*.json")),
        ids=lambda p: p.name,
    )
    def test_shipped_configs_load_and_round_trip(self, path):
        raw = json.loads(path.read_text())
        cfg = ScenarioConfig.from_dict(raw)
        assert ScenarioConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
        assert cfg.to_dict()["geometry"] == raw["geometry"]  # only the kind's own keys

    def test_unknown_geometry(self):
        with pytest.raises(ConfigError, match="geometry"):
            ScenarioConfig(geometry={"kind": "helix"})

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ScenarioConfig(geometry={"kind": "line", "radius": 3.0}), "geometry.radius"),
            (lambda: ScenarioConfig(geometry={"length": 10.2}), "geometry.length"),
            (lambda: ScenarioConfig(geometry={"kind": "circle", "standoff": 1.7}),
             "geometry.standoff"),
            (lambda: dataclasses.replace(
                ScenarioConfig(geometry={"kind": "line"}),
                geometry={"kind": "line", "length": 10.2, "standoff": 1.7, "radius": 9.0}),
             "geometry.radius"),
            # the circle's filled-in radius does not carry over to a line
            (lambda: dataclasses.replace(
                ScenarioConfig(), geometry={**ScenarioConfig().geometry, "kind": "line"}),
             "geometry.radius"),
        ],
        ids=["line-radius", "circle-length", "circle-standoff", "replace-line-radius",
             "replace-circle-to-line"],
    )
    def test_constructor_rejects_keys_the_kind_does_not_read(self, build, field):
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: unknown field for kind"):
            build()

    def test_kind_defaults_filled_and_kept_through_replace(self):
        circle, line = ScenarioConfig(), ScenarioConfig(geometry={"kind": "line"})
        assert circle.geometry == {"kind": "circle", "radius": 1.7, "count": 849}
        assert line.geometry == {"kind": "line", "length": 10.2, "standoff": 1.7, "count": 849}
        noisy = dataclasses.replace(line, noise_level=0.2, seed=4)
        assert noisy.to_dict() == {**line.to_dict(), "noise": {"level": 0.2, "seed": 4}}
        assert noisy.to_dict()["geometry"] == {"kind": "line", "length": 10.2,
                                               "standoff": 1.7, "count": 849}

    def test_kind_duration_follows_the_kind_through_replace(self):
        line = dataclasses.replace(ScenarioConfig(), geometry={"kind": "line"})
        assert line.duration == ScenarioConfig(geometry={"kind": "line"}).duration == 8.0
        assert dataclasses.replace(line, geometry={"kind": "circle"}).duration == 6.0
        # an explicit duration stays, whatever the kind
        explicit = dataclasses.replace(ScenarioConfig(duration=6.0), geometry={"kind": "line"})
        assert explicit.duration == 6.0

    def test_one_circular_ellipse_builds_the_disk(self):
        disk = ScenarioConfig(phantom={"kind": "disk", "radius": 0.4, "intensity": 1.5})
        item = {"intensity": 1.5, "center": [0.0, 0.0], "axes": [0.4, 0.4], "angle_deg": 0.0}
        ellipses = ScenarioConfig(phantom={"kind": "ellipses", "items": [item]})
        a, b = ellipses.build_phantom(), disk.build_phantom()
        assert np.array_equal(a.values, b.values)  # bitwise
        assert a.ellipses == b.ellipses
        assert (a.spacing, a.origin) == (b.spacing, b.origin)


class TestRunScenario:
    def test_small_nsw_circle(self):
        cfg = ScenarioConfig(model=NswModel(0.11, 0.10), seed=1, **SMALL)
        res = run_scenario(cfg)
        assert set(res.reconstructions) == {"naive", "compensated", "full"}
        assert set(res.errors) == {"naive", "compensated", "full"}
        assert res.truth.values.shape == (48, 48)
        assert res.data.values.shape == (160, 212)
        assert res.data_forward.values.shape == (180, 256)
        assert set(res.cross_sections) == {"truth", "naive", "compensated", "full"}
        assert res.errors["full"] < res.errors["naive"]
        assert set(res.runtimes) == {
            "phantom", "forward-propagation", "forward-attenuation", "noise",
            "ground-truth", "resample", "reconstruct-compensated",
            "reconstruct-full", "back-projection", "metrics",
        }
        assert all(t >= 0 for t in res.runtimes.values())
        assert set(res.diagnostics) == {"taylor_order", "condition"}
        assert 1.0 < res.diagnostics["condition"] < np.inf
        # the order computed from the law, as the image's system fingerprint records it
        assert res.diagnostics["taylor_order"] == 20
        assert "|K=20|" in res.reconstructions["full"].provenance["system"]

    def test_regularized_scenario_records_no_condition(self):
        cfg = ScenarioConfig(model=NswModel(0.11, 0.10), seed=1, regularization=1e-3, **SMALL)
        res = run_scenario(cfg)
        assert res.diagnostics == {"taylor_order": 20}
        assert res.reconstructions["full"].provenance["regularization"] == 1e-3

    def test_constant_scenario_skips_compensated(self):
        cfg = ScenarioConfig(model=ConstantModel(0.45), seed=1, **SMALL)
        res = run_scenario(cfg)
        assert set(res.reconstructions) == {"naive", "full"}
        assert res.errors["full"] < res.errors["naive"]
        # M is diag(e^{-k_inf t}): its 1-norm condition is e^{k_inf T}
        t_end = res.data.time_grid.times[-1] - res.data.time_grid.times[0]
        assert res.diagnostics["condition"] == pytest.approx(np.exp(0.45 * t_end), rel=1e-12)
        assert res.diagnostics["taylor_order"] == 0  # a constant law has no series

    def test_determinism_bitwise(self):
        cfg = ScenarioConfig(model=NswModel(0.11, 0.10), noise_level=0.2, seed=3, **SMALL)
        a = run_scenario(cfg)
        b = run_scenario(cfg)
        assert np.array_equal(a.data.values, b.data.values)
        for name in a.reconstructions:
            assert np.array_equal(a.reconstructions[name].values,
                                  b.reconstructions[name].values)
        assert a.errors == b.errors

    def test_forward_cache_keys_on_phantom_raster(self):
        # image_size sets the raster spacing, hence dx and the padded grid
        from attenpat.experiments import simulate_scenario
        from attenpat.recon import _CACHE

        small = dict(SMALL, forward_time_count=60, forward_sensor_count=64,
                     inversion_time_count=60, geometry={"kind": "circle", "count": 64})
        coarse = ScenarioConfig(model=ConstantModel(0.45), **dict(small, image_size=32))
        fine = ScenarioConfig(model=ConstantModel(0.45), **dict(small, image_size=96))
        _CACHE.clear()
        simulate_scenario(coarse)
        after_coarse, _, _ = simulate_scenario(fine)
        _CACHE.clear()
        fresh, _, _ = simulate_scenario(fine)
        assert np.array_equal(after_coarse.values, fresh.values)

    @pytest.mark.parametrize("count", [212, 256], ids=["same-count", "more-sensors"])
    def test_geometry_mismatch_raises_at_any_sensor_count(self, count):
        # data on a radius-1.7 circle, config on radius 2.0, same time grid
        from attenpat.experiments import ScenarioStageError, reconstruct_scenario

        geometry = {"kind": "circle", "radius": 2.0, "count": 212}
        cfg = ScenarioConfig(model=ConstantModel(0.45), **dict(SMALL, geometry=geometry))
        tg = cfg.inversion_time_grid()
        pa = _wave(np.zeros((tg.count, count)), tg, SensorArray.circle(1.7, count))
        with pytest.raises(ScenarioStageError, match="radius differs"):
            reconstruct_scenario(cfg, pa)

    def test_stage_failure_names_stage(self):
        # traces recorded on a line cannot be resampled onto a circle config
        from attenpat.experiments import ScenarioStageError

        cfg = ScenarioConfig(model=ConstantModel(0.45), **SMALL)
        tg = cfg.forward_time_grid()
        sensors = SensorArray.line(10.2, 1.7, cfg.forward_sensor_count)
        pa = _wave(np.zeros((tg.count, sensors.n)), tg, sensors)
        with pytest.raises(ScenarioStageError, match="resample"):
            reconstruct_scenario(cfg, pa)

    def test_constant_circle_cross_section_peak(self):
        # full pipeline at benchmark scale: the section through the center
        # recovers the interior plateau of the phantom
        cfg = ScenarioConfig(model=ConstantModel(0.45))
        res = run_scenario(cfg)
        xs, truth_vals = res.cross_sections["truth"]
        _, full_vals = res.cross_sections["full"]
        plateau = np.abs(xs) <= 0.4  # interior of the head: 1.02, dipping to 1.0 in the voids
        assert np.max(truth_vals[plateau]) == pytest.approx(1.02)
        peak = np.max(full_vals[plateau])
        assert abs(peak - np.max(truth_vals[plateau])) <= 0.15 * np.max(truth_vals[plateau])

    def test_inverse_crime_guard(self):
        # sharing the forward grids must not beat the honest run by > 30%
        honest = run_scenario(ScenarioConfig(model=NswModel(0.11, 0.10), seed=2, **SMALL))
        shared = dict(SMALL, inversion_time_count=SMALL["forward_time_count"],
                      geometry={"kind": "circle", "count": SMALL["forward_sensor_count"]})
        crime = run_scenario(ScenarioConfig(model=NswModel(0.11, 0.10), seed=2, **shared))
        assert crime.data.values.shape == crime.data_forward.values.shape
        assert crime.errors["full"] >= 0.7 * honest.errors["full"]


# forward grids small enough that a cache miss costs well under a second
CACHED = dict(SMALL, forward_time_count=60, forward_sensor_count=64, inversion_time_count=50,
              geometry={"kind": "circle", "count": 64}, image_size=32)


class TestForwardCache:
    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls of the forward layers ``simulate_scenario`` runs, from an empty cache."""
        from attenpat import experiments, recon

        calls = dict.fromkeys(("spectral_forward", "build_system", "apply_attenuation"), 0)
        for name in calls:
            def spy(*args, _name=name, _original=getattr(experiments, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(experiments, name, spy)
        recon._CACHE.clear()
        return calls

    @staticmethod
    def simulate(**changes):
        config = ScenarioConfig(**{"model": NswModel(0.11, 0.10), **CACHED, **changes})
        return simulate_scenario(config)[0].values

    @pytest.mark.parametrize("change", [
        dict(noise_level=0.2), dict(seed=9), dict(inversion_time_count=40),
        dict(quad_nodes=2**12), dict(regularization=1e-3),
        dict(omega_max=300.0),  # the band stays capped at 0.95 pi / dt (29.8 here)
    ], ids=lambda change: next(iter(change)))
    def test_noise_and_inversion_changes_neither_propagate_nor_attenuate(self, calls, change):
        clean = self.simulate()
        again = self.simulate(**change)
        assert calls == {"spectral_forward": 1, "build_system": 1, "apply_attenuation": 1}
        if "noise_level" not in change:
            assert np.array_equal(again, clean)

    @pytest.mark.parametrize("change, propagations", [
        (dict(model=NswModel(0.2, 0.10)), 1),
        (dict(omega_max=20.0), 1),  # below the cap, so the band moves
        (dict(forward_quad_nodes=2**12), 1),
        (dict(forward_time_count=64), 2),
        (dict(geometry={"kind": "circle", "radius": 1.8, "count": 64}), 2),
        (dict(phantom={"kind": "disk", "radius": 0.3}), 2),
    ], ids=["law", "omega_max", "forward_quad_nodes", "forward_time_count", "geometry",
            "phantom"])
    def test_forward_changes_attenuate_again(self, calls, change, propagations):
        from attenpat.recon import _CACHE

        self.simulate()
        cached = self.simulate(**change)
        assert calls == {"spectral_forward": propagations, "build_system": 2,
                         "apply_attenuation": 2}
        _CACHE.clear()
        assert np.array_equal(cached, self.simulate(**change))

    def test_laws_on_one_geometry_share_one_propagation(self, calls):
        self.simulate(model=ConstantModel(0.45))
        self.simulate()
        assert calls == {"spectral_forward": 1, "build_system": 2, "apply_attenuation": 2}

    @pytest.mark.parametrize("noise", [0.0, 0.2])
    def test_hit_is_bitwise_a_run_after_clearing(self, calls, noise):
        from attenpat.recon import _CACHE

        miss = self.simulate(noise_level=noise, seed=4)
        hit = self.simulate(noise_level=noise, seed=4)
        _CACHE.clear()
        assert np.array_equal(hit, miss)
        assert np.array_equal(hit, self.simulate(noise_level=noise, seed=4))
        assert calls["build_system"] == 2

    def test_callers_get_copies(self, calls):
        from attenpat.experiments import _forward_pressure
        from attenpat.recon import _CACHE

        pa = self.simulate()
        expect_pa = pa.copy()
        pa[:] = 7.0
        assert np.array_equal(self.simulate(), expect_pa)
        config = ScenarioConfig(model=NswModel(0.11, 0.10), **CACHED)
        p = _forward_pressure(config, config.build_phantom())
        expect_p = p.values.copy()
        p.values[:] = 7.0
        assert np.array_equal(_forward_pressure(config, config.build_phantom()).values, expect_p)
        # a new law attenuates the cached lossless traces, which the write above did not reach
        constant = self.simulate(model=ConstantModel(0.45))
        assert calls["spectral_forward"] == 1
        _CACHE.clear()
        assert np.array_equal(constant, self.simulate(model=ConstantModel(0.45)))

    def test_plans_and_forward_data_share_one_bound(self, calls, monkeypatch):
        from attenpat import recon

        built = []
        build = ScenarioConfig.build_phantom
        monkeypatch.setattr(ScenarioConfig, "build_phantom",
                            lambda config: built.append(config) or build(config))
        first = self.simulate()
        assert [key[0] for key in recon._CACHE] == ["phantom", "lossless", "clean"]
        tg, grid = TimeGrid.from_duration(6.0, 20), ImageGrid.centered(8, 1.0)
        for count in range(16, 16 + recon._CACHE_LIMIT - 2):  # new plans: the phantom goes
            sensors = SensorArray.circle(1.7, count)
            recon.back_project({"p": _wave(np.zeros((20, count)), tg, sensors)}, grid)
        assert [key[0] for key in recon._CACHE] == ["lossless", "clean"] + ["plan"] * 6
        assert np.array_equal(self.simulate(), first)
        assert len(built) == 2
        assert calls == {"spectral_forward": 1, "build_system": 1, "apply_attenuation": 1}

    def test_truth_shared_per_phantom_and_image_grid(self, calls):
        from attenpat.recon import _CACHE

        config = ScenarioConfig(**{"model": NswModel(0.11, 0.10), **CACHED})
        first = run_scenario(config).truth.values
        assert not first.flags.writeable
        noisy = dataclasses.replace(config, noise_level=0.2, seed=3)
        assert run_scenario(noisy).truth.values is first
        for change in (dict(image_size=40), dict(phantom={"kind": "disk", "radius": 0.3})):
            changed = dataclasses.replace(config, **change)
            truth = run_scenario(changed).truth.values
            assert truth is not first
            _CACHE.clear()
            assert np.array_equal(truth, run_scenario(changed).truth.values)

    @pytest.mark.parametrize("change, rasters", [
        (dict(noise_level=0.2, seed=3), 1),
        # the geometry is not a phantom input
        (dict(geometry={"kind": "circle", "radius": 1.8, "count": 64}), 1),
        (dict(phantom={"kind": "disk", "radius": 0.3}), 2),
        (dict(phantom={"kind": "disk", "intensity": 2.0}), 2),
        (dict(phantom={"kind": "shepp-logan"}), 2),
        (dict(image_size=40), 2),
        (dict(phantom={"kind": "disk", "grid_size": 40}), 2),
        (dict(image_half_extent=0.9), 2),
        (dict(phantom={"kind": "disk", "half_extent": 0.9}), 2),
    ], ids=["noise", "geometry", "radius", "intensity", "kind", "image_size", "grid_size",
            "image_half_extent", "half_extent"])
    def test_phantom_rasterized_once_per_spec_and_raster(self, calls, monkeypatch, change,
                                                         rasters):
        from attenpat.recon import _CACHE

        built = []
        build = ScenarioConfig.build_phantom
        monkeypatch.setattr(ScenarioConfig, "build_phantom",
                            lambda config: built.append(config) or build(config))
        config = ScenarioConfig(**{"model": NswModel(0.11, 0.10), **CACHED})
        first = simulate_scenario(config)[1]
        changed = dataclasses.replace(config, **change)
        pa, phantom, _ = simulate_scenario(changed)
        assert len(built) == rasters
        assert (phantom is first) == (rasters == 1)
        assert not phantom.values.flags.writeable
        _CACHE.clear()
        fresh_pa, fresh, _ = simulate_scenario(changed)
        assert np.array_equal(phantom.values, fresh.values)
        assert np.array_equal(pa.values, fresh_pa.values)
