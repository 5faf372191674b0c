import json

import numpy as np
import pytest

from attenpat.experiments import ConfigError, ScenarioConfig
from attenpat.gridio import (
    read_grid,
    load_wave,
    save_image,
    save_wave,
    write_csv,
    write_grid,
    write_image_pgm,
)
from attenpat.recon import ImageGrid, ReconImage
from attenpat.wavefield import SensorArray, TimeGrid, WaveData


class TestGridFile:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        values = rng.standard_normal((37, 21)) * 1e-7
        values[0, 0] = np.pi
        path = tmp_path / "x.atw"
        write_grid(path, values, kind="image", spacing=(0.1, 0.1), origin=(-1.0, -1.0))
        back = read_grid(path)
        assert back.kind == "image"
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values, values)  # bitwise
        assert back.spacing == (0.1, 0.1)
        assert back.origin == (-1.0, -1.0)

    def test_header_layout_stable(self, tmp_path):
        path = tmp_path / "x.atw"
        write_grid(path, np.zeros((2, 3)), kind="matrix")
        raw = path.read_bytes()
        assert raw[:5] == b"ATWV1"
        assert raw[5:11] == b"matrix"
        assert raw[29] == 2  # ndim
        assert len(raw) == 102 + 2 * 3 * 8

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "x.atw"
        path.write_bytes(b"NOPE!" + b"\x00" * 200)
        with pytest.raises(ValueError, match="magic"):
            read_grid(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "x.atw"
        write_grid(path, np.zeros((4, 4)), kind="image")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="truncated"):
            read_grid(path)

    def test_3d_supported(self, tmp_path):
        values = np.arange(24, dtype=float).reshape(2, 3, 4)
        path = tmp_path / "x.atw"
        write_grid(path, values, kind="image3d", spacing=(1, 1, 1), origin=(0, 0, 0))
        assert np.array_equal(read_grid(path).values, values)


class TestWaveAndImageFiles:
    def test_wave_round_trip(self, tmp_path):
        tg = TimeGrid.from_duration(6.0, 44)
        sensors = SensorArray.line(10.2, 1.7, 13)
        rng = np.random.default_rng(1)
        wave = WaveData(rng.standard_normal((44, 13)), tg, sensors, kind="attenuated")
        path = tmp_path / "wave.atw"
        save_wave(path, wave)
        back = load_wave(path)
        assert np.array_equal(back.values, wave.values)
        assert back.kind == "attenuated"
        assert back.time_grid == tg
        assert back.sensors.kind == "line"
        assert np.allclose(back.sensors.points, sensors.points)

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("time_count", "120", "time_count"),
            ("time_count", 120.5, "time_count"),
            ("dt", True, "dt"),
            ("dt", float("nan"), "dt"),
            ("geometry", {"kind": "circle", "radius": 1.7, "count": 128.9}, "geometry.count"),
            ("geometry", {"kind": "circle", "radius": "1.7", "count": 128}, "geometry.radius"),
            ("geometry", {"kind": "circle", "radius": 1.7}, "geometry.count"),
            # a key the kind does not read
            ("geometry", {"kind": "circle", "radius": 1.7, "count": 128, "radus": 3},
             "geometry.radus"),
            ("geometry", {"kind": "circle", "radius": 1.7, "count": 128, "standoff": 1.7},
             "geometry.standoff"),
            ("geometry", {"kind": "line", "length": 10.2, "standoff": 1.7, "count": 128,
                          "radius": 1.7}, "geometry.radius"),
            # a value that disagrees with the GridFile header ("attenuated", dt 0.05)
            ("kind", "pressure", "kind"),
            ("dt", 0.2, "dt"),
            # a count that disagrees with the payload's (120, 128) shape
            ("time_count", 121, "time_count"),
            ("geometry", {"kind": "circle", "radius": 1.7, "count": 127}, "geometry.count"),
        ],
    )
    def test_sidecar_values_are_strict(self, tmp_path, key, value, named):
        # each bad value below used to load through float() or int()
        wave = WaveData(np.zeros((120, 128)), TimeGrid.from_duration(6.0, 120),
                        SensorArray.circle(1.7, 128), kind="attenuated")
        path = tmp_path / "wave.atw"
        save_wave(path, wave)
        sidecar = tmp_path / "wave.atw.json"
        meta = json.loads(sidecar.read_text())
        meta[key] = value
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=rf"wave\.atw\.json: {named}:"):
            load_wave(path)

    def test_non_object_sidecar_rejected(self, tmp_path):
        path = tmp_path / "wave.atw"
        save_wave(path, WaveData(np.zeros((4, 3)), TimeGrid.from_duration(1.0, 4),
                                 SensorArray.circle(1.7, 3), kind="pressure"))
        (tmp_path / "wave.atw.json").write_text("[1, 2]")
        with pytest.raises(ValueError, match="sidecar does not describe wave data"):
            load_wave(path)

    @pytest.mark.parametrize("geometry, message", [
        ({"kind": "helix", "count": 8}, "geometry.kind: unknown value 'helix'"),
        ({"kind": "circle", "radius": 1.7, "count": 8, "length": 10.2},
         "geometry.length: unknown field for kind 'circle'"),
        ({"kind": "circle", "radius": 0, "count": 8}, "geometry.radius: must be > 0, got 0"),
        ({"kind": "line", "length": -10.2, "standoff": 1.7, "count": 8},
         "geometry.length: must be > 0, got -10.2"),
        ({"kind": "line", "length": 10.2, "standoff": 0.0, "count": 8},
         "geometry.standoff: must be > 0, got 0.0"),
        ({"kind": "circle", "radius": 1.7, "count": 8.5},
         "geometry.count: expected an integer, got 8.5"),
    ])
    def test_config_and_sidecar_reject_a_geometry_alike(self, tmp_path, geometry, message):
        with pytest.raises(ConfigError) as config_error:
            ScenarioConfig.from_dict({"geometry": geometry})
        assert str(config_error.value) == message
        path = tmp_path / "wave.atw"
        save_wave(path, WaveData(np.zeros((4, 8)), TimeGrid.from_duration(1.0, 4),
                                 SensorArray.circle(1.7, 8), kind="pressure"))
        sidecar = tmp_path / "wave.atw.json"
        sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "geometry": geometry}))
        with pytest.raises(ValueError) as sidecar_error:
            load_wave(path)
        assert str(sidecar_error.value) == f"{sidecar}: {message}"

    def test_image_round_trip(self, tmp_path):
        grid = ImageGrid.centered(16, 1.0)
        img = ReconImage(np.random.default_rng(2).standard_normal((16, 16)), grid,
                         "full", provenance={"system": "abc"})
        path = tmp_path / "img.atw"
        save_image(path, img)
        back = read_grid(path)
        meta = json.loads((tmp_path / "img.atw.json").read_text())
        assert np.array_equal(back.values, img.values)
        assert back.kind == "image"
        assert ImageGrid(back.values.shape, back.spacing[0], back.origin) == grid
        assert meta["method"] == "full"
        assert meta["provenance"] == {"system": "abc"}


class TestPgm:
    def test_constant_image_uniform_gray(self, tmp_path):
        grid = ImageGrid.centered(8, 1.0)
        img = ReconImage(np.full((8, 8), 4.2), grid, "naive-ubp")
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img)
        raw = path.read_bytes()
        header, payload = raw.split(b"65535\n", 1)
        assert header.startswith(b"P5")
        pixels = np.frombuffer(payload, dtype=">u2")
        assert pixels.shape == (64,)
        assert np.all(pixels == 32767)

    def test_window_recorded_in_sidecar(self, tmp_path):
        grid = ImageGrid.centered(8, 1.0)
        img = ReconImage(np.linspace(0, 1, 64).reshape(8, 8), grid, "naive-ubp")
        path = tmp_path / "img.pgm"
        write_image_pgm(path, img, window=(0.0, 2.0))
        meta = json.loads((tmp_path / "img.pgm.json").read_text())
        assert meta["lo"] == 0.0 and meta["hi"] == 2.0

    def test_non_finite_rejected(self, tmp_path):
        grid = ImageGrid.centered(8, 1.0)
        img = ReconImage(np.ones((8, 8)), grid, "naive-ubp")
        img.values[0, 0] = np.inf
        with pytest.raises(ValueError):
            write_image_pgm(tmp_path / "img.pgm", img)


def _read_csv(path):
    """The header's column names and the table of values numpy parses."""
    with open(path, encoding="ascii") as fh:
        names = fh.readline().strip().split(",")
    return names, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class TestCsv:
    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(3)
        cols = {"x": rng.standard_normal(17), "truth": rng.standard_normal(17) * 1e-13}
        path = tmp_path / "t.csv"
        write_csv(path, cols)
        names, table = _read_csv(path)
        assert names == ["x", "truth"]
        for i, name in enumerate(names):
            assert np.array_equal(table[:, i], cols[name])  # bitwise

    def test_empty_columns_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, {"a": np.array([]), "b": np.array([])})
        text = path.read_text().strip().splitlines()
        assert text == ["a,b"]

    def test_scenario_section_schema(self, tmp_path):
        n = 9
        cols = {name: np.zeros(n) for name in ("x", "truth", "naive", "compensated", "full")}
        path = tmp_path / "s.csv"
        write_csv(path, cols)
        names, table = _read_csv(path)
        assert names == list(cols)
        assert table.shape == (n, len(cols))

    def test_mismatched_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", {"a": np.zeros(3), "b": np.zeros(4)})
