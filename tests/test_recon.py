import numpy as np
import pytest

from attenpat.attenuation import build_system
from attenpat.models import ConstantModel, NswModel
from attenpat.recon import (
    ImageGrid,
    ReconImage,
    back_project,
    reconstruct_compensated,
    reconstruct_full,
    reconstruct_naive,
    time_differentiate,
    time_integrate,
    ubp_2d,
    ubp_3d_spherical,
)
from attenpat.wavefield import (
    SensorArray,
    TimeGrid,
    WaveData,
    disk_phantom,
    spectral_forward,
)
from oracles import ball_nwave_integrated, ball_nwave_oracle


def _wave(values, tg, sensors, kind="pressure"):
    return WaveData(values, tg, sensors, kind=kind)


class TestTimeCalculus:
    tg = TimeGrid.from_duration(2.0, 50)
    sensors = SensorArray.circle(1.7, 3)

    def test_integrate_ones(self):
        w = _wave(np.ones((50, 3)), self.tg, self.sensors)
        q = time_integrate(w)
        assert q.kind == "integrated"
        assert np.allclose(q.values, self.tg.dt * np.arange(1, 51)[:, None])

    def test_integrate_zero(self):
        w = _wave(np.zeros((50, 3)), self.tg, self.sensors)
        assert np.all(time_integrate(w).values == 0.0)

    def test_integrate_nwave_matches_analytic(self):
        tg = TimeGrid.from_duration(6.0, 443)
        t = tg.times
        p = np.tile(ball_nwave_oracle(0.5, 1.7, t)[:, None], (1, 1))
        w = WaveData(p, tg, SensorArray.circle(1.7, 1), kind="pressure")
        q = time_integrate(w).values[:, 0]
        q_true = ball_nwave_integrated(0.5, 1.7, t)
        assert ball_nwave_integrated(0.5, 1.7, 1.7) == pytest.approx(0.25 / 6.8, abs=1e-15)
        # left-Riemann sum of a piecewise-linear signal with jumps: O(dt)
        assert np.max(np.abs(q - q_true)) <= 0.5 * tg.dt

    def test_differentiate_linear(self):
        vals = (self.tg.dt * np.arange(1, 51))[:, None] * np.ones((1, 3))
        w = _wave(vals, self.tg, self.sensors, kind="integrated")
        p = time_differentiate(w)
        assert p.kind == "pressure"
        assert np.allclose(p.values, 1.0)

    def test_differentiate_inverts_integrate_exactly(self):
        rng = np.random.default_rng(2)
        w = _wave(rng.standard_normal((50, 3)), self.tg, self.sensors)
        back = time_differentiate(time_integrate(w))
        assert np.max(np.abs(back.values - w.values)) <= 1e-14 * np.abs(w.values).max()

    def test_differentiate_quadratic_bias(self):
        t = self.tg.times
        w = _wave((t**2)[:, None] * np.ones((1, 3)), self.tg, self.sensors, kind="integrated")
        p = time_differentiate(w)
        expect = 2 * t - self.tg.dt  # backward difference of t^2, first-order bias
        assert np.allclose(p.values[1:], expect[1:, None], atol=1e-12)

    def test_integrate_kind_guard(self):
        w = _wave(np.zeros((50, 3)), self.tg, self.sensors, kind="integrated")
        with pytest.raises(ValueError):
            time_integrate(w)

    def test_differentiate_kind_guard(self):
        w = _wave(np.zeros((50, 3)), self.tg, self.sensors, kind="pressure")
        with pytest.raises(ValueError, match="cannot differentiate data of kind 'pressure'"):
            time_differentiate(w)


def _disk_setup(n_t=221, n_sensors=212, radius=0.4, image_size=64):
    model_free_cfg = {}
    tg = TimeGrid.from_duration(6.0, n_t)
    sensors = SensorArray.circle(1.7, n_sensors)
    phantom = disk_phantom(radius, 1.0, 128)
    p = spectral_forward(phantom, tg, sensors)
    grid = ImageGrid.centered(image_size, 1.0)
    axes = grid.axes()
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    truth = phantom.evaluate(X, Y)
    return p, grid, truth


def _rel(a, b, mask=None):
    if mask is not None:
        a, b = a[mask], b[mask]
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestUbp2d:
    def test_zero_data_zero_image(self):
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.circle(1.7, 32)
        img = ubp_2d(_wave(np.zeros((100, 32)), tg, sensors), ImageGrid.centered(32, 1.0))
        assert np.all(img.values == 0.0)

    def test_linearity(self):
        tg = TimeGrid.from_duration(6.0, 120)
        sensors = SensorArray.circle(1.7, 48)
        rng = np.random.default_rng(9)
        grid = ImageGrid.centered(24, 1.0)
        a = rng.standard_normal((120, 48))
        b = rng.standard_normal((120, 48))
        img_a = ubp_2d(_wave(a, tg, sensors), grid).values
        img_b = ubp_2d(_wave(b, tg, sensors), grid).values
        img_sum = ubp_2d(_wave(a + b, tg, sensors), grid).values
        img_3a = ubp_2d(_wave(3.0 * a, tg, sensors), grid).values
        scale = np.abs(img_a).max() + np.abs(img_b).max()
        assert np.max(np.abs(img_sum - img_a - img_b)) <= 1e-12 * scale
        assert np.max(np.abs(img_3a - 3.0 * img_a)) <= 1e-12 * scale

    def test_lossless_disk_self_consistency(self):
        p, grid, truth = _disk_setup()
        img = ubp_2d(p, grid)
        assert _rel(img.values, truth, mask=truth > 0) <= 0.2

    def test_against_brute_force_transcription(self):
        # tabulated inner transform + distance interpolation vs a plain
        # per-pixel evaluation of the same quadrature
        from oracles import brute_force_ubp_2d

        p, grid, truth = _disk_setup(n_t=160, n_sensors=48, image_size=16)
        fast = ubp_2d(p, grid)
        slow = brute_force_ubp_2d(p, grid, du=p.time_grid.dt / 16.0)
        rel = np.linalg.norm(fast.values - slow) / np.linalg.norm(slow)
        assert rel <= 5e-3  # distance-axis tabulation error at the default step
        # and it converges away: the same back-projection from a table at dt / 16
        from attenpat.recon import _inner_weight_matrix
        from oracles import interp_ubp_2d

        tg, pts = p.time_grid, grid.points()
        pr, sr = np.hypot(pts[:, 0], pts[:, 1]).max(), np.linalg.norm(p.sensors.points, axis=1)
        d_lo, d_hi = max(sr.min() - pr, tg.dt), min(sr.max() + pr, tg.duration * (1.0 - 1e-9))
        nodes = np.linspace(d_lo, d_hi, int(np.ceil((d_hi - d_lo) / (tg.dt / 16.0))) + 1)
        finer = interp_ubp_2d(p, grid, nodes, _inner_weight_matrix(tg.times, nodes))
        rel_fine = np.linalg.norm(finer - slow) / np.linalg.norm(slow)
        assert rel_fine <= 5e-4

    def test_inner_weights_exact_on_linear_data(self):
        # on the benchmark time grid the table integrates 1 and t exactly: over [d, T],
        # dt / sqrt(t^2 - d^2) integrates to acosh(T/d) and t dt / sqrt(...) to sqrt(T^2 - d^2)
        from attenpat.recon import _inner_weight_matrix

        tg = TimeGrid.from_duration(6.0, 443)
        t, T = tg.times, tg.times[-1]
        # from the first sample, the least node back_project tabulates, to just below T
        d = np.linspace(tg.dt, T * (1.0 - 1e-9), 830)
        w = _inner_weight_matrix(t, d)
        acosh, root = np.arccosh(T / d), np.sqrt((T - d) * (T + d))
        assert np.abs(w @ np.ones_like(t) - acosh).max() <= 1e-13 * acosh.max()
        assert np.abs(w @ t - root).max() <= 1e-13 * root.max()

    def test_inner_weights_vanish_beyond_the_window(self):
        from attenpat.recon import _inner_weight_matrix

        tg = TimeGrid.from_duration(6.0, 50)
        T = tg.times[-1]
        w = _inner_weight_matrix(tg.times, np.array([T / 2.0, T, 1.5 * T]))
        assert np.any(w[0] != 0.0)
        assert np.all(w[1:] == 0.0)

    @pytest.mark.parametrize(
        "duration, sensors, edge",
        [
            (6.0, SensorArray.circle(1.7, 48), None),
            # the recording window cuts the distance table: pixels beyond it read 0
            (4.0, SensorArray.line(10.2, 1.7, 64), "right"),
            # sensors within dt of the grid: d_lo is clamped to dt, nearer pixels read phi[0]
            (6.0, SensorArray.circle(1.45, 48), "left"),
        ],
        ids=["circle", "line-cut-by-duration", "circle-d_lo-clamped"],
    )
    def test_matches_interp_reference(self, monkeypatch, duration, sensors, edge):
        import attenpat.recon as recon
        from oracles import interp_ubp_2d

        table = {}
        inner = recon._inner_weight_matrix

        def spy(times, dist_nodes):
            table["nodes"] = dist_nodes
            table["weights"] = inner(times, dist_nodes)
            return table["weights"]

        monkeypatch.setattr(recon, "_inner_weight_matrix", spy)
        monkeypatch.setattr(recon, "_CACHE", {})  # an earlier test may hold this geometry's plan
        tg = TimeGrid.from_duration(duration, 50)
        grid = ImageGrid.centered(24, 1.0)
        rng = np.random.default_rng(17)
        wave = _wave(rng.standard_normal((50, sensors.n)), tg, sensors)
        img = ubp_2d(wave, grid).values
        ref = interp_ubp_2d(wave, grid, table["nodes"], table["weights"])
        assert np.max(np.abs(img - ref)) <= 1e-12 * np.abs(ref).max()

        d = np.linalg.norm(sensors.points[:, None] - grid.points()[None], axis=2)
        if edge == "right":
            assert np.any(d > table["nodes"][-1])
        elif edge == "left":
            assert table["nodes"][0] == tg.dt
            assert np.any(d < tg.dt)

    def test_one_time_sample_rejected(self):
        tg = TimeGrid.from_duration(6.0, 1)
        sensors = SensorArray.circle(1.7, 8)
        with pytest.raises(ValueError, match="two time samples.*got 1"):
            ubp_2d(_wave(np.ones((1, 8)), tg, sensors), ImageGrid.centered(8, 1.0))

    def test_image_point_outside_circle_rejected(self):
        tg = TimeGrid.from_duration(6.0, 64)
        sensors = SensorArray.circle(1.7, 16)
        with pytest.raises(ValueError, match="outside"):
            ubp_2d(_wave(np.zeros((64, 16)), tg, sensors), ImageGrid.centered(16, 2.0))

    def test_image_point_below_line_rejected(self):
        tg = TimeGrid.from_duration(8.0, 64)
        sensors = SensorArray.line(10.2, 1.7, 32)
        grid = ImageGrid(shape=(8, 8), spacing=0.5, origin=(-1.75, -3.0))
        with pytest.raises(ValueError, match="below"):
            ubp_2d(_wave(np.zeros((64, 32)), tg, sensors), grid)

    def test_kind_guard(self):
        tg = TimeGrid.from_duration(6.0, 64)
        sensors = SensorArray.circle(1.7, 16)
        w = _wave(np.zeros((64, 16)), tg, sensors, kind="integrated")
        with pytest.raises(ValueError):
            ubp_2d(w, ImageGrid.centered(16, 1.0))


class TestBackProject:
    @pytest.mark.parametrize(
        "duration, sensors, grid, pairs, singles",
        [(6.0, SensorArray.circle(1.7, 49), ImageGrid.centered(24, 1.0), 24, 1),
         (6.0, SensorArray.circle(1.7, 48), ImageGrid.centered(24, 1.0), 23, 2),
         (8.0, SensorArray.line(10.2, 1.7, 65), ImageGrid.centered(24, 1.0), 32, 1),
         (4.0, SensorArray.line(10.2, 1.7, 64), ImageGrid.centered(24, 1.0), 32, 0),
         (6.0, SensorArray.circle(1.7, 48), ImageGrid((24, 20), 1.0 / 12.0, (-0.9, -0.7)), 0, 48)],
        ids=["circle-odd", "circle-even", "line-odd", "line-cut-by-duration", "off-centre"],
    )
    def test_stacked_members_match_interp_reference(self, monkeypatch, duration, sensors, grid,
                                                    pairs, singles):
        import attenpat.recon as recon
        from oracles import interp_ubp_2d

        tables = []
        inner = recon._inner_weight_matrix

        def spy(times, dist_nodes):
            tables.append((dist_nodes, inner(times, dist_nodes)))
            return tables[-1][1]

        monkeypatch.setattr(recon, "_inner_weight_matrix", spy)
        monkeypatch.setattr(recon, "_CACHE", {})  # an earlier test may hold this geometry's plan
        sizes = [len(pair) for pair in recon._mirror_pairs(sensors, grid)[0]]
        assert (sizes.count(2), sizes.count(1)) == (pairs, singles)
        tg = TimeGrid.from_duration(duration, 50)
        rng = np.random.default_rng(23)
        waves = {kind + str(i): _wave(rng.standard_normal((50, sensors.n)), tg, sensors, kind)
                 for i, kind in enumerate(("pressure", "attenuated", "pressure"))}
        images = back_project(waves, grid)
        assert len(tables) == 1 and list(images) == list(waves)
        nodes, weights = tables[0]
        for tag, wave in waves.items():
            ref = interp_ubp_2d(wave, grid, nodes, weights)
            assert images[tag].method == tag
            assert np.max(np.abs(images[tag].values - ref)) <= 1e-12 * np.abs(ref).max()
        if duration == 4.0:  # the recording window does cut the table
            d = np.linalg.norm(sensors.points[:, None] - grid.points()[None], axis=2)
            assert np.any(d > nodes[-1])

    @pytest.mark.parametrize("name", ["nsw_circle", "nsw_line"])
    def test_benchmark_geometries_pair_every_sensor(self, name):
        # an unpaired benchmark geometry would still image correctly, at twice the geometry cost
        import json
        from pathlib import Path

        from attenpat.experiments import ScenarioConfig
        from attenpat.recon import _mirror_pairs

        path = Path(__file__).resolve().parent.parent / "configs" / f"{name}.json"
        cfg = ScenarioConfig.from_dict(json.loads(path.read_text()))
        grid = cfg.image_grid()
        assert cfg.geometry["count"] == 849 and grid.shape == (128, 128)
        sizes = [len(pair) for pair in _mirror_pairs(cfg.sensors(849), grid)[0]]
        assert (sizes.count(2), sizes.count(1)) == (424, 1)

    def test_stack_members_do_not_interact(self):
        tg = TimeGrid.from_duration(6.0, 60)
        sensors = SensorArray.circle(1.7, 40)
        grid = ImageGrid.centered(20, 1.0)
        rng = np.random.default_rng(5)
        a, b = (_wave(rng.standard_normal((60, 40)), tg, sensors) for _ in range(2))
        both = back_project({"a": a, "b": b}, grid)
        assert np.array_equal(both["b"].values, back_project({"b": b}, grid)["b"].values)
        assert np.array_equal(both["a"].values, back_project({"a": a}, grid)["a"].values)

    def test_stack_off_one_geometry_rejected(self):
        tg = TimeGrid.from_duration(6.0, 60)
        sensors = SensorArray.circle(1.7, 40)
        good = _wave(np.zeros((60, 40)), tg, sensors)
        other_times = _wave(np.zeros((61, 40)), TimeGrid.from_duration(6.0, 61), sensors)
        other_sensors = _wave(np.zeros((60, 40)), tg, SensorArray.circle(1.8, 40))
        for bad in (other_times, other_sensors):
            with pytest.raises(ValueError, match="one time grid and one sensor array"):
                back_project({"good": good, "bad": bad}, ImageGrid.centered(20, 1.0))


def _plan_geometry(kind="circle", count=48, radius=1.7, length=10.2, standoff=1.7, duration=6.0,
                   times=50, size=24, half=1.0, shift=0.0):
    sensors = (SensorArray.circle(radius, count) if kind == "circle"
               else SensorArray.line(length, standoff, count))
    grid = ImageGrid.centered(size, half)
    grid = ImageGrid(grid.shape, grid.spacing, (grid.origin[0] + shift, grid.origin[1]))
    return sensors, TimeGrid.from_duration(duration, times), grid


def _random_images(sensors, tg, grid, seed=0):
    rng = np.random.default_rng(seed)
    waves = {kind: _wave(rng.standard_normal((tg.count, sensors.n)), tg, sensors, kind)
             for kind in ("pressure", "attenuated")}
    return {tag: img.values for tag, img in back_project(waves, grid).items()}


class TestPlanCache:
    @pytest.fixture
    def tables(self, monkeypatch):
        """The weight tables ``back_project`` builds, from an empty cache."""
        import attenpat.recon as recon

        tables = []
        inner = recon._inner_weight_matrix

        def spy(times, dist_nodes):
            tables.append(inner(times, dist_nodes))
            return tables[-1]

        monkeypatch.setattr(recon, "_inner_weight_matrix", spy)
        monkeypatch.setattr(recon, "_CACHE", {})
        return tables

    def test_equal_geometries_share_one_table(self, tables):
        import attenpat.recon as recon

        first = _random_images(*_plan_geometry())
        again = _random_images(*_plan_geometry())  # new but equal objects
        assert len(tables) == 1 and len(recon._CACHE) == 1
        (plan,) = recon._CACHE.values()
        assert not plan[2].flags.writeable  # the stored table, with the time derivative folded in
        for tag in first:
            assert np.array_equal(first[tag], again[tag])

    @pytest.mark.parametrize("base, change", [
        ({}, dict(count=49)), ({}, dict(radius=1.8)),
        (dict(kind="line", count=64), dict(standoff=1.8)),
        (dict(kind="line", count=64), dict(length=10.0)),
        ({}, dict(times=60)), ({}, dict(duration=5.0)),
        ({}, dict(size=20)), ({}, dict(half=0.9)), ({}, dict(shift=0.05)),
    ], ids=["count", "radius", "standoff", "length", "time-count", "duration", "image-size",
            "half-extent", "origin"])
    def test_any_geometry_change_builds_a_new_table(self, tables, base, change):
        import attenpat.recon as recon

        _random_images(*_plan_geometry(**base))
        changed = _plan_geometry(**base, **change)
        hit = _random_images(*changed)
        assert len(tables) == 2
        recon._CACHE.clear()
        fresh = _random_images(*changed)
        for tag in hit:
            assert np.array_equal(hit[tag], fresh[tag])

    @pytest.mark.parametrize("geometry", [
        {}, dict(kind="line", count=64, duration=4.0), dict(shift=0.05),
    ], ids=["circle", "line-cut-by-duration", "off-centre"])
    def test_hit_is_bitwise_a_run_after_clearing(self, tables, geometry):
        import attenpat.recon as recon

        miss = _random_images(*_plan_geometry(**geometry), seed=3)
        hit = _random_images(*_plan_geometry(**geometry), seed=3)
        recon._CACHE.clear()
        cleared = _random_images(*_plan_geometry(**geometry), seed=3)
        assert len(tables) == 2
        for tag in miss:
            assert np.array_equal(hit[tag], miss[tag])
            assert np.array_equal(hit[tag], cleared[tag])

    def test_bounded_and_oldest_dropped_first(self, tables):
        import attenpat.recon as recon

        limit = recon._CACHE_LIMIT
        for i in range(limit + 3):
            _random_images(*_plan_geometry(count=16 + i, size=8))
            assert len(recon._CACHE) <= limit
        assert len(tables) == limit + 3
        _random_images(*_plan_geometry(count=16 + limit + 2, size=8))  # the newest: kept
        assert len(tables) == limit + 3
        _random_images(*_plan_geometry(count=16, size=8))  # the oldest: dropped
        assert len(tables) == limit + 4 and len(recon._CACHE) == limit

    def test_rejected_geometry_is_not_kept(self, tables):
        import attenpat.recon as recon

        with pytest.raises(ValueError, match="outside"):
            _random_images(*_plan_geometry(half=2.0))
        assert recon._CACHE == {}


class TestUbp3d:
    R0 = 0.5
    RADIUS = 1.7

    def _traces(self, sensors, n_t=160, duration=3.2):
        tg = TimeGrid.from_duration(duration, n_t)
        dists = np.linalg.norm(sensors.points, axis=1)
        vals = np.stack([ball_nwave_oracle(self.R0, d, tg.times) for d in dists], axis=1)
        return WaveData(vals, tg, sensors, kind="pressure")

    def test_zero_traces(self):
        sensors = SensorArray.sphere_fibonacci(1.7, 64)
        tg = TimeGrid.from_duration(3.0, 50)
        traces = WaveData(np.zeros((50, 64)), tg, sensors, kind="pressure")
        grid = ImageGrid.centered(8, 0.5, ndim=3)
        assert np.all(ubp_3d_spherical(traces, grid).values == 0.0)

    def test_ball_center_and_exterior(self):
        sensors = SensorArray.sphere_fibonacci(self.RADIUS, 200)
        traces = self._traces(sensors)
        grid = ImageGrid(shape=(21, 1, 1), spacing=0.1, origin=(-1.0, 0.0, 0.0))
        img = ubp_3d_spherical(traces, grid)
        line = img.values[:, 0, 0]
        xs = grid.axes()[0]
        assert line[np.argmin(np.abs(xs))] == pytest.approx(1.0, abs=0.15)
        # 200 sensors leave more jump-capture noise than the 500 used at scale
        assert abs(line[0]) <= 0.2 and abs(line[-1]) <= 0.2

    def _com(self, img, grid, threshold=0.5):
        mask = img > threshold * img.max()
        pts = grid.points()[mask.ravel()]
        return pts.mean(axis=0)

    def test_translation_equivariance(self):
        # shifting the ball shifts the reconstructed plateau accordingly
        sensors = SensorArray.sphere_fibonacci(self.RADIUS, 300)
        tg = TimeGrid.from_duration(3.2, 160)
        shift = np.array([0.2, 0.0, 0.0])
        grid = ImageGrid.centered(16, 0.8, ndim=3)

        def recon(center):
            dists = np.linalg.norm(sensors.points - center, axis=1)
            vals = np.stack([ball_nwave_oracle(self.R0, d, tg.times) for d in dists], axis=1)
            traces = WaveData(vals, tg, sensors, kind="pressure")
            return ubp_3d_spherical(traces, grid)

        com0 = self._com(recon(np.zeros(3)).values, grid)
        com1 = self._com(recon(shift).values, grid)
        assert np.linalg.norm((com1 - com0) - shift) <= grid.spacing

    def test_sampled_smooth_phantom(self):
        # smooth radial phantom with densely sampled analytic traces: exact reconstruction
        sig = 0.15
        sensors = SensorArray.sphere_fibonacci(self.RADIUS, 400)
        tg = TimeGrid.from_duration(2 * self.RADIUS + 1, 1000)
        d = np.linalg.norm(sensors.points, axis=1)
        a, b = d - tg.times[:, None], d + tg.times[:, None]
        vals = (a * np.exp(-a**2 / (2 * sig**2)) + b * np.exp(-b**2 / (2 * sig**2))) / (2 * d)
        grid = ImageGrid(shape=(3, 1, 1), spacing=0.5, origin=(0.0, 0.0, 0.0))
        img = ubp_3d_spherical(WaveData(vals, tg, sensors, kind="pressure"), grid)
        expect = np.exp(-np.array([0.0, 0.5, 1.0]) ** 2 / (2 * sig**2))
        assert np.allclose(img.values[:, 0, 0], expect, atol=5e-3)

    def test_wrong_geometry_rejected(self):
        sensors = SensorArray.circle(1.7, 16)
        tg = TimeGrid.from_duration(3.0, 20)
        traces = WaveData(np.zeros((20, 16)), tg, sensors, kind="pressure")
        with pytest.raises(ValueError):
            ubp_3d_spherical(traces, ImageGrid.centered(8, 0.5, ndim=3))


class TestPipelines:
    def _attenuated_disk(self, model, n_t=221, n_sensors=212):
        p, grid, truth = _disk_setup(n_t=n_t, n_sensors=n_sensors)
        system = build_system(model, p.time_grid)
        q = time_integrate(p)
        qa = WaveData(system.matrix @ q.values, p.time_grid, p.sensors, "attenuated_integrated")
        pa = time_differentiate(qa)
        return p, pa, system, grid, truth

    def test_constant_zero_attenuation_equals_naive(self):
        p, grid, truth = _disk_setup(n_t=160, n_sensors=128, image_size=32)
        base = reconstruct_naive(p.replace_values(p.values, kind="attenuated"), grid)
        zero = reconstruct_compensated(p.replace_values(p.values, kind="attenuated"), 0.0, grid)
        assert np.max(np.abs(base.values - zero.values)) <= 1e-10 * np.abs(base.values).max()

    def test_full_with_identity_system_equals_naive(self):
        p, grid, truth = _disk_setup(n_t=160, n_sensors=128, image_size=32)
        tg = p.time_grid
        system = build_system(ConstantModel(0.0), tg)
        pa = p.replace_values(p.values, kind="attenuated")
        full = reconstruct_full(pa, system, grid)
        naive = reconstruct_naive(pa, grid)
        assert np.max(np.abs(full.values - naive.values)) <= 1e-10 * np.abs(naive.values).max()

    def test_constant_full_and_constant_route_agree(self):
        model = ConstantModel(0.45)
        p, pa, system, grid, truth = self._attenuated_disk(model)
        img_const = reconstruct_compensated(pa, 0.45, grid)
        img_full = reconstruct_full(pa, system, grid)
        scale = np.abs(img_full.values).max()
        assert np.max(np.abs(img_const.values - img_full.values)) <= 1e-8 * scale

    def test_constant_attenuation_comparative_errors(self):
        model = ConstantModel(0.45)
        p, pa, system, grid, truth = self._attenuated_disk(model)
        e_lossless = _rel(reconstruct_naive(p, grid).values, truth)
        e_const = _rel(reconstruct_compensated(pa, 0.45, grid).values, truth)
        e_naive = _rel(reconstruct_naive(pa, grid).values, truth)
        assert e_const <= 1.25 * e_lossless
        assert e_naive > e_const

    def test_nsw_full_beats_naive(self):
        model = NswModel(0.11, 0.10)
        p, pa, system, grid, truth = self._attenuated_disk(model)
        e_full = _rel(reconstruct_full(pa, system, grid).values, truth)
        e_naive = _rel(reconstruct_naive(pa, grid).values, truth)
        assert e_full < e_naive

    def test_zero_data_pipelines(self):
        tg = TimeGrid.from_duration(6.0, 100)
        sensors = SensorArray.circle(1.7, 32)
        pa = WaveData(np.zeros((100, 32)), tg, sensors, kind="attenuated")
        grid = ImageGrid.centered(16, 1.0)
        assert np.all(reconstruct_compensated(pa, 0.45, grid).values == 0.0)


def test_image_grid_helpers():
    grid = ImageGrid.centered(128, 1.0)
    assert grid.spacing == pytest.approx(2.0 / 128)
    axes = grid.axes()
    assert axes[0][0] == pytest.approx(-1.0 + grid.spacing / 2)
    pts = grid.points()
    assert pts.shape == (128 * 128, 2)


def test_recon_image_validation():
    grid = ImageGrid.centered(8, 1.0)
    with pytest.raises(ValueError):
        ReconImage(np.zeros((4, 4)), grid, "naive-ubp")
    with pytest.raises(ValueError):
        ReconImage(np.full((8, 8), np.nan), grid, "naive-ubp")
