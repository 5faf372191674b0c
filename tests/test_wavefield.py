import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from attenpat import wavefield
from attenpat.wavefield import (
    Ellipse,
    GridCapError,
    Phantom,
    SensorArray,
    SEGMENTS,
    SpectralPropagator,
    TimeGrid,
    WaveData,
    disk_phantom,
    make_sensors,
    make_shepp_logan,
    phantom_from_ellipses,
    spectral_forward,
)
from attenpat.wavefield import _band_taper, _next_fast_len
from oracles import (
    ball_nwave_integrated,
    ball_nwave_oracle,
    band_limited_at,
    bilinear_at_sensors,
    propagator_full_field,
    sphere_mean_indicator,
)


class TestTimeGrid:
    def test_times_exclude_zero(self):
        tg = TimeGrid.from_duration(6.0, 443)
        assert tg.times[0] == pytest.approx(6.0 / 443)
        assert tg.times[-1] == pytest.approx(6.0)
        assert tg.count == 443

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            TimeGrid(dt=0.0, count=10)
        with pytest.raises(ValueError):
            TimeGrid(dt=0.1, count=0)


class TestSensors:
    def test_circle_first_points(self):
        arr = SensorArray.circle(1.7, 4)
        expected = np.array([[1.7, 0.0], [0.0, 1.7], [-1.7, 0.0], [0.0, -1.7]])
        assert np.allclose(arr.points, expected, atol=1e-15)

    def test_circle_radial_normals(self):
        arr = SensorArray.circle(1.7, 48)
        assert np.allclose(np.einsum("ij,ij->i", arr.normals, arr.points), 1.7)

    def test_circle_weights_sum_to_circumference(self):
        arr = SensorArray.circle(1.7, 849)
        assert arr.weights.sum() == pytest.approx(2 * np.pi * 1.7)

    def test_line_span_and_normals(self):
        arr = SensorArray.line(length=10.2, standoff=1.7, count=849)
        assert arr.n == 849
        assert arr.points[:, 0].min() == pytest.approx(-5.1)
        assert arr.points[:, 0].max() == pytest.approx(5.1)
        assert np.all(arr.points[:, 1] == -1.7)
        assert np.all(arr.normals == [0.0, -1.0])

    def test_rejects_nonpositive_geometry(self):
        with pytest.raises(ValueError):
            SensorArray.circle(0.0, 16)
        with pytest.raises(ValueError):
            SensorArray.line(length=-1.0, standoff=1.7, count=16)
        with pytest.raises(ValueError):
            SensorArray.line(length=10.2, standoff=0.0, count=16)

    def test_sphere_on_radius(self):
        arr = SensorArray.sphere_fibonacci(1.7, 500)
        assert np.allclose(np.linalg.norm(arr.points, axis=1), 1.7)
        assert arr.weights.sum() == pytest.approx(4 * np.pi * 1.7**2)

    def test_make_sensors_spec(self):
        arr = make_sensors({"kind": "line", "length": 10.2, "standoff": 1.7, "count": 64})
        assert arr.kind == "line"
        with pytest.raises(ValueError, match="geometry.kind"):
            make_sensors({"kind": "helix"})

    @pytest.mark.parametrize("spec, key", [
        ({"kind": "circle", "radius": 1.7, "count": 8, "radus": 3}, "radus"),
        ({"kind": "circle", "radius": 1.7, "count": 8, "length": 10.2}, "length"),
        ({"kind": "line", "length": 10.2, "standoff": 1.7, "count": 8, "radius": 3.0}, "radius"),
        ({"kind": "sphere", "radius": 1.7, "count": 8, "standoff": 1.7}, "standoff"),
    ])
    def test_make_sensors_rejects_keys_the_kind_does_not_read(self, spec, key):
        with pytest.raises(ValueError, match=rf"^geometry\.{key}: unknown field for kind "):
            make_sensors(spec)


class TestSheppLogan:
    def test_max_is_outer_shell_value(self):
        ph = make_shepp_logan(128, half_extent=2.0)
        assert ph.values.max() == pytest.approx(2.0)

    def test_zero_outside_support(self):
        ph = make_shepp_logan(128, half_extent=2.0)
        assert ph.evaluate(np.array(1.5), np.array(1.5)) == 0.0
        assert ph.values[0, 0] == 0.0

    def test_clipping_guard(self):
        with pytest.raises(ValueError):
            make_shepp_logan(128, half_extent=0.5)

    def test_single_ellipse_integral(self):
        # integral of an ellipse indicator is pi*a*b*c
        ph = phantom_from_ellipses(
            [Ellipse(intensity=1.5, center=(0.1, -0.2), axes=(0.5, 0.3), angle_deg=30.0)],
            grid_size=256,
            half_extent=1.0,
        )
        integral = ph.values.sum() * ph.spacing**2
        assert integral == pytest.approx(np.pi * 0.5 * 0.3 * 1.5, rel=0.01)

    def test_interior_plateau_value(self):
        # inside the skull: 2.0 - 0.98 = 1.02
        ph = make_shepp_logan(256, half_extent=1.0)
        idx = int(round((0.0 - ph.origin[0]) / ph.spacing))
        idy = int(round((-0.4 - ph.origin[1]) / ph.spacing))
        assert ph.values[idx, idy] == pytest.approx(1.02)


class TestBallOracle:
    def test_zero_crossing_at_arrival_center(self):
        assert ball_nwave_oracle(0.5, 1.7, 1.7) == 0.0

    def test_leading_edge_value(self):
        assert ball_nwave_oracle(0.5, 1.7, 1.2) == pytest.approx(0.5 / 3.4)
        assert ball_nwave_oracle(0.5, 1.7, 1.2) == pytest.approx(0.14705882352941177)

    def test_outside_support(self):
        assert ball_nwave_oracle(0.5, 1.7, 2.5) == 0.0
        assert ball_nwave_oracle(0.5, 1.7, 0.3) == 0.0

    def test_integrated_peak(self):
        assert ball_nwave_integrated(0.5, 1.7, 1.7) == pytest.approx(0.25 / 6.8)

    def test_derivative_consistency(self):
        # central differences of q reproduce p to O(dt^2) inside the support
        d, r0, h = 1.7, 0.5, 1e-5
        t = np.linspace(1.25, 2.15, 101)
        dq = (ball_nwave_integrated(r0, d, t + h) - ball_nwave_integrated(r0, d, t - h)) / (2 * h)
        assert np.max(np.abs(dq - ball_nwave_oracle(r0, d, t))) < 1e-9

    def test_against_spherical_mean_quadrature(self):
        # independent oracle: q(t) = t * (spherical mean of the indicator)
        r0, d = 0.5, 1.7
        for t in (1.3, 1.7, 2.1):
            mean = sphere_mean_indicator(r0, d, t)
            assert t * mean == pytest.approx(ball_nwave_integrated(r0, d, t), abs=5e-4)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            ball_nwave_oracle(1.7, 0.5, 1.0)


def _gaussian_phantom(sigma=0.08, n=128, half=1.0):
    axis = -half + 2 * half / n * (np.arange(n) + 0.5)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    vals = np.exp(-(X**2 + Y**2) / (2 * sigma**2))
    return Phantom(values=vals, spacing=axis[1] - axis[0], origin=(axis[0], axis[0]))


class TestSpectralPropagator:
    def test_zero_phantom_zero_pressure(self):
        ph = Phantom(values=np.zeros((64, 64)), spacing=0.03, origin=(-0.945, -0.945))
        tg = TimeGrid.from_duration(2.0, 40)
        sensors = SensorArray.circle(1.2, 16)
        wave = spectral_forward(ph, tg, sensors)
        assert np.all(wave.values == 0.0)
        assert wave.kind == "pressure"

    def test_single_mode_is_exact(self):
        # initial data cos(k . x) on the periodic grid evolves as cos(|k|t) cos(k . x).  A
        # raster of 192 nodes at dx 1/64 (exact in binary) spans a side of 3; with sensors
        # at radius 0.2 and duration 0.1 the propagator's grid is exactly that raster
        size, dx = 192, 1.0 / 64.0
        x = (np.arange(size) - size // 2) * dx
        kx, ky = 2 * np.pi * 3 / (size * dx), 2 * np.pi * 5 / (size * dx)  # below the taper
        mode = np.cos(np.add.outer(kx * x, ky * x))
        prop = SpectralPropagator(Phantom(mode, dx, (x[0], x[0])), SensorArray.circle(0.2, 8),
                                  duration=0.1, target_dx=dx)
        assert prop.size == size and np.array_equal(prop.axis, x)
        for t in (0.0, 0.37, 1.9):
            expect = np.cos(np.hypot(kx, ky) * t) * mode[prop.rows]
            assert np.max(np.abs(prop.pressure_field(t) - expect)) <= 1e-12

    def test_rotational_symmetry_of_traces(self):
        # sensors on the dihedral orbit of the grid see identical traces
        ph = _gaussian_phantom(sigma=0.15)
        tg = TimeGrid.from_duration(2.0, 60)
        sensors = SensorArray.circle(1.2, 4)
        wave = spectral_forward(ph, tg, sensors, target_dx=0.02)
        spread = wave.values.max(axis=1) - wave.values.min(axis=1)
        assert spread.max() <= 1e-8 * np.abs(wave.values).max()

    def test_energy_invariant_per_mode(self):
        ph = _gaussian_phantom()
        sensors = SensorArray.circle(1.2, 8)
        prop = SpectralPropagator(ph, sensors, duration=2.0, target_dx=0.02)
        k = prop.abs_k

        def mode_energy(t):
            phat = prop.h_hat * np.cos(k * t)
            qhat_scaled = prop.h_hat * np.where(k > 0, np.sin(k * t), 0.0)
            return np.abs(phat) ** 2 + np.abs(qhat_scaled) ** 2

        e1, e2 = mode_energy(0.3), mode_energy(1.7)
        scale = np.abs(prop.h_hat) ** 2 + 1e-300
        assert np.max(np.abs(e1 - e2) / scale) <= 1e-10

    def test_finite_speed_on_grid(self):
        # Gaussian bump: field beyond r + t + margin stays at band-limited noise level
        sigma = 0.08
        ph = _gaussian_phantom(sigma=sigma, n=192, half=1.0)
        sensors = SensorArray.circle(1.2, 8)
        prop = SpectralPropagator(ph, sensors, duration=2.0, target_dx=0.02)
        r_support = 10 * sigma
        t = 1.0
        field = propagator_full_field(prop, t)
        assert np.array_equal(prop.pressure_field(t), field[prop.rows])
        X, Y = np.meshgrid(prop.axis, prop.axis, indexing="ij")
        outside = np.hypot(X, Y) >= r_support + t + 0.3
        initial = propagator_full_field(prop, 0.0)
        assert np.abs(field[outside]).max() <= 1e-6 * np.abs(initial).max()

    def test_full_field_matches_irfft2(self):
        prop = SpectralPropagator(_gaussian_phantom(), SensorArray.circle(1.2, 8),
                                  duration=2.0, target_dx=0.02)
        assert prop.rows.size < prop.size
        for t in (0.0, 0.37, 1.9):
            expect = propagator_full_field(prop, t)[prop.rows]
            assert np.array_equal(prop.pressure_field(t), expect)

    @pytest.mark.parametrize(
        "sensors",
        [SensorArray.circle(1.2, 24), SensorArray.line(3.0, 1.2, 24)],
        ids=["circle", "line"],
    )
    def test_row_pruned_traces_equal_full_field_loop(self, sensors):
        # segment j of the 30 samples runs on a grid built for j/SEGMENTS of the duration
        ph = _gaussian_phantom(sigma=0.1, n=64)
        tg = TimeGrid.from_duration(2.0, 30)
        wave = spectral_forward(ph, tg, sensors, target_dx=0.03)
        bounds = [tg.count * j // SEGMENTS for j in range(SEGMENTS + 1)]
        assert bounds == [0, 7, 15, 22, 30]
        sizes = []
        for j in range(1, SEGMENTS + 1):
            prop = SpectralPropagator(ph, sensors, tg.duration * j / SEGMENTS, target_dx=0.03)
            assert prop.rows.size < prop.size and prop.dx == 0.03
            sizes.append(prop.size)
            part = slice(bounds[j - 1], bounds[j])
            expect = np.array([bilinear_at_sensors(prop, propagator_full_field(prop, t), sensors)
                               for t in tg.times[part]])
            assert np.abs(wave.values[part] - expect).max() <= 1e-12
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]

    def test_grid_over_cap_names_target_dx(self):
        # side about 5 at dx 1e-3 needs a 5000-point grid: refused, not coarsened
        sensors = SensorArray.circle(1.2, 8)
        with pytest.raises(GridCapError, match=r"exceeds the 2048x2048 cap: dx 0\.001 is too "
                                               r"fine .* smallest dx that fits is about 0\.00\d+$"):
            SpectralPropagator(_gaussian_phantom(), sensors, duration=2.0, target_dx=1e-3)

    def test_grid_over_cap_fails_before_any_step(self, monkeypatch):
        # at dx 2e-3 the first segment's grid (1875 points) fits, the whole duration's does not
        steps = []
        monkeypatch.setattr(SpectralPropagator, "pressure_field",
                            lambda self, t: steps.append(t))
        with pytest.raises(GridCapError):
            spectral_forward(_gaussian_phantom(), TimeGrid.from_duration(2.0, 4),
                             SensorArray.circle(1.2, 8), target_dx=2e-3)
        assert steps == []

    @pytest.mark.parametrize(
        "sensors, duration",
        [(SensorArray.circle(1.7, 64), 6.0), (SensorArray.line(10.2, 1.7, 64), 8.0)],
        ids=["nsw_circle", "nsw_line"],
    )
    def test_concurrent_segments_equal_one_at_a_time(self, sensors, duration, monkeypatch):
        # the benchmark geometries at a coarse dx: all four segments at once, then one by one
        ph, tg = make_shepp_logan(32), TimeGrid.from_duration(duration, 60)
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: SEGMENTS)
        wave = spectral_forward(ph, tg, sensors, target_dx=0.05)
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 1)
        serial = spectral_forward(ph, tg, sensors, target_dx=0.05)
        assert np.array_equal(wave.values, serial.values)

    def test_no_more_grids_alive_than_workers(self, monkeypatch):
        events = []  # +1 as a grid is built, -1 as it is freed
        init = SpectralPropagator.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            events.append(1)
            weakref.finalize(self, events.append, -1)

        monkeypatch.setattr(SpectralPropagator, "__init__", counted)
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 2)
        spectral_forward(make_shepp_logan(32), TimeGrid.from_duration(6.0, 60),
                         SensorArray.circle(1.7, 64), target_dx=0.05)
        alive = np.cumsum(events)
        assert len(events) == 2 * SEGMENTS and alive.max() <= 2 and alive[-1] == 0

    def test_empty_segments_build_no_grid(self, monkeypatch):
        # 2 samples in 4 segments: bounds [0, 0, 1, 1, 2], so only segments 2 and 4 step
        events = []
        init = SpectralPropagator.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            events.append(1)
            weakref.finalize(self, events.append, -1)

        monkeypatch.setattr(SpectralPropagator, "__init__", counted)
        ph, tg = make_shepp_logan(32), TimeGrid.from_duration(6.0, 2)
        sensors = SensorArray.circle(1.7, 64)
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: SEGMENTS)
        wave = spectral_forward(ph, tg, sensors, target_dx=0.05)
        assert events.count(1) == 2 and sum(events) == 0
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: 1)
        serial = spectral_forward(ph, tg, sensors, target_dx=0.05)
        assert np.array_equal(wave.values, serial.values)

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        # only the last segment's worker fails; the others run to their end
        step = SpectralPropagator.pressure_field

        def failing(self, t):
            if t > 1.5:
                raise FloatingPointError(f"step at t = {t:g} failed")
            return step(self, t)

        monkeypatch.setattr(SpectralPropagator, "pressure_field", failing)
        monkeypatch.setattr(wavefield, "_cpu_count", lambda: SEGMENTS)
        threads = threading.active_count()
        with pytest.raises(FloatingPointError, match="failed"):
            spectral_forward(_gaussian_phantom(n=64), TimeGrid.from_duration(2.0, 40),
                             SensorArray.circle(1.2, 8), target_dx=0.03)
        assert threading.active_count() == threads

    def test_step_allocates_nothing_grid_sized(self):
        # numpy reports its data buffers to tracemalloc; the step writes into buffers the
        # constructor made, leaving the ufunc's fixed casting buffer (8192 complex)
        prop = SpectralPropagator(_gaussian_phantom(), SensorArray.circle(1.2, 32),
                                  duration=4.0, target_dx=0.02)  # a 360-point grid
        prop.pressure_field(0.3)
        tracemalloc.start()
        try:
            prop.pressure_field(0.7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < prop.size**2 * 8 / 4

    def test_sensor_outside_domain_rejected(self):
        ph = _gaussian_phantom()
        sensors = SensorArray.circle(1.2, 8)
        with pytest.raises(ValueError, match="outside"):
            # a 6-point grid (dx about 0.68) leaves the sensor at x = 1.2 past the interior
            SpectralPropagator(ph, sensors, duration=1.0, target_dx=0.8)

    @pytest.mark.parametrize(
        "phantom",
        [
            make_shepp_logan(96),
            disk_phantom(0.4, 1.0, 64),
            # the second ellipse reaches past the raster's half extent 0.9
            phantom_from_ellipses([Ellipse(1.0, (0.3, -0.2), (0.5, 0.15), 35.0),
                                   Ellipse(-0.5, (-0.6, 0.5), (0.7, 0.2), -60.0)], 64, 0.9),
            # a coarse raster: non-zero up to its edges, ellipses=None
            Phantom(values=np.ones((20, 16)), spacing=0.1, origin=(-0.95, -0.6)),
        ],
        ids=["shepp-logan", "disk", "rotated-ellipses", "raster"],
    )
    def test_block_raster_equals_full_grid(self, phantom):
        prop = SpectralPropagator(phantom, SensorArray.circle(1.2, 8), duration=2.0,
                                  target_dx=0.02)
        X, Y = np.meshgrid(prop.axis, prop.axis, indexing="ij")
        taper = _band_taper(prop.abs_k * (prop.dx / np.pi))
        assert np.array_equal(prop.h_hat, np.fft.rfft2(phantom.evaluate(X, Y)) * taper)

    def test_band_taper_values(self):
        s = np.array([0.0, 0.5, 0.75, 0.8, 0.875, 0.95, 1.0, 1.2, np.sqrt(2.0)])
        expect = [1.0, 1.0, 1.0, (1 + np.cos(np.pi / 5)) / 2, 0.5,
                  (1 + np.cos(np.pi * 0.8)) / 2, 0.0, 0.0, 0.0]
        assert np.allclose(_band_taper(s), expect, rtol=0, atol=1e-15)

    def test_gaussian_against_hankel_oracle(self):
        # independent oracle: a Gaussian of width sigma has the radial pressure
        # p(r, t) = sigma^2 int exp(-sigma^2 rho^2 / 2) J0(rho r) cos(rho t) rho drho
        from scipy.special import j0

        sigma, r = 0.12, 1.7
        ph = _gaussian_phantom(sigma=sigma, n=256)
        tg = TimeGrid.from_duration(4.0, 200)
        wave = spectral_forward(ph, tg, SensorArray.circle(r, 64))
        x, w = np.polynomial.legendre.leggauss(2000)
        rho, w = 40.0 * (x + 1.0), 40.0 * w  # the integrand is below 1e-18 past rho = 80
        weight = w * sigma**2 * np.exp(-0.5 * (sigma * rho) ** 2) * j0(rho * r) * rho
        oracle = np.cos(np.outer(tg.times, rho)) @ weight
        err = np.abs(wave.values - oracle[:, None]).max()
        assert err <= 2.5e-3 * np.abs(oracle).max()

    def test_sensor_sampling_against_the_band_limited_field(self):
        # the direct sum over the modes is the grid's own field: at the nodes it is the
        # inverse transform, between them what exact sensor sampling would read
        sensors = SensorArray.circle(1.2, 24)
        prop = SpectralPropagator(disk_phantom(0.4, 1.0, 32), sensors, 1.6, target_dx=0.05)
        X, Y = np.meshgrid(prop.axis[prop.rows], prop.axis, indexing="ij")
        nodes = np.column_stack([X.ravel(), Y.ravel()])
        worst = peak = 0.0
        for t in np.linspace(0.5, 1.6, 12):  # the disk's wavefront crosses the sensors
            field = prop.pressure_field(t)
            direct = band_limited_at(prop, t, nodes).reshape(field.shape)
            assert np.abs(direct - field).max() <= 1e-12 * np.abs(field).max()
            exact = band_limited_at(prop, t, sensors.points)
            worst = max(worst, np.abs(prop.sample(field) - exact).max())
            peak = max(peak, np.abs(exact).max())
        # bilinear sampling of the disk's sharp edge: 7.98e-2 of max|trace| measured
        assert worst <= 0.1 * peak

    @pytest.mark.parametrize(
        "sensors, duration",
        [(SensorArray.circle(1.2, 32), 2.0), (SensorArray.line(3.0, 1.2, 32), 3.0)],
        ids=["circle", "line"],
    )
    def test_segments_match_a_larger_grid(self, sensors, duration):
        # the wavefront-sized segment grids against one grid built for 1.5x the duration at
        # the same dx; without the band taper the kernel tails wrap around (3e-3 to 8e-3)
        ph = make_shepp_logan(96)
        tg = TimeGrid.from_duration(duration, 100)
        wave = spectral_forward(ph, tg, sensors)
        prop = SpectralPropagator(ph, sensors, 1.5 * duration, min(tg.dt, ph.spacing))
        ref = np.array([prop.sample(prop.pressure_field(t)) for t in tg.times])
        assert np.abs(wave.values - ref).max() <= 5e-5 * np.abs(ref).max()


def test_next_fast_len_matches_scipy():
    from scipy.fft import next_fast_len

    lengths = range(1, 4097)
    assert [_next_fast_len(n) for n in lengths] == [next_fast_len(n, real=True) for n in lengths]


class TestWaveData:
    def test_shape_checked(self):
        tg = TimeGrid.from_duration(1.0, 10)
        sensors = SensorArray.circle(1.0, 4)
        with pytest.raises(ValueError):
            WaveData(np.zeros((10, 5)), tg, sensors, kind="pressure")

    def test_kind_checked(self):
        tg = TimeGrid.from_duration(1.0, 10)
        sensors = SensorArray.circle(1.0, 4)
        with pytest.raises(ValueError):
            WaveData(np.zeros((10, 4)), tg, sensors, kind="velocity")

    def test_finite_checked(self):
        tg = TimeGrid.from_duration(1.0, 10)
        sensors = SensorArray.circle(1.0, 4)
        values = np.zeros((10, 4))
        values[3, 2] = np.nan
        with pytest.raises(ValueError):
            WaveData(values, tg, sensors, kind="pressure")


def test_disk_phantom_values():
    ph = disk_phantom(0.4, 1.0, 128)
    assert ph.evaluate(np.array(0.0), np.array(0.0)) == 1.0
    assert ph.evaluate(np.array(0.5), np.array(0.0)) == 0.0
