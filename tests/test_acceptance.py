"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each (run with ``pytest -s`` to see them)."""

import time

import numpy as np
import pytest

from attenpat.attenuation import (
    _kernel_rows,
    apply_attenuation,
    build_system,
    compute_r1,
    invert_attenuation,
    kernel_series,
)
from attenpat.experiments import ScenarioConfig, run_scenario
from attenpat.models import (
    ConstantModel,
    NswModel,
    PowerLawModel,
    eval_kstar,
    k_infinity,
    validate_model,
)
from attenpat.recon import (
    ImageGrid,
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
from oracles import (
    ball_nwave_oracle,
    direct_kernel_transforms,
    lossless_errors,
    lossless_image,
    series_matrix,
)

NSW = NswModel(tau=0.11, tau_tilde=0.10)
CONSTANT = ConstantModel(k_inf=0.45)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# --------------------------------------------------------------------------
# criterion 1: constant-law operator identity
# --------------------------------------------------------------------------
def test_criterion_1_constant_operator_identity():
    t0 = time.perf_counter()
    tg = TimeGrid.from_duration(6.0, 443)
    system = build_system(CONSTANT, tg)
    rng = np.random.default_rng(10)
    q = WaveData(rng.standard_normal((443, 16)), tg, SensorArray.circle(1.7, 16),
                 kind="integrated")
    qa = apply_attenuation(system, q)
    expect = np.exp(-0.45 * tg.times)[:, None] * q.values
    defect = float(np.max(np.abs(qa.values - expect)))
    elapsed = time.perf_counter() - t0
    _report(
        1, defect <= 1e-12 and elapsed < 1.0,
        f"pointwise-exponential defect {defect:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)",
    )


# --------------------------------------------------------------------------
# criterion 2: kernel-series recursion against the direct-transform oracle
# --------------------------------------------------------------------------
def test_criterion_2_kernel_series_oracle():
    t0 = time.perf_counter()
    tg = TimeGrid.from_duration(6.0, 443)
    series = kernel_series(NSW, tg, order=10)
    direct = direct_kernel_transforms(
        lambda w: eval_kstar(NSW, w),
        orders=range(1, 11),
        lags=series.lags,
        omega_max=series.omega_max,
        num_nodes=3 * 2**14,
    ).real
    rels = [
        float(np.linalg.norm(series.r[k - 1] - direct[k - 1]) / np.linalg.norm(direct[k - 1]))
        for k in range(1, 11)
    ]

    lags = series.lags
    g1 = compute_r1(lambda w: np.exp(-(w**2) / 2.0), lags)
    gauss1 = float(np.max(np.abs(g1 - 1j * np.exp(-(lags**2) / 2.0))))
    g2 = _kernel_rows(g1, 2, tg.dt)[-1]
    gauss2 = float(np.max(np.abs(g2 + np.exp(-(lags**2) / 4.0) / np.sqrt(2.0))))
    elapsed = time.perf_counter() - t0
    _report(
        2,
        max(rels) <= 1e-3 and gauss1 <= 1e-6 and gauss2 <= 1e-6 and elapsed < 30.0,
        f"recursion vs direct rel err max {max(rels):.2e} (tol 1e-3), "
        f"gaussian pairs {gauss1:.2e}/{gauss2:.2e} (tol 1e-6), {elapsed:.1f}s (< 30s)",
    )


# --------------------------------------------------------------------------
# criterion 3: system round trip and Taylor truncation convergence
# --------------------------------------------------------------------------
def test_criterion_3_system_round_trip():
    t0 = time.perf_counter()
    tg = TimeGrid.from_duration(6.0, 443)
    system = build_system(NSW, tg)
    rng = np.random.default_rng(30)
    t = tg.times
    q = np.stack(
        [
            sum(rng.standard_normal() * np.sin((j + 1) * t) / (j + 1) ** 2 for j in range(16))
            for _ in range(8)
        ],
        axis=1,
    )
    wave = WaveData(q, tg, SensorArray.circle(1.7, 8), kind="integrated")
    back = invert_attenuation(system, apply_attenuation(system, wave))
    rel = float(np.linalg.norm(back.values - q) / np.linalg.norm(q))

    more = kernel_series(NSW, tg, order=system.order + 10)
    plain = series_matrix(more.r, t, tg.dt, k_infinity(NSW))
    trunc = float(np.max(np.abs(system.matrix - plain)) / np.max(np.abs(system.matrix)))
    elapsed = time.perf_counter() - t0
    _report(
        3,
        rel <= 1e-8 and trunc <= 1e-12 and elapsed < 30.0,
        f"round-trip rel err {rel:.2e} (tol 1e-8), K={system.order} vs the plain sum to "
        f"K={system.order + 10} max diff {trunc:.2e} of max|M| (tol 1e-12), "
        f"{elapsed:.1f}s (< 30s)",
    )


# --------------------------------------------------------------------------
# criterion 4: analytic 3-D ball reconstruction
# --------------------------------------------------------------------------
def test_criterion_4_ball_oracle_reconstruction():
    t0 = time.perf_counter()
    r0, radius = 0.5, 1.7
    sensors = SensorArray.sphere_fibonacci(radius, 500)
    tg = TimeGrid.from_duration(3.2, 160)
    dists = np.linalg.norm(sensors.points, axis=1)
    vals = np.stack([ball_nwave_oracle(r0, d, tg.times) for d in dists], axis=1)
    traces = WaveData(vals, tg, sensors, kind="pressure")
    # a line of voxels along x through the center, out to |x| = 1
    grid = ImageGrid(shape=(41, 1, 1), spacing=0.05, origin=(-1.0, 0.0, 0.0))
    img = ubp_3d_spherical(traces, grid)
    line = img.values[:, 0, 0]
    xs = grid.axes()[0]
    center = float(line[np.argmin(np.abs(xs))])
    edge = max(abs(float(line[0])), abs(float(line[-1])))
    elapsed = time.perf_counter() - t0
    _report(
        4,
        abs(center - 1.0) <= 0.1 and edge <= 0.1 and elapsed < 120.0,
        f"center {center:.4f} (1 +- 0.1), |value| at radius 1.0 = {edge:.4f} (<= 0.1), "
        f"{elapsed:.1f}s (< 2min)",
    )


# --------------------------------------------------------------------------
# criterion 5: lossless 2-D self-consistency on a centered disk
# --------------------------------------------------------------------------
def test_criterion_5_lossless_disk_self_consistency():
    t0 = time.perf_counter()
    phantom = disk_phantom(0.4, 1.0, 128)
    tg = TimeGrid.from_duration(6.0, 443)
    sensors = SensorArray.circle(1.7, 849)
    p = spectral_forward(phantom, tg, sensors)
    grid = ImageGrid.centered(128, 1.0)
    img = ubp_2d(p, grid)
    axes = grid.axes()
    X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
    truth = phantom.evaluate(X, Y)
    mask = truth > 0
    rel = float(np.linalg.norm((img.values - truth)[mask]) / np.linalg.norm(truth[mask]))
    elapsed = time.perf_counter() - t0
    _report(
        5, rel <= 0.15 and elapsed < 180.0,
        f"support rel L2 err {rel:.4f} (tol 0.15), {elapsed:.1f}s (< 3min)",
    )


# --------------------------------------------------------------------------
# criteria 6 + 7: the four mirrored experiments, noise-free and at 20% noise
# --------------------------------------------------------------------------
SCENARIOS = {
    "constant-circle": dict(model=CONSTANT, geometry={"kind": "circle"}),
    "nsw-circle": dict(model=NSW, geometry={"kind": "circle"}),
    "constant-line": dict(model=CONSTANT, geometry={"kind": "line"}),
    "nsw-line": dict(model=NSW, geometry={"kind": "line"}),
}


@pytest.fixture(scope="module")
def scenario_results():
    results = {}
    timings = {}
    for name, spec in SCENARIOS.items():
        for noise in (0.0, 0.2):
            config = ScenarioConfig(noise_level=noise, seed=77, **spec)
            t0 = time.perf_counter()
            results[(name, noise)] = run_scenario(config)
            timings[(name, noise)] = time.perf_counter() - t0
    return results, timings


def test_criterion_6_experiment_error_ordering(scenario_results):
    results, timings = scenario_results
    lines = []
    ok = True
    for name in SCENARIOS:
        res = results[(name, 0.0)]
        err = res.errors
        if name.startswith("nsw"):
            good = err["full"] < err["compensated"] < err["naive"]
            lines.append(
                f"{name}: full {err['full']:.4f} < compensated {err['compensated']:.4f}"
                f" < naive {err['naive']:.4f} -> {'ok' if good else 'VIOLATED'}"
            )
        else:
            good = err["full"] < err["naive"]
            lines.append(
                f"{name}: full {err['full']:.4f} < naive {err['naive']:.4f}"
                f" -> {'ok' if good else 'VIOLATED'}"
            )
        ok = ok and good
    slowest = max(timings.values())
    ok = ok and slowest < 300.0
    _report(6, ok, "; ".join(lines) + f"; slowest scenario {slowest:.0f}s (< 5min)")


def test_criterion_6_mechanism_is_the_low_band(scenario_results):
    # the README's reason for criterion 6's failure, checked: on the noise-free circle
    # the exponential-only compensation's error against the lossless image lies in the
    # lowest spatial frequencies, and above them it beats the naive image in every band
    results, _ = scenario_results
    result = results[("nsw-circle", 0.0)]
    lossless = lossless_image(result).values
    freq = np.fft.fftfreq(lossless.shape[0])  # cycles per pixel
    radius = np.hypot(*np.meshgrid(freq, freq, indexing="ij"))
    edges = [0.0, 0.02, 0.05, 0.1, 0.2, np.inf]

    scale = np.linalg.norm(np.fft.fft2(lossless))

    def band_norms(name):  # as fractions of the lossless image's norm
        power = np.abs(np.fft.fft2(result.reconstructions[name].values - lossless)) ** 2
        return np.sqrt([power[(radius >= lo) & (radius < hi)].sum()
                        for lo, hi in zip(edges, edges[1:])]) / scale

    naive, compensated = band_norms("naive"), band_norms("compensated")
    print(f"\n[criterion 6 mechanism] error by band: naive {np.round(naive, 4)}, "
          f"compensated {np.round(compensated, 4)}")
    assert np.all(compensated[1:] < naive[1:]), (naive, compensated)
    assert compensated[0] > 0.95 * np.linalg.norm(compensated)  # 99.5 % measured


def test_full_matches_the_lossless_back_projection(scenario_results):
    # against the truth raster every method carries the back-projection's own error
    # (about 0.2 on the circle); against the lossless image only the attenuation step's
    results, _ = scenario_results
    errors = {name: lossless_errors(results[(name, 0.0)]) for name in ("nsw-circle", "nsw-line")}
    print("\n[lossless reference] " + "; ".join(
        f"{name}: " + ", ".join(f"{m} {e:.3e}" for m, e in err.items())
        for name, err in errors.items()))
    assert all(err["full"] <= 1e-2 for err in errors.values()), errors


def test_criterion_7_noise_stability(scenario_results):
    results, _ = scenario_results
    lines = []
    ok = True
    for name in SCENARIOS:
        clean = results[(name, 0.0)].errors["full"]
        noisy = results[(name, 0.2)].errors["full"]
        good = noisy <= 2.0 * clean
        ok = ok and good
        lines.append(f"{name}: noisy {noisy:.4f} vs clean {clean:.4f}"
                     f" -> {'ok' if good else 'VIOLATED'}")
    _report(7, ok, "; ".join(lines))


# --------------------------------------------------------------------------
# criterion 8: model validation suite
# --------------------------------------------------------------------------
def test_criterion_8_model_validation_suite():
    t0 = time.perf_counter()
    grid = np.linspace(-100.0, 100.0, 2001)
    power = PowerLawModel(amplitude=0.005, exponent=2.0)
    reports = {
        "constant": validate_model(CONSTANT, grid),
        "nsw": validate_model(NSW, grid),
        "power-law": validate_model(power, grid),
    }
    sym_ok = all(r.symmetry_defect <= 1e-12 for r in reports.values())
    im_ok = all(r.min_im >= -1e-12 for r in reports.values())
    # closed form for the constant law: |kappa'|^2 + Im kappa = 1 + k_inf
    closed_form = 1.0 + CONSTANT.k_inf
    dbound_ok = (
        closed_form == 1.45
        and abs(reports["constant"].derivative_bound_min - 1.45) <= 1e-8
        and reports["nsw"].derivative_bound_min > 0.0
    )
    class_ok = (
        reports["power-law"].classification == "strong"
        and reports["nsw"].classification == "weak"
        and reports["constant"].classification == "weak"
    )
    elapsed = time.perf_counter() - t0
    _report(
        8,
        sym_ok and im_ok and dbound_ok and class_ok and elapsed < 10.0,
        f"symmetry<=1e-12 {sym_ok}, Im>=-1e-12 {im_ok}, "
        f"derivative bound constant {reports['constant'].derivative_bound_min:.10f} (closed form 1.45) "
        f"nsw {reports['nsw'].derivative_bound_min:.4f} > 0, "
        f"classes: constant={reports['constant'].classification} "
        f"nsw={reports['nsw'].classification} power={reports['power-law'].classification}, "
        f"{elapsed:.1f}s (< 10s)",
    )


# --------------------------------------------------------------------------
# criterion 9: discrete calculus and back-projection linearity
# --------------------------------------------------------------------------
def test_criterion_9_discrete_calculus_and_linearity():
    rng = np.random.default_rng(90)
    tg = TimeGrid.from_duration(6.0, 200)
    sensors = SensorArray.circle(1.7, 64)
    w = WaveData(rng.standard_normal((200, 64)), tg, sensors, kind="pressure")
    back = time_differentiate(time_integrate(w))
    calc = float(np.max(np.abs(back.values - w.values)) / np.max(np.abs(w.values)))

    grid = ImageGrid.centered(24, 1.0)
    a = rng.standard_normal((200, 64))
    b = rng.standard_normal((200, 64))
    img = lambda v: ubp_2d(WaveData(v, tg, sensors, kind="pressure"), grid).values
    ia, ib = img(a), img(b)
    scale2 = float(np.abs(ia).max() + np.abs(ib).max())
    lin2 = max(
        float(np.max(np.abs(img(a + b) - ia - ib))),
        float(np.max(np.abs(img(3.0 * a) - 3.0 * ia))),
    ) / scale2

    sph = SensorArray.sphere_fibonacci(1.7, 100)
    tg3 = TimeGrid.from_duration(3.0, 100)
    grid3 = ImageGrid.centered(8, 0.5, ndim=3)
    a3 = rng.standard_normal((100, 100))
    b3 = rng.standard_normal((100, 100))
    img3 = lambda v: ubp_3d_spherical(WaveData(v, tg3, sph, kind="pressure"), grid3).values
    ia3, ib3 = img3(a3), img3(b3)
    scale3 = float(np.abs(ia3).max() + np.abs(ib3).max())
    lin3 = max(
        float(np.max(np.abs(img3(a3 + b3) - ia3 - ib3))),
        float(np.max(np.abs(img3(3.0 * a3) - 3.0 * ia3))),
    ) / scale3

    _report(
        9,
        calc <= 1e-14 and lin2 <= 1e-12 and lin3 <= 1e-12,
        f"differentiate(integrate) defect {calc:.2e} (tol 1e-14), "
        f"linearity 2D {lin2:.2e} / 3D {lin3:.2e} (tol 1e-12)",
    )
