import numpy as np
import pytest

from attenpat.attenuation import (
    _kernel_rows,
    AttenuationSystem,
    ConditioningError,
    apply_attenuation,
    build_system,
    compute_r1,
    invert_attenuation,
    kernel_series,
    lag_grid,
)
from attenpat.models import (
    ConstantModel,
    NswModel,
    PowerLawModel,
    TabulatedWeakModel,
    eval_kstar,
    k_infinity,
)
from attenpat.recon import time_differentiate, time_integrate
from attenpat.wavefield import SensorArray, TimeGrid, WaveData
from oracles import (
    attenuated_series_loop,
    constant_attenuated_mode,
    direct_kernel_transforms,
    nsw_attenuated_mode,
    series_matrix,
)

NSW = NswModel(tau=0.11, tau_tilde=0.10)
CONSTANT = ConstantModel(k_inf=0.45)

GRID_443 = TimeGrid.from_duration(6.0, 443)


def _wave(values, tg, kind="integrated"):
    sensors = SensorArray.circle(1.7, values.shape[1])
    return WaveData(values, tg, sensors, kind=kind)


class TestComputeR1:
    def test_constant_kernel_vanishes(self):
        lags = lag_grid(TimeGrid.from_duration(2.0, 40))
        r1 = compute_r1(CONSTANT, lags)
        assert np.max(np.abs(r1)) <= 1e-14

    def test_gaussian_analytic_pair(self):
        # machinery check with k_star(w) = exp(-w^2/2), an asymmetric test
        # kernel whose transform is known:  r1(t) = 1j * exp(-t^2/2)
        lags = lag_grid(TimeGrid.from_duration(6.0, 443))
        r1 = compute_r1(lambda w: np.exp(-(w**2) / 2.0), lags)
        assert np.max(np.abs(r1 - 1j * np.exp(-(lags**2) / 2.0))) <= 1e-6

    def test_nsw_quadrature_self_convergence(self):
        lags = lag_grid(TimeGrid.from_duration(6.0, 221))
        coarse = compute_r1(NSW, lags, omega_max=200.0, num_nodes=2**14)
        fine = compute_r1(NSW, lags, omega_max=200.0, num_nodes=10 * 2**14)
        scale = np.max(np.abs(fine))
        assert np.max(np.abs(coarse - fine)) <= 1e-6 * scale

    def test_nsw_r1_is_real_and_causal(self):
        tg = TimeGrid.from_duration(6.0, 443)
        lags = lag_grid(tg)
        r1 = compute_r1(NSW, lags)
        assert np.max(np.abs(r1.imag)) <= 1e-10 * np.max(np.abs(r1.real))
        # the continuous kernel vanishes at negative lags; the band truncation
        # leaves ringing of order |k_star(omega_max)| relative to the peak
        neg = lags < -3 * tg.dt
        assert np.max(np.abs(r1.real[neg])) <= 2.5e-2 * np.max(np.abs(r1.real))

    @pytest.mark.parametrize(
        "lags",
        [lag_grid(GRID_443), np.linspace(-1, 1, 11), np.linspace(-2.5, 4.0, 37)],
        ids=["lag-grid-443", "linspace-11", "linspace-37"],
    )
    def test_factored_sum_matches_dense_oracle(self, lags):
        omega_max = 0.95 * np.pi / GRID_443.dt
        r1 = compute_r1(NSW, lags, omega_max=omega_max)
        dense = direct_kernel_transforms(
            lambda w: eval_kstar(NSW, w), orders=(1,), lags=lags,
            omega_max=omega_max, num_nodes=2**14,
        )[0]
        scale = np.max(np.abs(dense))
        assert np.max(np.abs(r1.real - dense.real)) <= 1e-12 * scale
        assert np.max(np.abs(r1.imag)) <= 1e-10 * scale

    def test_strong_law_rejected(self):
        with pytest.raises(ValueError):
            compute_r1(PowerLawModel(0.005, 2.0), np.linspace(-1, 1, 11))


class TestComputeRk:
    def test_zero_r1_gives_zero_rk(self):
        r1 = np.zeros(81)
        for k in (2, 5, 10):
            assert np.all(_kernel_rows(r1, k, 0.05)[-1] == 0.0)

    def test_gaussian_second_order(self):
        # (1j e^{-w^2/2})^2 = -e^{-w^2}  transforms to  -(1/sqrt 2) e^{-t^2/4}
        tg = TimeGrid.from_duration(6.0, 443)
        lags = lag_grid(tg)
        r1 = compute_r1(lambda w: np.exp(-(w**2) / 2.0), lags)
        r2 = _kernel_rows(r1, 2, tg.dt)[-1]
        expect = -np.exp(-(lags**2) / 4.0) / np.sqrt(2.0)
        assert np.max(np.abs(r2 - expect)) <= 1e-6

    def test_nsw_recursion_matches_direct_transform(self):
        tg = GRID_443
        series = kernel_series(NSW, tg, order=10)
        direct = direct_kernel_transforms(
            lambda w: eval_kstar(NSW, w),
            orders=range(1, 11),
            lags=series.lags,
            omega_max=series.omega_max,
            num_nodes=3 * 2**14,
        ).real
        for k in range(1, 11):
            rel = np.linalg.norm(series.r[k - 1] - direct[k - 1]) / np.linalg.norm(direct[k - 1])
            assert rel <= 1e-3, f"order {k}: relative error {rel:.2e}"


class TestBuildSystem:
    def test_constant_is_diagonal(self):
        system = build_system(CONSTANT, GRID_443)
        expect = np.diag(np.exp(-0.45 * GRID_443.times))
        assert np.array_equal(system.matrix, expect)

    def test_lossless_is_identity(self):
        system = build_system(ConstantModel(k_inf=0.0), GRID_443)
        assert np.array_equal(system.matrix, np.eye(443))

    def test_order_validated(self):
        # the order is computed from the law, never passed; kernel_series checks its count
        with pytest.raises(TypeError):
            build_system(NSW, GRID_443, order=10)
        with pytest.raises(ValueError):
            kernel_series(NSW, GRID_443, order=0)

    @pytest.mark.parametrize("model, duration, count, nodes, order", [
        pytest.param(NSW, 6.0, 443, 2**14, 20, id="nsw-inversion"),
        pytest.param(NSW, 6.0, 500, 2**15, 20, id="nsw-forward"),
        pytest.param(NswModel(0.2, 0.1), 6.0, 443, 2**14, 57, id="nsw-0.2"),
        pytest.param(NswModel(0.3, 0.1), 6.0, 443, 2**14, 71, id="nsw-0.3"),
        pytest.param(CONSTANT, 6.0, 443, 2**14, 0, id="constant"),
    ])
    def test_order_from_the_law(self, model, duration, count, nodes, order):
        # the smallest K with (max|k*| T)**(K+1) / (K+1)! <= 1e-10
        system = build_system(model, TimeGrid.from_duration(duration, count), num_nodes=nodes)
        assert system.order == order
        assert f"|K={order}|" in system.fingerprint

    def test_strong_law_rejected(self):
        with pytest.raises(ValueError):
            build_system(PowerLawModel(0.005, 2.0), GRID_443)

    def test_matrix_is_real_and_finite(self):
        system = build_system(NSW, GRID_443)
        assert system.matrix.dtype == np.float64
        assert np.all(np.isfinite(system.matrix))

    @pytest.mark.parametrize("count,nodes", [
        pytest.param(443, 2**14, id="443"),
        pytest.param(60, 2**14, id="60"),
        pytest.param(500, 2**15, id="500"),  # the forward system of a scenario
    ])
    def test_against_plain_loop_summation(self, count, nodes):
        # independent loop evaluation of the truncated-series quadrature, at full
        # grid size, at the computed order, and at the forward shape; a random q
        # sees every entry of M, where q = 1 would see only its row sums
        tg = TimeGrid.from_duration(6.0, count)
        system = build_system(NSW, tg, num_nodes=nodes)
        series = kernel_series(NSW, tg, order=system.order, num_nodes=nodes)
        q = np.random.default_rng(count).standard_normal(count)
        direct = attenuated_series_loop(series.r, tg.times, tg.dt, k_infinity(NSW), q)
        via_matrix = system.matrix @ q
        assert np.max(np.abs(via_matrix - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_stronger_law_converged(self):
        # NswModel(0.2, 0.1) needs K = 57; a fixed K = 10 was off by 3.9e-3
        law = NswModel(0.2, 0.1)
        system = build_system(law, GRID_443)
        series = kernel_series(law, GRID_443, order=system.order + 20)
        q = np.random.default_rng(18).standard_normal(443)
        direct = attenuated_series_loop(series.r, GRID_443.times, GRID_443.dt,
                                        k_infinity(law), q)
        assert np.max(np.abs(system.matrix @ q - direct)) <= 1e-9 * np.max(np.abs(direct))

    def test_asymmetric_kstar_refused(self):
        # k_star(-w) != -conj(k_star(w)): r_1 comes out complex and M would not be real
        w = np.linspace(-100.0, 100.0, 201)
        law = TabulatedWeakModel(omega=w, kstar=np.full(w.size, 0.3 + 0.1j), k_inf=0.2)
        with pytest.raises(FloatingPointError, match="kernel quadrature is not real"):
            build_system(law, TimeGrid.from_duration(6.0, 100))

    def test_taylor_overflow_names_first_order(self):
        # a law weak enough for the rounding bound on a grid long enough that the
        # coefficient overflows before the series converges: max|k*| T = 20 needs
        # K = 71, and (dt / sqrt(2 pi)) t**k at t_max = 1e6 first exceeds the
        # largest double at k = 51
        w = np.linspace(-1e-3, 1e-3, 21)
        law = TabulatedWeakModel(omega=w, kstar=np.full(w.size, 2e-5j), k_inf=0.0)
        tg = TimeGrid.from_duration(1e6, 100)
        big = np.log10(np.finfo(float).max) - np.log10(tg.dt / np.sqrt(2.0 * np.pi))
        first = next(k for k in range(1, 200) if k * np.log10(tg.times[-1]) > big)
        assert first == 51
        with np.errstate(over="ignore"), pytest.raises(
            FloatingPointError, match=rf"^Taylor term t\*\*{first}/{first}! overflows"
        ):
            build_system(law, tg)

    @pytest.mark.parametrize("model, duration, count, kappa_t", [
        # unrefused, the series terms would climb to about 1e195 before they fall
        pytest.param(NSW, 1000.0, 100, "454.5", id="nsw-1000"),
        pytest.param(NswModel(0.3, 0.1), 8.0, 443, "26.67", id="nsw-0.3-8"),
    ])
    def test_taylor_rounding_refused(self, model, duration, count, kappa_t):
        with pytest.raises(FloatingPointError, match=rf"max\|k_star\| T = {kappa_t} "):
            build_system(model, TimeGrid.from_duration(duration, count))

    def test_taylor_truncation_converged(self):
        # the computed M against ten more orders of the plain sum
        system = build_system(NSW, GRID_443)
        series = kernel_series(NSW, GRID_443, order=system.order + 10)
        more = series_matrix(series.r, GRID_443.times, GRID_443.dt, k_infinity(NSW))
        assert np.max(np.abs(system.matrix - more)) <= 1e-12 * np.max(np.abs(system.matrix))

    def test_causality_of_columns(self):
        # entries with t_m beyond t_i come only from the band-truncation
        # ringing of the kernels; they stay a small fraction of each column
        system = build_system(NSW, GRID_443)
        b = system.matrix - np.diag(np.exp(-0.45 * GRID_443.times))
        future = np.triu(b, k=3)
        col = np.linalg.norm(b, axis=0)
        assert np.max(np.linalg.norm(future, axis=0) / np.maximum(col, 1e-30)) <= 0.1

    def test_condition_number_monotone_in_attenuation(self):
        tg = TimeGrid.from_duration(6.0, 221)
        conds = [
            build_system(ConstantModel(k_inf=k), tg).condition_estimate()
            for k in (0.0, 0.225, 0.45, 0.9)
        ]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(conds, conds[1:]))

    def test_band_capped_below_lag_nyquist(self):
        tg = TimeGrid.from_duration(8.0, 443)  # Nyquist ~ 173.9 < 200
        series = kernel_series(NSW, tg, order=2)
        assert series.omega_max <= 0.95 * np.pi / tg.dt + 1e-12


class TestApplyInvert:
    def test_constant_apply_is_pointwise_exponential(self):
        tg = TimeGrid.from_duration(6.0, 300)
        system = build_system(CONSTANT, tg)
        rng = np.random.default_rng(3)
        q = rng.standard_normal((300, 5))
        qa = apply_attenuation(system, _wave(q, tg))
        expect = np.exp(-0.45 * tg.times)[:, None] * q
        assert np.max(np.abs(qa.values - expect)) <= 1e-12
        assert qa.kind == "attenuated_integrated"

    def test_constant_apply_unit_sample(self):
        # t = 2.0 lies on this grid; e^{-0.9} there
        tg = TimeGrid.from_duration(6.0, 300)
        system = build_system(CONSTANT, tg)
        qa = apply_attenuation(system, _wave(np.ones((300, 1)), tg))
        i = np.argmin(np.abs(tg.times - 2.0))
        assert tg.times[i] == pytest.approx(2.0)
        assert qa.values[i, 0] == pytest.approx(np.exp(-0.9), rel=1e-12)

    def test_zero_data(self):
        system = build_system(NSW, TimeGrid.from_duration(6.0, 100))
        qa = apply_attenuation(system, _wave(np.zeros((100, 3)), system.time_grid))
        assert np.all(qa.values == 0.0)

    def test_grid_mismatch_rejected(self):
        system = build_system(CONSTANT, GRID_443)
        other = TimeGrid.from_duration(6.0, 400)
        with pytest.raises(ValueError, match="mismatch"):
            apply_attenuation(system, _wave(np.zeros((400, 2)), other))

    def test_kind_enforced(self):
        system = build_system(CONSTANT, GRID_443)
        with pytest.raises(ValueError, match="integrated"):
            apply_attenuation(system, _wave(np.zeros((443, 2)), GRID_443, kind="pressure"))

    def test_invert_kind_enforced(self):
        system = build_system(CONSTANT, GRID_443)
        with pytest.raises(ValueError, match="expected kind 'attenuated_integrated', "
                                             "got 'integrated'"):
            invert_attenuation(system, _wave(np.zeros((443, 2)), GRID_443))

    def test_round_trip(self):
        system = build_system(NSW, GRID_443)
        rng = np.random.default_rng(11)
        # smooth columns: random low-order Fourier sums
        t = GRID_443.times
        q = np.stack(
            [
                sum(
                    rng.standard_normal() * np.sin((j + 1) * t) / (j + 1)
                    for j in range(12)
                )
                for _ in range(4)
            ],
            axis=1,
        )
        qa = apply_attenuation(system, _wave(q, GRID_443))
        back = invert_attenuation(system, qa)
        assert back.kind == "integrated"
        rel = np.linalg.norm(back.values - q) / np.linalg.norm(q)
        assert rel <= 1e-8

    def test_constant_inversion_is_exponential_rescale(self):
        tg = TimeGrid.from_duration(6.0, 300)
        system = build_system(CONSTANT, tg)
        rng = np.random.default_rng(5)
        qa_vals = rng.standard_normal((300, 3))
        back = invert_attenuation(system, _wave(qa_vals, tg, kind="attenuated_integrated"))
        expect = np.exp(0.45 * tg.times)[:, None] * qa_vals
        assert np.max(np.abs(back.values - expect)) <= 1e-9

    def test_tikhonov_consistency_on_clean_data(self):
        system = build_system(NSW, GRID_443)
        rng = np.random.default_rng(7)
        t = GRID_443.times
        q = np.sin(t)[:, None] * rng.standard_normal((1, 3)) + np.cos(2 * t)[:, None]
        qa = apply_attenuation(system, _wave(q, GRID_443))
        plain = invert_attenuation(system, qa)
        lam = 1e-12 * np.linalg.norm(system.matrix, 2) ** 2
        smoothed = invert_attenuation(system, qa, regularization=lam)
        rel = np.linalg.norm(plain.values - smoothed.values) / np.linalg.norm(plain.values)
        assert rel <= 1e-6

    def test_tikhonov_rejects_nonpositive(self):
        system = build_system(CONSTANT, GRID_443)
        wave = _wave(np.zeros((443, 1)), GRID_443, kind="attenuated_integrated")
        with pytest.raises(ValueError):
            invert_attenuation(system, wave, regularization=0.0)

    def test_singular_system_raises_conditioning_error(self):
        tg = TimeGrid.from_duration(1.0, 20)
        matrix = np.eye(20)
        matrix[7, 7] = 0.0
        system = AttenuationSystem(
            matrix=matrix, time_grid=tg, model_tag="forged", k_inf=0.0,
            order=1, omega_max=1.0, num_nodes=8,
        )
        wave = _wave(np.ones((20, 2)), tg, kind="attenuated_integrated")
        with pytest.raises(ConditioningError) as err:
            invert_attenuation(system, wave)
        assert err.value.condition > 1e12
        # Tikhonov path still delivers a finite answer
        out = invert_attenuation(system, wave, regularization=1e-8)
        assert np.all(np.isfinite(out.values))

    def test_nearly_singular_system_raises_conditioning_error(self):
        # two columns equal up to a 1e-17 perturbation: no exact zero pivot,
        # so the inverse exists and only its condition refuses the solve
        tg = TimeGrid.from_duration(1.0, 20)
        rng = np.random.default_rng(13)
        matrix = rng.standard_normal((20, 20))
        matrix[:, 7] = matrix[:, 3] + 1e-17 * rng.standard_normal(20)
        system = AttenuationSystem(
            matrix=matrix, time_grid=tg, model_tag="forged", k_inf=0.0,
            order=1, omega_max=1.0, num_nodes=8,
        )
        wave = _wave(np.ones((20, 2)), tg, kind="attenuated_integrated")
        with pytest.raises(ConditioningError) as err:
            invert_attenuation(system, wave)
        assert np.isfinite(err.value.condition)
        assert err.value.condition > 0.01 / np.finfo(float).eps

    def test_random_round_trip_on_nsw_443(self):
        system = build_system(NSW, GRID_443)
        q = np.random.default_rng(17).standard_normal((443, 6))
        back = invert_attenuation(system, apply_attenuation(system, _wave(q, GRID_443)))
        assert np.max(np.abs(back.values - q)) <= 1e-10 * np.max(np.abs(q))

    def test_one_inverse_serves_condition_and_solves(self, monkeypatch):
        real_inv = np.linalg.inv
        calls = []

        def spy(a):
            calls.append(a.shape)
            return real_inv(a)

        monkeypatch.setattr(np.linalg, "inv", spy)
        system = build_system(NSW, GRID_443)
        qa = apply_attenuation(system, _wave(np.ones((443, 3)), GRID_443))
        first = invert_attenuation(system, qa)
        assert system.condition_estimate() > 1.0
        second = invert_attenuation(system, qa)
        assert calls == [(443, 443)]
        assert np.array_equal(first.values, second.values)


class TestClosedFormModes:
    """The pipeline's attenuation against the closed-form attenuated modes of
    ``tests/oracles.py``, which share no code or discretization with it."""

    MODES = np.array([0.5, 5.0, 50.0, 195.0])

    def test_mode_starts_at_one(self):
        assert np.abs(nsw_attenuated_mode(0.11, 0.10, self.MODES, [0.0]) - 1.0).max() <= 1e-13

    def test_lossless_limit_is_the_cosine(self):
        t = np.linspace(0.0, 6.0, 101)
        p = nsw_attenuated_mode(0.11, 0.11, self.MODES, t)
        assert np.abs(p - np.cos(np.outer(self.MODES, t))).max() <= 1e-11  # 6.8e-13 measured

    @pytest.mark.parametrize("a, t", [(0.5, 1.0), (5.0, 2.5)])
    def test_integrated_mode_matches_a_contour_quadrature(self, a, t):
        # trapezoid on Im w = 0.3 over |Re w| <= 4000; the constant law's own
        # twin is subtracted under the integral, which leaves a 1/w^4 tail
        tau, tau_tilde = 0.11, 0.10
        k_inf = (1.0 / tau_tilde - 1.0 / tau) / 2.0
        x = np.linspace(-4000.0, 4000.0, 200_001)
        w = x + 0.3j
        kappa_sq = w**2 * (tau / tau_tilde) * (1.0 - 1j * w * tau_tilde) / (1.0 - 1j * w * tau)
        f = (1.0 / (a * a - kappa_sq) - 1.0 / (a * a - (w + 1j * k_inf) ** 2)) * np.exp(-1j * w * t)
        quadrature = (x[1] - x[0]) * (f.sum() - (f[0] + f[-1]) / 2.0) / (2.0 * np.pi)
        closed = (nsw_attenuated_mode(tau, tau_tilde, a, [t], integrated=True)
                  - constant_attenuated_mode(k_inf, a, [t], integrated=True))[0, 0]
        assert abs(quadrature - closed) <= 1e-12  # 2.5e-13 and 6.2e-14 measured

    def test_forward_attenuation_matches_the_closed_form(self):
        # D M I on the nsw_circle forward grid, away from both ends of the record
        tg = TimeGrid.from_duration(6.0, 500)
        system = build_system(NSW, tg, num_nodes=2**15)
        t = tg.times
        p = WaveData(np.cos(np.outer(t, self.MODES)), tg, SensorArray.circle(1.7, 4),
                     kind="pressure")
        pa = time_differentiate(apply_attenuation(system, time_integrate(p))).values
        error = np.abs(pa - nsw_attenuated_mode(NSW.tau, NSW.tau_tilde, self.MODES, t).T)
        interior = error[(t > 0.5) & (t < 5.5)].max(axis=0)
        # measured 1.26e-3, 1.48e-3, 2.17e-3 and 2.18e-3
        assert np.all(interior <= [1.4e-3, 1.7e-3, 2.5e-3, 2.5e-3]), interior


class TestConditioning:
    def test_condition_is_exact_one_norm(self):
        from scipy.linalg import lapack, lu_factor

        system = build_system(NSW, GRID_443)
        cond = system.condition_estimate()
        assert cond == pytest.approx(np.linalg.cond(system.matrix, 1), rel=1e-12)
        # LAPACK's dgecon estimate is a lower bound of the exact value
        anorm = np.linalg.norm(system.matrix, 1)
        rcond = lapack.dgecon(lu_factor(system.matrix)[0], anorm, norm="1")[0]
        assert cond >= 1.0 / rcond

    def test_conditioning_is_the_exponential_factor(self):
        # the paper's "moderately ill-posed" step: with the band following
        # the grid, cond_2(M) approaches e^{k_inf T} from below as n doubles
        # and does not grow past it
        bound = np.exp(k_infinity(NSW) * 6.0)
        ratios = [
            np.linalg.cond(
                build_system(NSW, TimeGrid.from_duration(6.0, n), omega_max=1e4).matrix
            ) / bound
            for n in (221, 443, 886)
        ]
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(0.9 <= r <= 1.0 for r in ratios)


def test_fingerprint_names_grid_and_model():
    system = build_system(CONSTANT, GRID_443)
    assert "443" in system.fingerprint
    assert "constant" in system.fingerprint
