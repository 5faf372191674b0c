"""Independent oracles used by the test suite.

Everything here deliberately avoids the library's own computational
paths: direct quadrature instead of convolution recursions, explicit
Python loops instead of matrix assembly, Monte-Carlo-free geometric
means and the closed-form 3-D ball traces instead of wave solvers.
:func:`lossless_image` is the exception: it is the library's own
back-projection of the lossless traces, against which the
back-projection's error cancels and the attenuation step's is left.
"""

import numpy as np

SQRT_2PI = float(np.sqrt(2.0 * np.pi))


def direct_kernel_transforms(kstar_fn, orders, lags, omega_max, num_nodes):
    """Direct trapezoid quadrature of ``(1/sqrt(2 pi)) int (1j k_star)**k e^{-i w t} dw``
    for every requested order, sharing one pass over the frequency nodes."""
    w = np.linspace(-omega_max, omega_max, num_nodes)
    wts = np.full(num_nodes, w[1] - w[0])
    wts[0] *= 0.5
    wts[-1] *= 0.5
    base = 1j * np.asarray(kstar_fn(w), dtype=complex)
    integrands = np.stack([wts * base**k for k in orders], axis=1)  # (nodes, K)
    lags = np.asarray(lags, dtype=float)
    out = np.empty((len(orders), lags.size), dtype=complex)
    block = max(1, int(4e6 // num_nodes))
    for a in range(0, lags.size, block):
        b = min(a + block, lags.size)
        E = np.exp(-1j * np.outer(lags[a:b], w))
        out[:, a:b] = (E @ integrands).T
    return out / SQRT_2PI


def attenuated_series_loop(r_rows, times, dt, k_inf, q_column):
    """Plain-loop evaluation of the truncated-series quadrature

        qa(t_i) = e^{-k_inf t_i} q(t_i)
                  + (dt/sqrt(2 pi)) sum_m e^{-k_inf t_m}
                    sum_k (t_m**k / k!) r_k(t_i - t_m) q(t_m)

    with ``r_rows[k-1]`` tabulated on the full lag grid of ``times``.
    """
    import math

    n = len(times)
    # Python floats: the loop runs n * n * K times, and numpy scalars are slow
    t = [float(v) for v in times]
    rows = [[float(v) for v in row] for row in r_rows]
    fact = [math.factorial(k) for k in range(len(rows) + 1)]
    qa = np.zeros(n)
    for i in range(n):
        acc = np.exp(-k_inf * t[i]) * q_column[i]
        for m in range(n):
            series = 0.0
            lag = i - m + n - 1
            for k, row in enumerate(rows, start=1):
                series += t[m] ** k / fact[k] * row[lag]
            acc += dt / SQRT_2PI * np.exp(-k_inf * t[m]) * series * q_column[m]
        qa[i] = acc
    return qa


def series_matrix(r_rows, times, dt, k_inf):
    """The matrix whose product with q is :func:`attenuated_series_loop`,
    summed order by order with ``math.factorial`` over an explicit table of
    lag indices ``i - m + n - 1``."""
    import math

    n = len(times)
    lag = np.arange(n)[:, None] - np.arange(n)[None, :] + n - 1
    column = dt / SQRT_2PI * np.exp(-k_inf * times)
    out = np.diag(np.exp(-k_inf * times))
    for k in range(1, len(r_rows) + 1):
        out += column * times**k / math.factorial(k) * r_rows[k - 1][lag]
    return out


def _dt_ratio(wave):
    """d/dt of (trace / t) by central differences, one-sided at the ends."""
    times = wave.time_grid.times
    dt = wave.time_grid.dt
    ratio = wave.values / times[:, None]
    g = np.empty_like(ratio)
    g[1:-1] = (ratio[2:] - ratio[:-2]) / (2 * dt)
    g[0] = (ratio[1] - ratio[0]) / dt
    g[-1] = (ratio[-1] - ratio[-2]) / dt
    return g


def brute_force_ubp_2d(wave, grid, du):
    """Per-pixel transcription of the 2-D universal back-projection with the
    u-substituted trapezoid rule, bypassing the library's tabulated inner
    transform entirely."""
    times = wave.time_grid.times
    duration = wave.time_grid.duration
    g = _dt_ratio(wave)

    sensors = wave.sensors
    omega0 = 4 * np.pi if sensors.kind == "circle" else 2 * np.pi
    pts = grid.points()
    img = np.zeros(pts.shape[0])
    for ip, x in enumerate(pts):
        acc = 0.0
        for j in range(sensors.n):
            diff = sensors.points[j] - x
            d = float(np.hypot(diff[0], diff[1]))
            usq = duration * duration - d * d
            if usq <= 0:
                continue
            u = np.linspace(0.0, np.sqrt(usq), max(int(np.ceil(np.sqrt(usq) / du)) + 1, 2))
            tu = np.hypot(u, d)
            integrand = np.interp(tu, times, g[:, j]) / tu
            inner = np.trapezoid(integrand, u)
            acc += sensors.weights[j] * inner * float(diff @ sensors.normals[j])
        img[ip] = acc
    return (-4.0 / omega0) * img.reshape(grid.shape)


def interp_ubp_2d(wave, grid, dist_nodes, weights):
    """2-D universal back-projection from a given distance table: the inner
    transform ``Phi = weights @ g`` on ``dist_nodes``, then one ``np.interp``
    per sensor over the flattened pixel centers (``Phi[0]`` below the table,
    zero beyond it)."""
    phi = weights @ _dt_ratio(wave)  # (n_d, n_sensors)
    sensors = wave.sensors
    omega0 = 4 * np.pi if sensors.kind == "circle" else 2 * np.pi
    pts = grid.points()
    img = np.zeros(pts.shape[0])
    for j in range(sensors.n):
        diff = sensors.points[j] - pts
        d = np.hypot(diff[:, 0], diff[:, 1])
        val = np.interp(d, dist_nodes, phi[:, j], left=phi[0, j], right=0.0)
        ndot = diff @ sensors.normals[j]
        img += sensors.weights[j] * val * ndot
    return (-4.0 / omega0) * img.reshape(grid.shape)


def propagator_full_field(prop, t):
    """The whole grid of a ``SpectralPropagator`` at time ``t``, by one 2-D
    inverse transform of its mode evolution ``h_hat * cos(|k| t)`` (scipy's
    FFT, not the propagator's staged and row-pruned numpy transforms)."""
    from scipy.fft import irfft2

    return irfft2(prop.h_hat * np.cos(prop.abs_k * t), s=(prop.size, prop.size))


def bilinear_at_sensors(prop, field, sensors):
    """Bilinear samples of a full propagator grid at the sensors, read through
    a raster ``Phantom`` on the grid's nodes."""
    from attenpat.wavefield import Phantom

    raster = Phantom(field, prop.dx, (prop.axis[0], prop.axis[0]))
    return raster.evaluate(sensors.points[:, 0], sensors.points[:, 1])


def lossless_image(result):
    """The back-projection of a scenario's lossless traces, resampled onto the
    inversion grids as the attenuated data were.  It shares the images'
    discretization error, so their difference from it is the attenuation
    step's.  The traces come from the forward cache, which ``run_scenario``
    has filled."""
    from attenpat.experiments import _forward_pressure, resample_data
    from attenpat.recon import back_project

    config = result.config
    p = _forward_pressure(config, config.build_phantom())
    p = resample_data(p, config.inversion_time_grid(),
                      config.sensors(config.geometry["count"]))
    return back_project({"lossless": p}, result.truth.grid)["lossless"]


def lossless_errors(result):
    """Relative L2 error of each of a scenario's images against :func:`lossless_image`."""
    from attenpat.experiments import rel_l2_error

    lossless = lossless_image(result)
    return {name: rel_l2_error(img, lossless) for name, img in result.reconstructions.items()}


def nsw_attenuated_mode(tau, tau_tilde, a, t, integrated=False):
    """Closed-form attenuated twin of the lossless mode ``p = cos(a t)``
    (``q = sin(a t) / a``) under the NSW law
    ``kappa^2 = w^2 (tau/tau_tilde) (1 - i w tau_tilde) / (1 - i w tau)``.

    ``q^a(t) = (1/2 pi) int e^{-i w t} / (a^2 - kappa^2) dw`` along ``Im w = 0+``
    has the integrand ``(1 - i w tau) / P(w)`` with the cubic
    ``P(w) = i tau w^3 - (tau/tau_tilde) w^2 - i a^2 tau w + a^2``, whose three
    roots lie below the real axis.  Closing the contour below gives

        q^a(t) = -i sum_r (1 - i w_r tau) e^{-i w_r t} / P'(w_r)

    and ``p^a = dq^a/dt``.  The roots are the eigenvalues of the monic cubic's
    companion matrices, one per ``a``.  Rows follow ``a``, columns ``t``.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    a2 = a * a
    companion = np.zeros((a.size, 3, 3), dtype=complex)
    companion[:, 0] = np.stack([np.full(a.size, -1j / tau_tilde), a2, 1j * a2 / tau], axis=1)
    companion[:, 1, 0] = companion[:, 2, 1] = 1.0
    w = np.linalg.eigvals(companion)[:, :, None]  # (a, root, 1)
    dp = 3j * tau * w**2 - 2.0 * (tau / tau_tilde) * w - 1j * a2[:, None, None] * tau
    residue = (1.0 - 1j * w * tau) / dp * (1.0 if integrated else -1j * w)
    return np.real(-1j * (residue * np.exp(-1j * w * np.asarray(t, dtype=float))).sum(axis=1))


def constant_attenuated_mode(k_inf, a, t, integrated=False):
    """The same twin under the constant law ``kappa = w + i k_inf``:
    ``q^a = e^{-k_inf t} sin(a t) / a`` and
    ``p^a = e^{-k_inf t} (cos(a t) - k_inf sin(a t) / a)``."""
    a = np.atleast_1d(np.asarray(a, dtype=float))[:, None]
    t = np.asarray(t, dtype=float)
    sine = np.sin(a * t) / a
    return np.exp(-k_inf * t) * (sine if integrated else np.cos(a * t) - k_inf * sine)


def ball_nwave_oracle(r0, distance, t):
    """Pressure at distance ``d`` from a unit-intensity ball of radius ``r0``
    in 3-D: ``(d - t) / (2 d)`` for ``|d - t| <= r0``, zero otherwise."""
    if not 0 < r0 < distance:
        raise ValueError("requires 0 < r0 < distance")
    t = np.asarray(t, dtype=float)
    p = np.where(np.abs(distance - t) <= r0, (distance - t) / (2.0 * distance), 0.0)
    return p if p.ndim else float(p)


def ball_nwave_integrated(r0, distance, t):
    """Companion time-integrated trace ``(r0**2 - (d - t)**2) / (4 d)`` on the
    same support as :func:`ball_nwave_oracle`."""
    if not 0 < r0 < distance:
        raise ValueError("requires 0 < r0 < distance")
    t = np.asarray(t, dtype=float)
    q = np.where(
        np.abs(distance - t) <= r0,
        (r0**2 - (distance - t) ** 2) / (4.0 * distance),
        0.0,
    )
    return q if q.ndim else float(q)


def sphere_mean_indicator(r0, center_dist, t, n_dirs=20000):
    """Spherical mean of a ball indicator by direct quadrature over Fibonacci
    directions: fraction of the sphere of radius ``t`` (centered at distance
    ``center_dist`` from the ball center) lying inside the ball."""
    i = np.arange(n_dirs)
    z = 1.0 - (2.0 * i + 1.0) / n_dirs
    phi = np.pi * (3.0 - np.sqrt(5.0)) * i
    rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    dirs = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
    x0 = np.array([center_dist, 0.0, 0.0])
    pts = x0[None, :] + t * dirs
    return float(np.mean(np.linalg.norm(pts, axis=1) <= r0))


def band_limited_at(prop, t, points):
    """The band-limited field of a ``SpectralPropagator`` at time ``t`` at any
    points, by the direct sum over its half spectrum

        p(s) = Re sum_kx e^{i kx s_x} sum_ky w_ky e^{i ky s_y} S(kx, ky) / N**2

    with ``S = h_hat cos(|k| t)``, ``s`` measured from the grid's first node
    and ``w`` 1 at ``ky`` = 0 and at Nyquist, 2 otherwise.  At grid nodes it
    is the inverse transform; between them, the field the grid samples."""
    n = prop.size
    kx = 2.0 * np.pi * np.fft.fftfreq(n, prop.dx)
    ky = 2.0 * np.pi * np.fft.rfftfreq(n, prop.dx)
    w = np.full(ky.size, 2.0)
    w[0] = 1.0
    if n % 2 == 0:
        w[-1] = 1.0
    s = np.asarray(points, dtype=float) - prop.axis[0]
    spec = prop.h_hat * np.cos(prop.abs_k * t)
    ex = np.exp(1j * np.outer(s[:, 0], kx))
    ey = w * np.exp(1j * np.outer(s[:, 1], ky))
    return np.real(((ex @ spec) * ey).sum(axis=1)) / n**2
