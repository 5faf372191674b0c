"""Time calculus and back-projection reconstruction pipelines.

The 2-D universal back-projection of pressure traces p(t, xi) is

    h(x) = -(4/Omega0) * sum_j w_j * Phi_j(|xi_j - x|) * n_j . (xi_j - x)
    Phi_j(d) = int_d^T  (d/dt (p/t))(t, xi_j) / sqrt(t^2 - d^2)  dt

with Omega0 = 2 pi for a line and 4 pi for a circle.  The singular inner
integral is computed with the substitution u = sqrt(t^2 - d^2), which
turns it into a regular integral of g(sqrt(d^2 + u^2)) / sqrt(d^2 + u^2)
handled by a uniform trapezoid rule.  Because that quadrature is a fixed
linear functional of the time samples for each distance, the whole inner
transform collapses into one weight matrix applied to the data, and each
pixel then needs a single interpolation per sensor.

The attenuation-corrected pipelines all share the shape: integrate the
measured p^a in time, undo the attenuation operator (fully, or only its
exponential part), differentiate back, and back-project.  The traces of
every pipeline lie on the same sensors and time grid, so one
:func:`back_project` call images all of them in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .attenuation import AttenuationSystem, invert_attenuation
from .wavefield import SensorArray, WaveData

__all__ = [
    "ImageGrid",
    "ReconImage",
    "time_integrate",
    "time_differentiate",
    "check_inside",
    "back_project",
    "ubp_2d",
    "ubp_3d_spherical",
    "compensated_traces",
    "full_traces",
    "full_provenance",
    "reconstruct_naive",
    "reconstruct_compensated",
    "reconstruct_full",
]


@dataclass(frozen=True)
class ImageGrid:
    """Uniform square (or cubic) pixel grid; ``origin`` is the center of the
    first pixel and axis order matches point coordinates (x, y[, z])."""

    shape: tuple
    spacing: float
    origin: tuple

    def __post_init__(self) -> None:
        if len(self.shape) not in (2, 3) or len(self.origin) != len(self.shape):
            raise ValueError("grid must be 2-D or 3-D with matching origin")
        if self.spacing <= 0:
            raise ValueError("spacing must be positive")

    @classmethod
    def centered(cls, size: int, half_extent: float, ndim: int = 2) -> "ImageGrid":
        spacing = 2.0 * half_extent / size
        o = -half_extent + spacing / 2.0
        return cls(shape=(size,) * ndim, spacing=spacing, origin=(o,) * ndim)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def axes(self) -> list:
        return [
            self.origin[a] + self.spacing * np.arange(self.shape[a])
            for a in range(self.ndim)
        ]

    def points(self) -> np.ndarray:
        """Pixel centers, flattened in C order, shape ``(prod(shape), ndim)``."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    def index_of(self, point: Sequence[float]) -> tuple:
        return tuple(
            int(round((point[a] - self.origin[a]) / self.spacing))
            for a in range(self.ndim)
        )


@dataclass(eq=False)
class ReconImage:
    """Reconstructed (or rasterized ground-truth) scalar field on a grid."""

    values: np.ndarray
    grid: ImageGrid
    method: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.shape:
            raise ValueError(f"image shape {v.shape} does not match grid {self.grid.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("image values must be finite")
        self.values = v


def time_integrate(wave: WaveData) -> WaveData:
    """Left-Riemann cumulative integral ``q(t_i) = dt * sum_{n<=i} p(t_n)``."""
    kind_map = {"pressure": "integrated", "attenuated": "attenuated_integrated"}
    if wave.kind not in kind_map:
        raise ValueError(f"cannot integrate data of kind {wave.kind!r}")
    q = wave.time_grid.dt * np.cumsum(wave.values, axis=0)
    return wave.replace_values(q, kind=kind_map[wave.kind])


def time_differentiate(wave: WaveData) -> WaveData:
    """Backward difference with an implicit zero sample before t_1; exact
    inverse of :func:`time_integrate`."""
    if wave.time_grid.count < 2:
        raise ValueError("need at least two time samples to differentiate")
    kind_map = {"integrated": "pressure", "attenuated_integrated": "attenuated"}
    v = wave.values
    p = np.empty_like(v)
    p[0] = v[0]
    np.subtract(v[1:], v[:-1], out=p[1:])
    p /= wave.time_grid.dt
    return wave.replace_values(p, kind=kind_map.get(wave.kind, wave.kind))


def _dt_ratio_traces(wave: WaveData) -> np.ndarray:
    """d/dt of (trace / t): central differences interior, one-sided ends."""
    t = wave.time_grid.times[:, None]
    g = wave.values / t
    dt = wave.time_grid.dt
    out = np.empty_like(g)
    out[1:-1] = (g[2:] - g[:-2]) / (2.0 * dt)
    out[0] = (g[1] - g[0]) / dt
    out[-1] = (g[-1] - g[-2]) / dt
    return out


def check_inside(sensors: SensorArray, pts: np.ndarray) -> None:
    """Raise unless every point lies strictly inside the 2-D measurement
    geometry: within the circle, or above the line."""
    if sensors.kind == "circle":
        radius = sensors.params["radius"]
        if np.hypot(pts[:, 0], pts[:, 1]).max() >= radius:
            raise ValueError("image point on or outside the measurement circle")
    elif sensors.kind == "line":
        line_y = -sensors.params["standoff"]
        if pts[:, 1].min() <= line_y:
            raise ValueError("image point on or below the measurement line")
    else:
        raise ValueError(f"2-D back-projection does not support kind {sensors.kind!r}")


def _inner_weight_matrix(
    times: np.ndarray, dist_nodes: np.ndarray, duration: float, du: float
) -> np.ndarray:
    """Weights W with ``Phi(d_a) = sum_i W[a, i] * g(t_i)`` realizing the
    u-substituted trapezoid rule on the piecewise-linear interpolant of g."""
    nt = len(times)
    dt = times[1] - times[0]
    w = np.zeros((len(dist_nodes), nt))
    for a, d in enumerate(dist_nodes):
        usq = duration * duration - d * d
        if usq <= 0:
            continue
        umax = np.sqrt(usq)
        m = max(int(np.ceil(umax / du)) + 1, 2)
        u = np.linspace(0.0, umax, m)
        trap = np.full(m, u[1] - u[0])
        trap[0] *= 0.5
        trap[-1] *= 0.5
        tu = np.hypot(u, d)
        wt = trap / tu
        pos = (tu - times[0]) / dt
        i0 = np.clip(np.floor(pos).astype(int), 0, nt - 2)
        fr = np.clip(pos - i0, 0.0, 1.0)
        w[a] = np.bincount(i0, wt * (1.0 - fr), nt) + np.bincount(i0 + 1, wt * fr, nt)
    return w


def back_project(
    waves: dict,
    grid: ImageGrid,
    du: float | None = None,
    dist_step: float | None = None,
) -> dict:
    """Two-dimensional universal back-projection of pressure-like traces.

    Parameters
    ----------
    waves : dict
        Method tag -> pressure (or deliberately uncorrected attenuated
        pressure) traces.  All share one time grid and one
        :class:`SensorArray` object, on a circle or line geometry.
    grid : ImageGrid
        2-D pixel grid strictly inside the valid region of the geometry.
    du, dist_step : float, optional
        Steps of the substituted inner quadrature (default half the time
        step) and of the tabulated distance axis (default a quarter; the
        tabulated profiles have square-root kinks at wavefront distances,
        so the distance axis needs the finer sampling).  The distance
        table holds at least 32 nodes and is never coarser than
        ``dist_step``.

    Returns each trace set's image under its tag.  The weight table and,
    per sensor, the pixel distances, table indices and ``n . (xi - x)``
    are computed once and shared; the images do not interact.
    """
    first = next(iter(waves.values()))
    sensors, tg = first.sensors, first.time_grid
    for wave in waves.values():
        if wave.kind not in ("pressure", "attenuated"):
            raise ValueError(f"back-projection expects pressure-like data, got {wave.kind!r}")
        if wave.time_grid != tg or wave.sensors is not sensors:
            raise ValueError("back-projected traces must share one time grid and one sensor array")
    if grid.ndim != 2:
        raise ValueError("2-D back-projection needs a 2-D image grid")
    pts = grid.points()
    check_inside(sensors, pts)
    if tg.count < 2:
        raise ValueError(f"need at least two time samples to back-project, got {tg.count}")

    omega0 = 4.0 * np.pi if sensors.kind == "circle" else 2.0 * np.pi
    du = du if du is not None else tg.dt / 2.0
    dist_step = dist_step if dist_step is not None else tg.dt / 4.0
    images = [np.zeros(grid.shape) for _ in waves]
    pr = np.hypot(pts[:, 0], pts[:, 1]).max()
    sr = np.linalg.norm(sensors.points, axis=1)
    d_lo = max(float(sr.min() - pr), tg.dt)
    d_hi = min(float(sr.max() + pr), tg.duration * (1.0 - 1e-9))
    if d_hi > d_lo:  # else the recording window ends before any signal reaches a pixel
        n_d = int(max(np.ceil((d_hi - d_lo) / dist_step) + 1, 32))
        weights = _inner_weight_matrix(tg.times, np.linspace(d_lo, d_hi, n_d), tg.duration, du)
        # (n_sensors, n_d) per trace set: each sensor's profile is contiguous
        profiles = [_dt_ratio_traces(wave).T @ weights.T for wave in waves.values()]

        # The grid is a tensor product, so per sensor the distance and n.(xi - x)
        # separate into x and y parts, and the uniform distance axis turns
        # np.interp's search into index arithmetic (same edges: phi[0] below
        # d_lo, phi[-1] at d_hi, zero beyond).
        ax, ay = grid.axes()
        inv_step = (n_d - 1) / (d_hi - d_lo)
        for j in range(sensors.n):
            dx = sensors.points[j, 0] - ax
            dy = sensors.points[j, 1] - ay
            d = np.sqrt(np.add.outer(dx * dx, dy * dy))
            pos = np.maximum((d - d_lo) * inv_step, 0.0)
            idx = np.minimum(pos.astype(np.intp), n_d - 2)
            frac = pos - idx
            nx, ny = sensors.weights[j] * sensors.normals[j]
            ndot = np.add.outer(nx * dx, ny * dy)
            ndot[d > d_hi] = 0.0
            for img, phi in zip(images, profiles):
                val = np.diff(phi[j]).take(idx)
                val *= frac
                val += phi[j].take(idx)
                val *= ndot
                img += val
        for img in images:
            img *= -4.0 / omega0
    return {
        method: ReconImage(img, grid, method,
                           provenance={"geometry": sensors.kind, "du": du, "dist_step": dist_step})
        for method, img in zip(waves, images)
    }


def ubp_2d(
    wave: WaveData,
    grid: ImageGrid,
    du: float | None = None,
    dist_step: float | None = None,
    method: str = "naive-ubp",
) -> ReconImage:
    """:func:`back_project` of one set of traces, tagged ``method``."""
    return back_project({method: wave}, grid, du, dist_step)[method]


TraceFunctions = tuple  # (pressure_fn, dpressure_fn), each (sensor_index, times) -> values


def ubp_3d_spherical(
    traces: Union[WaveData, TraceFunctions],
    sensors: SensorArray,
    grid: ImageGrid,
) -> ReconImage:
    """Universal back-projection for a spherical array in 3-D:

        h(x) = (2/Omega0) sum_j w_j [p(d_j) - d_j p'(d_j)] / d_j**2
               * (n_j . (xi_j - x) / d_j),   Omega0 = 4 pi.

    ``traces`` is either sampled :class:`WaveData` (linear interpolation in
    time, derivative by central differences) or a pair of callables
    ``(p_fn, dp_fn)`` mapping ``(sensor_index, times) -> values``.  For
    traces with jump discontinuities prefer the sampled form: the
    finite-difference derivative smears each jump over the time step, which
    is what lets the sensor sum pick up the jump's distributional
    contribution; an exact classical derivative silently drops it.
    """
    if sensors.kind != "sphere":
        raise ValueError("ubp_3d_spherical needs a spherical sensor array")
    if grid.ndim != 3:
        raise ValueError("ubp_3d_spherical needs a 3-D image grid")
    pts = grid.points()
    if np.linalg.norm(pts, axis=1).max() >= sensors.params["radius"]:
        raise ValueError("image point on or outside the measurement sphere")

    if isinstance(traces, WaveData):
        times = traces.time_grid.times
        vals = traces.values
        dvals = np.gradient(vals, traces.time_grid.dt, axis=0)

        def p_fn(j, t):
            return np.interp(t, times, vals[:, j], left=0.0, right=0.0)

        def dp_fn(j, t):
            return np.interp(t, times, dvals[:, j], left=0.0, right=0.0)

    else:
        p_fn, dp_fn = traces

    img = np.zeros(pts.shape[0])
    for j in range(sensors.n):
        diff = sensors.points[j] - pts
        d = np.linalg.norm(diff, axis=1)
        pj = p_fn(j, d)
        dpj = dp_fn(j, d)
        ndot = diff @ sensors.normals[j]
        img += sensors.weights[j] * (pj - d * dpj) / d**2 * (ndot / d)
    img *= 2.0 / (4.0 * np.pi)
    return ReconImage(
        img.reshape(grid.shape), grid, "ubp-3d", provenance={"geometry": "sphere"}
    )


def compensated_traces(pa: WaveData, k_inf: float) -> WaveData:
    """Exponential compensation: rescale the integrated data by
    ``exp(k_inf t)`` and differentiate.  Exact for a constant law; for a
    non-constant weak law it corrects ``k_inf`` while neglecting ``k_star``."""
    qa = time_integrate(pa)
    q = qa.replace_values(
        np.exp(k_inf * qa.time_grid.times)[:, None] * qa.values, kind="integrated"
    )
    return time_differentiate(q)


def full_traces(pa: WaveData, system: AttenuationSystem,
                regularization: float | None = None) -> WaveData:
    """Full inversion: integrate, solve the dense attenuation system for q,
    differentiate."""
    q = invert_attenuation(system, time_integrate(pa), regularization=regularization)
    return time_differentiate(q)


def full_provenance(system: AttenuationSystem, regularization: float | None = None) -> dict:
    """What the image of :func:`full_traces` records of its inversion."""
    out = {"system": system.fingerprint}
    if regularization is not None:
        out["regularization"] = regularization
    return out


def reconstruct_naive(pa: WaveData, grid: ImageGrid) -> ReconImage:
    """Plain universal back-projection, deliberately ignoring attenuation."""
    return ubp_2d(pa, grid)


def reconstruct_compensated(pa: WaveData, k_inf: float, grid: ImageGrid) -> ReconImage:
    """Back-projection of :func:`compensated_traces`."""
    return ubp_2d(compensated_traces(pa, k_inf), grid, method="compensated")


def reconstruct_full(
    pa: WaveData,
    system: AttenuationSystem,
    grid: ImageGrid,
    regularization: float | None = None,
) -> ReconImage:
    """Back-projection of :func:`full_traces`."""
    img = ubp_2d(full_traces(pa, system, regularization), grid, method="full")
    img.provenance.update(full_provenance(system, regularization))
    return img
