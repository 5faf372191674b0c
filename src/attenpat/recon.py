"""Time calculus and back-projection reconstruction pipelines.

The 2-D universal back-projection of pressure traces p(t, xi) is

    h(x) = -(4/Omega0) * sum_j w_j * Phi_j(|xi_j - x|) * n_j . (xi_j - x)
    Phi_j(d) = int_d^T  (d/dt (p/t))(t, xi_j) / sqrt(t^2 - d^2)  dt

with Omega0 = 2 pi for a line and 4 pi for a circle.  The singular inner
integral is taken exactly over the piecewise-linear interpolant of the
time samples: on each sample interval g = A + B t, and

    int (A + B t) / sqrt(t^2 - d^2) dt = A acosh(t/d) + B sqrt(t^2 - d^2).

Because that integral is a fixed linear functional of the time samples
for each distance, and so is the time derivative of p/t, the whole inner
transform collapses into one table applied to the raw traces, and each
pixel then needs a single interpolation per sensor.

The attenuation-corrected pipelines all share the shape: integrate the
measured p^a in time, undo the attenuation operator (fully, or only its
exponential part), differentiate back, and back-project.  The traces of
every pipeline lie on the same sensors and time grid, so one
:func:`back_project` call images all of them in a single pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attenuation import AttenuationSystem, invert_attenuation
from .wavefield import SensorArray, TimeGrid, WaveData

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
    if wave.kind not in kind_map:
        raise ValueError(f"cannot differentiate data of kind {wave.kind!r}")
    v = wave.values
    p = np.empty_like(v)
    p[0] = v[0]
    np.subtract(v[1:], v[:-1], out=p[1:])
    p /= wave.time_grid.dt
    return wave.replace_values(p, kind=kind_map[wave.kind])


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


def _inner_weight_matrix(times: np.ndarray, dist_nodes: np.ndarray) -> np.ndarray:
    """Weights W with ``Phi(d_a) = sum_i W[a, i] * g(t_i)``, the exact integral
    from ``d_a`` to ``times[-1]`` of the piecewise-linear interpolant of g.

    Every interval ``[t_i, t_{i+1}]`` is clipped to ``[d, times[-1]]``, and its
    ``acosh(t/d)`` and ``sqrt(t^2 - d^2)`` increments go to columns ``i`` and
    ``i + 1`` with the linear-interpolation weights; a node ``d >= times[-1]``
    gets a zero row.  The nodes must satisfy ``d >= times[0]``, where the
    interpolant starts.
    """
    d = dist_nodes[:, None]
    tc = np.maximum(times, d)
    root = np.diff(np.sqrt((tc - d) * (tc + d)), axis=1)
    tc /= d
    acosh = np.diff(np.arccosh(tc, out=tc), axis=1)
    h = np.diff(times)
    w = np.zeros((len(dist_nodes), len(times)))
    w[:, :-1] = (times[1:] * acosh - root) / h
    w[:, 1:] += (root - times[:-1] * acosh) / h
    return w


def _mirror_pairs(sensors: SensorArray, grid: ImageGrid) -> tuple:
    """The sensors grouped into mirror pairs ``(j, m)`` and self-mirrored
    ``(j,)``, and the image axis the mirror reverses.

    Circle sensor ``(n - j) mod n`` is sensor ``j`` reflected in the x-axis,
    which reverses image axis 1; line sensor ``n - 1 - j`` is sensor ``j``
    reflected in ``x = 0``, which reverses image axis 0.  Unless the
    positions, the weighted normals and that pixel axis all reflect onto
    themselves to rounding, every sensor is listed alone.
    """
    n = sensors.n
    axis, partner = (1, -np.arange(n) % n) if sensors.kind == "circle" else (0, np.arange(n)[::-1])
    flip = np.ones(2)
    flip[axis] = -1.0
    wn = sensors.weights[:, None] * sensors.normals
    pix = grid.axes()[axis]

    def mirrored(a, b):
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    if (mirrored(sensors.points[partner], sensors.points * flip)
            and mirrored(wn[partner], wn * flip) and mirrored(pix[::-1], -pix)):
        return [(j,) if m == j else (j, int(m)) for j, m in enumerate(partner) if j <= m], axis
    return [(j,) for j in range(n)], axis


# The one bounded cache of the pipeline: at most _CACHE_LIMIT entries, oldest dropped first, each
# key prefixed with its entry kind.  It holds back_project's plans and the scenario layer's
# forward data and ground truth (experiments reads it through this module, at call time).
_CACHE: dict = {}
_CACHE_LIMIT = 8


def _cached(key: tuple, compute, *args):
    """``compute(*args)``, stored under ``key`` on a miss; a failed compute stores nothing."""
    if key not in _CACHE:
        _CACHE[key] = compute(*args)
        if len(_CACHE) > _CACHE_LIMIT:
            _CACHE.pop(next(iter(_CACHE)))
    return _CACHE[key]


def _plan(sensors: SensorArray, tg: TimeGrid, grid: ImageGrid) -> tuple:
    """The distance axis, its read-only table (None: no signal in time) and mirror pairs.  The
    table is ``(W @ D / t).T``, W the :func:`_inner_weight_matrix` and D the d/dt of
    ``np.gradient``, so a set's profiles of ``Phi`` over ``d/dt (p/t)`` are ``values.T @ table``."""
    pts = grid.points()
    check_inside(sensors, pts)
    if tg.count < 2:
        raise ValueError(f"need at least two time samples to back-project, got {tg.count}")
    pr = np.hypot(pts[:, 0], pts[:, 1]).max()
    sr = np.linalg.norm(sensors.points, axis=1)
    d_lo = max(float(sr.min() - pr), tg.dt)
    d_hi = min(float(sr.max() + pr), tg.duration * (1.0 - 1e-9))
    table = None
    if d_hi > d_lo:
        n_d = int(max(np.ceil((d_hi - d_lo) / (tg.dt / 4.0)) + 1, 32))
        weights = _inner_weight_matrix(tg.times, np.linspace(d_lo, d_hi, n_d))
        derivative = np.gradient(np.eye(tg.count), tg.dt, axis=0)
        # a copy, not the transposed view: same speed, and the view read 3 MB more sweep peak RSS
        table = np.ascontiguousarray((weights @ derivative / tg.times).T)
        table.flags.writeable = False
    return (d_lo, d_hi, table, *_mirror_pairs(sensors, grid))


def back_project(waves: dict, grid: ImageGrid) -> dict:
    """Two-dimensional universal back-projection of pressure-like traces.

    Parameters
    ----------
    waves : dict
        Method tag -> pressure (or deliberately uncorrected attenuated
        pressure) traces.  All share one time grid and one
        :class:`SensorArray` object, on a circle or line geometry.
    grid : ImageGrid
        2-D pixel grid strictly inside the valid region of the geometry.

    The distance axis is tabulated at a quarter of the time step or finer
    (the profiles have square-root kinks at wavefront distances, so it needs
    the finer sampling), with at least 32 nodes, the first at least the first
    sample time.  The inner integral of each node is exact for the
    piecewise-linear interpolant of the time samples
    (:func:`_inner_weight_matrix`).

    Returns each trace set's image under its tag.  The table, which reads
    the raw traces, comes from the geometry's cached :func:`_plan`; per
    mirror pair of sensors, the pixel distances, table indices and
    interpolation weights are computed once and shared, and the partner's
    terms go to a mirror image added reversed along the mirror axis.  The
    images do not interact.
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
    # keyed by content, not id(): each sweep point builds equal sensors anew, and ids are recycled
    key = ("plan", sensors.kind, tuple(sorted(sensors.params.items())), sensors.points.tobytes(),
           sensors.normals.tobytes(), sensors.weights.tobytes(), tg,
           tuple(grid.shape), grid.spacing, tuple(grid.origin))
    d_lo, d_hi, table, pairs, axis = _cached(key, _plan, sensors, tg, grid)

    omega0 = 4.0 * np.pi if sensors.kind == "circle" else 2.0 * np.pi
    images = [np.zeros(grid.shape) for _ in waves]
    if table is not None:
        # (n_sensors, n_d) per trace set: each sensor's profile is contiguous
        profiles = [wave.values.T @ table for wave in waves.values()]
        mirrors = [np.zeros(grid.shape) for _ in waves]

        # The grid is a tensor product, so per sensor the distance and n.(xi - x)
        # separate into x and y parts, and the uniform distance axis turns
        # np.interp's search into index arithmetic (same edges: phi[0] below
        # d_lo, phi[-1] at d_hi, zero beyond).
        ax, ay = grid.axes()
        inv_step = (table.shape[1] - 1) / (d_hi - d_lo)
        for pair in pairs:
            j = pair[0]
            dx = sensors.points[j, 0] - ax
            dy = sensors.points[j, 1] - ay
            nx, ny = sensors.weights[j] * sensors.normals[j]
            w0 = np.add.outer(nx * dx, ny * dy)
            dx2, dy2 = dx * dx, dy * dy
            pos = np.add.outer(dx2, dy2)
            np.sqrt(pos, out=pos)
            # + and sqrt round monotonically, so this is exactly the farthest pixel's distance
            if np.sqrt(dx2.max() + dy2.max()) > d_hi:
                w0[pos > d_hi] = 0.0
            pos -= d_lo
            pos *= inv_step
            np.maximum(pos, 0.0, out=pos)
            lo = np.minimum(np.floor(pos), table.shape[1] - 2.0)
            idx = lo.astype(np.intp)
            w1 = np.subtract(pos, lo, out=pos)  # frac, the position past idx
            w1 *= w0  # phi is read at idx with w0 = ndot (1 - frac), at idx + 1 with w1
            w0 -= w1
            # the partner sees this geometry on the grid reversed along `axis`
            for s, accs in zip(pair, (images, mirrors)):
                for acc, phi in zip(accs, profiles):
                    val = phi[s].take(idx)
                    val *= w0
                    hi = phi[s][1:].take(idx)
                    hi *= w1
                    val += hi
                    acc += val
        for img, mirror in zip(images, mirrors):
            img += np.flip(mirror, axis)
            img *= -4.0 / omega0
    return {
        method: ReconImage(img, grid, method,
                           provenance={"geometry": sensors.kind, "dist_step": tg.dt / 4.0})
        for method, img in zip(waves, images)
    }


def ubp_2d(wave: WaveData, grid: ImageGrid, method: str = "naive-ubp") -> ReconImage:
    """:func:`back_project` of one set of traces, tagged ``method``."""
    return back_project({method: wave}, grid)[method]


def ubp_3d_spherical(traces: WaveData, grid: ImageGrid) -> ReconImage:
    """Universal back-projection for a spherical array in 3-D,

        h(x) = (2/Omega0) sum_j w_j [p(d_j) - d_j p'(d_j)] / d_j**2
               * (n_j . (xi_j - x) / d_j),   Omega0 = 4 pi,

    of the pressure samples ``traces`` (linear in time; the derivative by central
    differences, whose smearing of each jump over a time step lets the sensor
    sum pick up the jump's distributional contribution).
    """
    sensors = traces.sensors
    if sensors.kind != "sphere":
        raise ValueError("ubp_3d_spherical needs a spherical sensor array")
    if grid.ndim != 3:
        raise ValueError("ubp_3d_spherical needs a 3-D image grid")
    pts = grid.points()
    if np.linalg.norm(pts, axis=1).max() >= sensors.params["radius"]:
        raise ValueError("image point on or outside the measurement sphere")

    times, vals = traces.time_grid.times, traces.values
    dvals = np.gradient(vals, traces.time_grid.dt, axis=0)

    img = np.zeros(pts.shape[0])
    for j in range(sensors.n):
        diff = sensors.points[j] - pts
        d = np.linalg.norm(diff, axis=1)
        pj = np.interp(d, times, vals[:, j], left=0.0, right=0.0)
        dpj = np.interp(d, times, dvals[:, j], left=0.0, right=0.0)
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
