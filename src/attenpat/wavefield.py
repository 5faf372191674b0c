"""Phantoms, measurement geometry, and lossless forward simulation.

The forward solver is an exact-in-time Fourier spectral propagator for the
2-D lossless wave equation on a padded periodic grid, with unit sound
speed: per Fourier mode ``p_hat(t, k) = h_hat(k) * cos(|k|t)``.  A raised
cosine from 0.75 to 1 of the Nyquist wavenumber tapers ``h_hat`` so the
kernel tails do not wrap around the grid (the Gibbs fix of Treeby & Cox,
JBO 2010), and a grid then only has to cover the wavefront: the traces run
in four time segments, each on a grid of the same dx and a 5-smooth size
that covers its last sample.  The benchmark circle's traces (grids 400 to
768) are within 3.5e-6 of ``max|trace|`` of one grid 1.5 times larger."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.fft import ifft, irfft, rfft2

from .models import finite_int, finite_real, keyed

__all__ = [
    "TimeGrid",
    "SensorArray",
    "Ellipse",
    "Phantom",
    "WaveData",
    "make_shepp_logan",
    "disk_phantom",
    "phantom_from_ellipses",
    "make_sensors",
    "SpectralPropagator",
    "spectral_forward",
]

# padding added to the propagator's domain side beyond the wave's reach
MARGIN = 0.5
# largest propagator grid side, in points: the memory guard of one phantom
MAX_GRID_SIZE = 2048
# equal time segments of spectral_forward, each on a grid sized to its wavefront
SEGMENTS = 4


class GridCapError(ValueError):
    """The propagator grid for the requested dx would exceed ``MAX_GRID_SIZE``."""


def _next_fast_len(n: int) -> int:
    """Smallest 5-smooth length >= ``n``, as ``scipy.fft.next_fast_len(n, real=True)``:
    a length m < 2**64 divides 30**64 iff it is 5-smooth."""
    m = max(n, 1)
    while pow(30, 64, m):
        m += 1
    return m


def _band_taper(s: np.ndarray) -> np.ndarray:
    """Raised cosine on ``s = |k| / (pi/dx)``: 1 up to 0.75, 0 from 1 on."""
    edge = 0.5 * (1.0 + np.cos(np.pi * (s - 0.75) / 0.25))
    return np.where(s <= 0.75, 1.0, np.where(s < 1.0, edge, 0.0))


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling ``t_i = i*dt`` for ``i = 1..count`` (t = 0 excluded)."""

    dt: float
    count: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count!r}")

    @classmethod
    def from_duration(cls, duration: float, count: int) -> "TimeGrid":
        return cls(dt=duration / count, count=count)

    @property
    def duration(self) -> float:
        return self.dt * self.count

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(1, self.count + 1)


@dataclass(frozen=True, eq=False)
class SensorArray:
    """Measurement points with outward unit normals and quadrature weights.

    ``kind`` is one of ``"circle"`` (radius R, points at angles
    ``j*2*pi/n``), ``"line"`` (length L centered on x = 0 at height
    ``y = -standoff``, normals pointing away from the imaged upper half
    plane) or ``"sphere"`` (Fibonacci lattice, 3-D).  Weights are uniform
    curve-length (surface-area) weights.
    """

    kind: str
    points: np.ndarray
    normals: np.ndarray
    weights: np.ndarray
    params: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @classmethod
    def circle(cls, radius: float, count: int) -> "SensorArray":
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count!r}")
        ang = 2.0 * np.pi * np.arange(count) / count
        pts = radius * np.column_stack([np.cos(ang), np.sin(ang)])
        normals = pts / radius
        weights = np.full(count, radius * 2.0 * np.pi / count)
        return cls("circle", pts, normals, weights, {"radius": radius, "count": count})

    @classmethod
    def line(cls, length: float, standoff: float, count: int) -> "SensorArray":
        if length <= 0 or standoff <= 0:
            raise ValueError(
                f"length and standoff must be positive, got {length!r}, {standoff!r}"
            )
        if count < 2:
            raise ValueError(f"count must be >= 2, got {count!r}")
        xs = np.linspace(-length / 2.0, length / 2.0, count)
        pts = np.column_stack([xs, np.full(count, -standoff)])
        normals = np.tile([0.0, -1.0], (count, 1))
        weights = np.full(count, length / (count - 1))
        return cls(
            "line", pts, normals, weights,
            {"length": length, "standoff": standoff, "count": count},
        )

    @classmethod
    def sphere_fibonacci(cls, radius: float, count: int) -> "SensorArray":
        if radius <= 0:
            raise ValueError(f"radius must be positive, got {radius!r}")
        if count < 4:
            raise ValueError(f"count must be >= 4, got {count!r}")
        i = np.arange(count)
        z = 1.0 - (2.0 * i + 1.0) / count
        phi = np.pi * (3.0 - np.sqrt(5.0)) * i
        rho = np.sqrt(np.maximum(1.0 - z * z, 0.0))
        normals = np.column_stack([rho * np.cos(phi), rho * np.sin(phi), z])
        pts = radius * normals
        weights = np.full(count, 4.0 * np.pi * radius**2 / count)
        return cls("sphere", pts, normals, weights, {"radius": radius, "count": count})

    def arc_parameter(self) -> np.ndarray:
        """Scalar curve parameter per sensor (angle for circles, x for lines)."""
        if self.kind == "circle":
            return 2.0 * np.pi * np.arange(self.n) / self.n
        if self.kind == "line":
            return self.points[:, 0].copy()
        raise ValueError(f"no scalar arc parameter for kind {self.kind!r}")


# sensor kind -> the geometry keys it reads besides kind, in constructor order
SENSOR_KEYS = {"circle": ("radius", "count"), "line": ("length", "standoff", "count"),
               "sphere": ("radius", "count")}


def make_sensors(spec: dict) -> SensorArray:
    """Build a sensor array from a config mapping of its kind's keys, strict JSON numbers."""
    if not isinstance(spec, dict):
        raise ValueError("geometry: expected a mapping with a 'kind' field")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in SENSOR_KEYS:
        raise ValueError(f"geometry.kind: unknown value {kind!r}")
    for key in spec:
        if key != "kind" and key not in SENSOR_KEYS[kind]:
            raise ValueError(f"geometry.{key}: unknown field for kind {kind!r}")

    def number(key):
        if key not in spec:
            raise ValueError(f"geometry.{key}: missing for kind {kind!r}")
        return keyed(f"geometry.{key}", finite_int if key == "count" else finite_real, spec[key])

    build = {"circle": SensorArray.circle, "line": SensorArray.line,
             "sphere": SensorArray.sphere_fibonacci}[kind]
    return build(*map(number, SENSOR_KEYS[kind]))


@dataclass(frozen=True)
class Ellipse:
    """Additive ellipse component: intensity on the set
    ``(x'/a)**2 + (y'/b)**2 <= 1`` in axes rotated by ``angle_deg``."""

    intensity: float
    center: tuple
    axes: tuple
    angle_deg: float = 0.0

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        phi = np.deg2rad(self.angle_deg)
        dx = x - self.center[0]
        dy = y - self.center[1]
        xr = dx * np.cos(phi) + dy * np.sin(phi)
        yr = -dx * np.sin(phi) + dy * np.cos(phi)
        return (xr / self.axes[0]) ** 2 + (yr / self.axes[1]) ** 2 <= 1.0


# Classical ten-ellipse table (intensity, a, b, x0, y0, phi_deg) on the unit
# square; rasterizers scale it by 0.8 so the support fits in (-0.8, 0.8)^2.
SHEPP_LOGAN_ELLIPSES = (
    (2.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.02, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.02, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.01, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.01, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.01, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.01, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.01, 0.023, 0.023, 0.0, -0.605, 0.0),
    (0.01, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def _eval_ellipses(ellipses: Sequence[Ellipse], x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = np.zeros(np.broadcast(x, y).shape, dtype=float)
    for e in ellipses:
        out += e.intensity * e.contains(x, y)
    return out


@dataclass(eq=False)
class Phantom:
    """Absorption density raster.  ``values[i, j]`` sits at
    ``(origin[0] + i*spacing, origin[1] + j*spacing)`` (axis 0 is x).

    When ``ellipses`` is present the phantom is analytically defined and
    resampling happens by re-rasterizing the ellipse list instead of by
    interpolation.
    """

    values: np.ndarray
    spacing: float
    origin: tuple
    ellipses: tuple | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError("phantom values must be a 2-D array")
        if not np.all(np.isfinite(v)):
            raise ValueError("phantom values must be finite")
        self.values = v

    def support_box(self) -> tuple:
        """``((xlo, xhi), (ylo, yhi))`` outside which :meth:`evaluate` is zero: the
        union of the ellipses' rotated bounding boxes, else the raster extent."""
        if self.ellipses is None:
            (x0, y0), (nx, ny) = self.origin, self.values.shape
            return (x0, x0 + (nx - 1) * self.spacing), (y0, y0 + (ny - 1) * self.spacing)
        cx, cy, a, b, phi = np.array(
            [(*e.center, *e.axes, np.deg2rad(e.angle_deg)) for e in self.ellipses]
        ).reshape(-1, 5).T
        hx = np.hypot(a * np.cos(phi), b * np.sin(phi))
        hy = np.hypot(a * np.sin(phi), b * np.cos(phi))
        return ((min(cx - hx, default=0.0), max(cx + hx, default=0.0)),
                (min(cy - hy, default=0.0), max(cy + hy, default=0.0)))

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Sample the phantom at arbitrary points (exact for ellipse phantoms,
        bilinear with zero extension otherwise)."""
        if self.ellipses is not None:
            return _eval_ellipses(self.ellipses, x, y)
        nx, ny = self.values.shape
        gx = (np.asarray(x, dtype=float) - self.origin[0]) / self.spacing
        gy = (np.asarray(y, dtype=float) - self.origin[1]) / self.spacing
        inside = (gx >= 0) & (gx <= nx - 1) & (gy >= 0) & (gy <= ny - 1)
        gx = np.clip(gx, 0, nx - 1 - 1e-12)
        gy = np.clip(gy, 0, ny - 1 - 1e-12)
        i0 = gx.astype(int)
        j0 = gy.astype(int)
        fx = gx - i0
        fy = gy - j0
        v = self.values
        out = (
            (1 - fx) * (1 - fy) * v[i0, j0]
            + fx * (1 - fy) * v[np.minimum(i0 + 1, nx - 1), j0]
            + (1 - fx) * fy * v[i0, np.minimum(j0 + 1, ny - 1)]
            + fx * fy * v[np.minimum(i0 + 1, nx - 1), np.minimum(j0 + 1, ny - 1)]
        )
        return np.where(inside, out, 0.0)


def _centered_axis(n: int, half_extent: float) -> np.ndarray:
    spacing = 2.0 * half_extent / n
    return -half_extent + spacing * (np.arange(n) + 0.5)


def phantom_from_ellipses(
    ellipses: Sequence[Ellipse], grid_size: int, half_extent: float
) -> Phantom:
    """Rasterize an ellipse list on ``grid_size**2`` cell centers covering
    ``(-half_extent, half_extent)**2``."""
    if grid_size < 16:
        raise ValueError(f"grid_size must be >= 16, got {grid_size!r}")
    axis = _centered_axis(grid_size, half_extent)
    X, Y = np.meshgrid(axis, axis, indexing="ij")
    values = _eval_ellipses(ellipses, X, Y)
    return Phantom(
        values=values,
        spacing=axis[1] - axis[0],
        origin=(axis[0], axis[0]),
        ellipses=tuple(ellipses),
    )


def make_shepp_logan(grid_size: int, half_extent: float = 1.0) -> Phantom:
    """Classical Shepp-Logan phantom scaled into ``(-0.8, 0.8)**2``."""
    if half_extent < 0.8:
        raise ValueError(
            f"half_extent must be >= 0.8 so the phantom is not clipped, got {half_extent!r}"
        )
    scale = 0.8
    ellipses = [
        Ellipse(
            intensity=a,
            center=(scale * x0, scale * y0),
            axes=(scale * ea, scale * eb),
            angle_deg=phi,
        )
        for (a, ea, eb, x0, y0, phi) in SHEPP_LOGAN_ELLIPSES
    ]
    return phantom_from_ellipses(ellipses, grid_size, half_extent)


def disk_phantom(
    radius: float, intensity: float, grid_size: int, half_extent: float = 1.0
) -> Phantom:
    """Uniform disk centered at the origin."""
    if radius <= 0 or radius >= half_extent:
        raise ValueError("disk radius must satisfy 0 < radius < half_extent")
    e = Ellipse(intensity=intensity, center=(0.0, 0.0), axes=(radius, radius))
    return phantom_from_ellipses([e], grid_size, half_extent)


@dataclass(eq=False)
class WaveData:
    """Time-by-sensor sample matrix with its grids.

    ``kind`` tracks what the samples are: ``"pressure"`` (p),
    ``"integrated"`` (q), ``"attenuated"`` (p^a) or
    ``"attenuated_integrated"`` (q^a).
    """

    values: np.ndarray
    time_grid: TimeGrid
    sensors: SensorArray
    kind: str

    KINDS = ("pressure", "integrated", "attenuated", "attenuated_integrated")

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.time_grid.count, self.sensors.n):
            raise ValueError(
                f"data shape {v.shape} does not match grids "
                f"({self.time_grid.count}, {self.sensors.n})"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("wave data must be finite")
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown data kind {self.kind!r}")
        self.values = v

    def replace_values(self, values: np.ndarray, kind: str | None = None) -> "WaveData":
        return WaveData(values, self.time_grid, self.sensors, kind or self.kind)


class SpectralPropagator:
    """Band-limited propagator for one phantom on a padded periodic grid.

    The square domain side is at least ``duration + max|sensor| + support
    box corner + MARGIN`` so the first periodic wraparound arrives after
    ``duration`` (unit sound speed).  The step is ``target_dx`` exactly, so
    grids of any duration sample the phantom at the same points.  A grid
    finer than ``MAX_GRID_SIZE`` points per side is refused, not coarsened.
    """

    def __init__(
        self,
        phantom: Phantom,
        sensors: SensorArray,
        duration: float,
        target_dx: float | None = None,
    ):
        if sensors.dim != 2:
            raise ValueError("spectral propagator is 2-D; use 2-D sensors")
        sensor_reach = float(np.linalg.norm(sensors.points, axis=1).max())
        box = phantom.support_box()
        corner = float(np.hypot(*(max(-lo, hi) for lo, hi in box)))
        side = max(duration + sensor_reach + corner + MARGIN, 2.0 * (sensor_reach + MARGIN))
        dx = target_dx if target_dx is not None else phantom.spacing
        size = _next_fast_len(int(np.ceil(side / dx)))
        if size > MAX_GRID_SIZE:
            raise GridCapError(
                f"propagator grid {size}x{size} exceeds the {MAX_GRID_SIZE}x{MAX_GRID_SIZE} "
                f"cap: dx {dx:.6g} is too fine for a side of {side:.6g}; the "
                f"smallest dx that fits is about {side / MAX_GRID_SIZE:.6g}"
            )
        self.size, self.dx = size, dx
        self.axis = (np.arange(size) - size // 2) * self.dx

        # evaluate only on the block (padded by a step) outside which the phantom is zero
        bx, by = (slice(*np.searchsorted(self.axis, [lo - self.dx, hi + self.dx]))
                  for lo, hi in box)
        h = np.zeros((size, size))
        h[bx, by] = phantom.evaluate(*np.meshgrid(self.axis[bx], self.axis[by], indexing="ij"))
        kx = 2.0 * np.pi * np.fft.fftfreq(size, self.dx)
        ky = 2.0 * np.pi * np.fft.rfftfreq(size, self.dx)
        self.abs_k = np.hypot(kx[:, None], ky[None, :])
        self.h_hat = rfft2(h) * _band_taper(self.abs_k * (self.dx / np.pi))
        # |k| takes about a fifth as many distinct values as there are modes
        uniq, inverse = np.unique(self.abs_k.T, return_inverse=True)
        self._k_unique = uniq
        self._k_inverse = inverse.reshape(self.abs_k.T.shape)
        # irfft2's 1/n**2, applied as pocketfft applies it
        self._norm = float(1 / np.longdouble(size * size))

        pts = sensors.points
        if np.any(pts < self.axis[0] + dx) or np.any(pts > self.axis[-1] - dx):
            raise ValueError("sensor outside the padded computational domain")
        g = (pts - self.axis[0]) / self.dx
        i0 = np.floor(g).astype(int)
        (self._i0, self._j0), (self._fx, self._fy) = i0.T, (g - i0).T
        # grid rows (x indices) that the bilinear stencils read
        self.rows = np.unique(np.concatenate([self._i0, self._i0 + 1]))
        self._r0 = np.searchsorted(self.rows, self._i0)

    @property
    def h_hat(self) -> np.ndarray:
        """Band-tapered spectrum of ``h``, shape ``(size, size // 2 + 1)``."""
        return self._h_hat_t.T

    @h_hat.setter
    def h_hat(self, value: np.ndarray) -> None:
        # kept transposed so the inverse transform along kx is contiguous
        self._h_hat_t = np.ascontiguousarray(np.asarray(value).T)
        # reused by every step: a fresh spectrum beside ifft's output refaulted pages
        self._spec = np.empty_like(self._h_hat_t)

    def pressure_field(self, t: float, rows: np.ndarray | None = None) -> np.ndarray:
        """Pressure on the grid at time ``t``, or on the grid rows ``rows`` only.

        Bitwise equal to ``irfft2(h_hat * cos(abs_k * t))``: the same
        ``numpy.fft`` transforms in the same order, with the final real
        transform run only on the requested rows.
        """
        cos = np.cos(self._k_unique * t)[self._k_inverse]
        spec = np.multiply(self._h_hat_t, cos, out=self._spec)
        z = ifft(spec, axis=1, norm="forward").T
        z = np.ascontiguousarray(z if rows is None else z[rows])
        return irfft(z, self.size, axis=1, norm="forward") * self._norm

    def sample(self, field: np.ndarray) -> np.ndarray:
        """Bilinear sensor values from the full field or from its ``self.rows``."""
        i0 = self._i0 if field.shape[0] == self.size else self._r0
        j0, fx, fy = self._j0, self._fx, self._fy
        return (
            (1 - fx) * (1 - fy) * field[i0, j0]
            + fx * (1 - fy) * field[i0 + 1, j0]
            + (1 - fx) * fy * field[i0, j0 + 1]
            + fx * fy * field[i0 + 1, j0 + 1]
        )


def spectral_forward(
    phantom: Phantom,
    time_grid: TimeGrid,
    sensors: SensorArray,
    target_dx: float | None = None,
) -> WaveData:
    """Lossless pressure traces at the sensors (kind ``"pressure"``).

    ``target_dx`` defaults to the time step (unit sound speed makes that
    the matched spatial resolution); the phantom raster spacing is used
    when it is finer.  Segment ``j`` of ``SEGMENTS`` equal time segments
    steps a grid sized for its last sample, built for ``j/SEGMENTS`` of the
    duration.  The largest grid goes first, so a grid over the cap fails
    before any step, and each grid is freed before the next is built.
    """
    if target_dx is None:
        target_dx = min(time_grid.dt, phantom.spacing)
    out = np.empty((time_grid.count, sensors.n))
    times = time_grid.times
    for j in range(SEGMENTS, 0, -1):
        lo, hi = time_grid.count * (j - 1) // SEGMENTS, time_grid.count * j // SEGMENTS
        if lo == hi:
            continue
        prop = SpectralPropagator(phantom, sensors, time_grid.duration * j / SEGMENTS,
                                  target_dx=target_dx)
        for i in range(lo, hi):
            out[i] = prop.sample(prop.pressure_field(times[i], prop.rows))
        del prop
    return WaveData(out, time_grid, sensors, kind="pressure")
