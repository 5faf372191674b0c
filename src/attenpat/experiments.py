"""Scenario orchestration: forward simulation, noise, resampling, metrics.

A scenario is one benchmark experiment: simulate lossless
pressure on fine grids, attenuate it through the discrete operator,
optionally add noise, resample onto coarser inversion grids (avoiding
the inverse crime of sharing discretizations), reconstruct with every
applicable method and score each against the rasterized ground truth.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attenuation import apply_attenuation, build_system
from .models import (
    AttenuationModel,
    ConstantModel,
    k_infinity,
    model_from_spec,
    model_to_spec,
)
from .recon import (
    ImageGrid,
    ReconImage,
    reconstruct_compensated,
    reconstruct_full,
    reconstruct_naive,
    time_differentiate,
    time_integrate,
)
from .wavefield import (
    Ellipse,
    Phantom,
    SensorArray,
    TimeGrid,
    WaveData,
    disk_phantom,
    make_shepp_logan,
    phantom_from_ellipses,
    spectral_forward,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "ScenarioResult",
    "ScenarioStageError",
    "add_noise",
    "resample_data",
    "rel_l2_error",
    "cross_section",
    "simulate_scenario",
    "reconstruct_scenario",
    "run_scenario",
]


class ConfigError(ValueError):
    """Malformed scenario configuration; the message names the field."""


class ScenarioStageError(RuntimeError):
    """A scenario stage failed; carries the stage name and the cause."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"scenario stage '{stage}' failed: {cause}")
        self.stage = stage


@contextmanager
def _stage(name: str, runtimes: dict):
    """Run one scenario stage: a failure becomes a ``ScenarioStageError``
    naming the stage, a success records its wall time in ``runtimes``."""
    t0 = time.perf_counter()
    try:
        yield
    except ScenarioStageError:
        raise
    except Exception as exc:
        raise ScenarioStageError(name, exc) from exc
    runtimes[name] = time.perf_counter() - t0


def _int(value) -> int:
    """Strict ``int``: a JSON integer or an integral float, never a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _bool(value) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


# nested config sections: key -> (ScenarioConfig field, converter)
_CONFIG_SECTIONS = {
    "geometry": {
        "kind": ("geometry", str), "radius": ("radius", float),
        "length": ("line_length", float), "standoff": ("standoff", float),
        "count": ("inversion_sensor_count", _int),
    },
    "noise": {"level": ("noise_level", float), "seed": ("seed", _int)},
}
# fields that count, size or order something: each must be >= 1
_POSITIVE_FIELDS = (
    "forward_time_count", "forward_sensor_count", "inversion_time_count",
    "inversion_sensor_count", "image_size", "taylor_order", "forward_taylor_order",
    "quad_nodes", "forward_quad_nodes",
)

# phantom kind -> the fields it reads besides kind, grid_size and half_extent
_PHANTOM_FIELDS = {
    "shepp-logan": (),
    "disk": ("radius", "intensity"),
    "ellipses": ("items",),
}


@dataclass
class ScenarioConfig:
    """One experiment configuration (defaults mirror the circle benchmark)."""

    model: AttenuationModel = field(default_factory=lambda: ConstantModel(k_inf=0.45))
    geometry: str = "circle"  # "circle" | "line"
    radius: float = 1.7
    line_length: float = 10.2
    standoff: float = 1.7
    duration: Optional[float] = None  # default 6 for circle, 8 for line
    forward_time_count: int = 500
    forward_sensor_count: int = 896
    inversion_time_count: int = 443
    inversion_sensor_count: int = 849
    image_size: int = 128
    image_half_extent: float = 1.0
    phantom: dict = field(default_factory=lambda: {"kind": "shepp-logan"})
    noise_level: float = 0.0
    seed: int = 0
    taylor_order: int = 10
    forward_taylor_order: int = 14
    omega_max: float = 200.0
    quad_nodes: int = 2**14
    forward_quad_nodes: int = 2**15
    regularization: Optional[float] = None
    inverse_crime: bool = False
    target_dx: Optional[float] = None

    def __post_init__(self) -> None:
        if self.geometry not in ("circle", "line"):
            raise ConfigError(f"geometry: unknown value {self.geometry!r}")
        kind = self.phantom.get("kind", "shepp-logan")
        if kind not in _PHANTOM_FIELDS:
            raise ConfigError(f"phantom.kind: unknown value {kind!r}")
        for key in self.phantom:
            if key not in ("kind", "grid_size", "half_extent", *_PHANTOM_FIELDS[kind]):
                raise ConfigError(f"phantom.{key}: unknown field for kind {kind!r}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name}: must be >= 1, got {value!r}")
        if self.duration is None:
            self.duration = 6.0 if self.geometry == "circle" else 8.0
        if self.noise_level < 0:
            raise ConfigError(f"noise.level: must be >= 0, got {self.noise_level!r}")
        lam = self.regularization
        if lam is not None and not (np.isfinite(lam) and lam > 0):
            raise ConfigError(f"regularization.lam: must be positive and finite, got {lam!r}")
        if self.inverse_crime:
            self.inversion_time_count = self.forward_time_count
            self.inversion_sensor_count = self.forward_sensor_count

    # --- derived pieces -------------------------------------------------
    def forward_time_grid(self) -> TimeGrid:
        return TimeGrid.from_duration(self.duration, self.forward_time_count)

    def inversion_time_grid(self) -> TimeGrid:
        return TimeGrid.from_duration(self.duration, self.inversion_time_count)

    def sensors(self, count: int) -> SensorArray:
        if self.geometry == "circle":
            return SensorArray.circle(self.radius, count)
        return SensorArray.line(self.line_length, self.standoff, count)

    def image_grid(self) -> ImageGrid:
        return ImageGrid.centered(self.image_size, self.image_half_extent)

    def build_phantom(self) -> Phantom:
        spec = self.phantom
        kind = spec.get("kind", "shepp-logan")
        n = int(spec.get("grid_size", self.image_size))
        half = float(spec.get("half_extent", self.image_half_extent))
        if kind == "shepp-logan":
            return make_shepp_logan(n, half)
        if kind == "disk":
            return disk_phantom(
                float(spec.get("radius", 0.4)), float(spec.get("intensity", 1.0)), n, half
            )
        items = spec.get("items")  # kind "ellipses", the only other one __post_init__ accepts
        if not items:
            raise ConfigError("phantom.items: missing for kind 'ellipses'")
        ells = [
            Ellipse(
                intensity=float(e["intensity"]),
                center=(float(e["center"][0]), float(e["center"][1])),
                axes=(float(e["axes"][0]), float(e["axes"][1])),
                angle_deg=float(e.get("angle_deg", 0.0)),
            )
            for e in items
        ]
        return phantom_from_ellipses(ells, n, half)

    def methods(self) -> list:
        out = ["naive"]
        if not isinstance(self.model, ConstantModel):
            out.append("compensated")
        out.append("full")
        return out

    # --- config file round trip -----------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config: expected a mapping")
        d = dict(raw)
        kwargs = {}
        try:
            if "model" in d:
                kwargs["model"] = model_from_spec(d.pop("model"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        for section, table in _CONFIG_SECTIONS.items():
            spec = d.pop(section, None)
            if spec is None:
                continue
            if not isinstance(spec, dict):
                raise ConfigError(f"{section}: expected a mapping, got {spec!r}")
            for key, value in spec.items():
                if key not in table:
                    raise ConfigError(f"{section}.{key}: unknown config field")
                name, conv = table[key]
                try:
                    kwargs[name] = conv(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{section}.{key}: {exc}") from exc
        reg = d.pop("regularization", None)
        if reg is not None and reg != "none":
            if isinstance(reg, dict):
                if reg.get("kind") != "tikhonov":
                    raise ConfigError(
                        f"regularization.kind: expected 'tikhonov', got {reg.get('kind')!r}"
                    )
                reg = reg.get("lam")
            try:
                kwargs["regularization"] = float(reg)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"regularization.lam: {exc}") from exc
        simple = {
            "duration": float, "forward_time_count": _int, "forward_sensor_count": _int,
            "inversion_time_count": _int, "inversion_sensor_count": _int,
            "image_size": _int, "image_half_extent": float, "phantom": dict,
            "seed": _int, "taylor_order": _int, "forward_taylor_order": _int,
            "omega_max": float, "quad_nodes": _int, "forward_quad_nodes": _int,
            "inverse_crime": _bool, "target_dx": float,
        }
        for key, conv in simple.items():
            if key in d:
                value = d.pop(key)
                try:
                    optional = key in ("duration", "target_dx")
                    kwargs[key] = None if value is None and optional else conv(value)
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"{key}: {exc}") from exc
        if d:
            raise ConfigError(f"{sorted(d)[0]}: unknown config field")
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return {
            "model": model_to_spec(self.model),
            "geometry": {
                "kind": self.geometry,
                "radius": self.radius,
                "length": self.line_length,
                "standoff": self.standoff,
                "count": self.inversion_sensor_count,
            },
            "duration": self.duration,
            "forward_time_count": self.forward_time_count,
            "forward_sensor_count": self.forward_sensor_count,
            "inversion_time_count": self.inversion_time_count,
            "image_size": self.image_size,
            "image_half_extent": self.image_half_extent,
            "phantom": self.phantom,
            "noise": {"level": self.noise_level, "seed": self.seed},
            "taylor_order": self.taylor_order,
            "forward_taylor_order": self.forward_taylor_order,
            "omega_max": self.omega_max,
            "quad_nodes": self.quad_nodes,
            "forward_quad_nodes": self.forward_quad_nodes,
            "regularization": self.regularization if self.regularization else "none",
            "inverse_crime": self.inverse_crime,
            "target_dx": self.target_dx,
        }


@dataclass(eq=False)
class ScenarioResult:
    config: ScenarioConfig
    truth: ReconImage
    data_forward: WaveData  # p^a on the forward grids (after noise)
    data: WaveData  # p^a resampled onto the inversion grids
    reconstructions: dict
    errors: dict
    cross_sections: dict  # name -> (coordinates, values)
    runtimes: dict


def add_noise(wave: WaveData, level: float, seed: int) -> WaveData:
    """Add i.i.d. uniform noise whose standard deviation is
    ``level * max|data|`` (uniform on ``[-a, a]`` with ``a = level * max * sqrt(3)``)."""
    if level < 0:
        raise ValueError(f"noise level must be >= 0, got {level!r}")
    if level == 0:
        return wave
    amp = level * float(np.abs(wave.values).max()) * np.sqrt(3.0)
    rng = np.random.default_rng(seed)
    noisy = wave.values + rng.uniform(-amp, amp, size=wave.values.shape)
    return wave.replace_values(noisy)


def _interp_matrix(src: np.ndarray, dst: np.ndarray):
    """Indices and fractions placing dst nodes inside the src node array."""
    idx = np.clip(np.searchsorted(src, dst) - 1, 0, len(src) - 2)
    frac = np.clip((dst - src[idx]) / (src[idx + 1] - src[idx]), 0.0, 1.0)
    return idx, frac


def resample_data(wave: WaveData, time_grid: TimeGrid, sensors: SensorArray) -> WaveData:
    """Bilinear resampling in (time, sensor arc parameter) onto coarser or
    equal grids of the same geometry; circles wrap periodically."""
    src_t = wave.time_grid.times
    dst_t = time_grid.times
    tol = 1e-9 * wave.time_grid.duration
    if dst_t[-1] > src_t[-1] + tol or dst_t[0] < src_t[0] - tol:
        raise ValueError("resampling would extrapolate in time")
    if time_grid.dt < wave.time_grid.dt * (1.0 - 1e-9):
        raise ValueError("target time grid is finer than the source")
    if sensors.kind != wave.sensors.kind:
        raise ValueError(
            f"geometry mismatch: {wave.sensors.kind!r} vs {sensors.kind!r}"
        )
    for key, src_val in wave.sensors.params.items():
        if key != "count" and abs(sensors.params.get(key, src_val) - src_val) > 1e-9:
            raise ValueError(
                f"geometry mismatch: {key} differs "
                f"({src_val} vs {sensors.params.get(key)})"
            )
    if sensors.n > wave.sensors.n:
        raise ValueError("target sensor array is finer than the source")

    dst_clipped = np.minimum(dst_t, src_t[-1])
    it, ft = _interp_matrix(src_t, dst_clipped)
    v = wave.values
    vt = (1.0 - ft)[:, None] * v[it] + ft[:, None] * v[it + 1]

    src_p = wave.sensors.arc_parameter()
    dst_p = sensors.arc_parameter()
    if wave.sensors.kind == "circle":
        src_p = np.append(src_p, 2.0 * np.pi)
        vt = np.column_stack([vt, vt[:, 0]])
    else:
        ptol = 1e-9 * (src_p[-1] - src_p[0])
        if dst_p[0] < src_p[0] - ptol or dst_p[-1] > src_p[-1] + ptol:
            raise ValueError("resampling would extrapolate along the sensor curve")
        dst_p = np.clip(dst_p, src_p[0], src_p[-1])
    jp, fp = _interp_matrix(src_p, dst_p)
    out = (1.0 - fp)[None, :] * vt[:, jp] + fp[None, :] * vt[:, jp + 1]
    return WaveData(out, time_grid, sensors, wave.kind)


def rel_l2_error(image, truth) -> float:
    """``||image - truth||_2 / ||truth||_2`` over a shared grid."""
    a = image.values if isinstance(image, ReconImage) else np.asarray(image)
    b = truth.values if isinstance(truth, ReconImage) else np.asarray(truth)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if isinstance(image, ReconImage) and isinstance(truth, ReconImage):
        if image.grid != truth.grid:
            raise ValueError("images live on different grids")
    denom = float(np.linalg.norm(b))
    if denom == 0:
        raise ValueError("reference image is identically zero")
    return float(np.linalg.norm(a - b) / denom)


def cross_section(image: ReconImage, y: float = 0.0):
    """Nearest image row to ``y``, varying x: returns ``(x_values, samples)``."""
    if image.grid.ndim != 2:
        raise ValueError("cross sections are defined for 2-D images")
    j = int(round((y - image.grid.origin[1]) / image.grid.spacing))
    if not 0 <= j < image.grid.shape[1]:
        raise ValueError(f"coordinate {y!r} outside the grid")
    return image.grid.axes()[0].copy(), image.values[:, j].copy()


# Forward fields are deterministic in (phantom, geometry, grids), so repeated
# scenario runs (e.g. a noisy rerun of a clean study) reuse the traces.
_FORWARD_CACHE: dict = {}
_FORWARD_CACHE_LIMIT = 8


def _forward_pressure(config: ScenarioConfig, phantom: Phantom) -> WaveData:
    sensors = config.sensors(config.forward_sensor_count)
    tg = config.forward_time_grid()
    # every input spectral_forward reads: the raster geometry sets the padded
    # side and the default dx, the ellipses (or values) the initial field
    key = (
        phantom.values.shape, phantom.spacing, phantom.origin,
        phantom.ellipses if phantom.ellipses is not None else phantom.values.tobytes(),
        sensors.kind, sensors.points.tobytes(), tg, config.target_dx,
    )
    cached = _FORWARD_CACHE.get(key)
    if cached is None:
        cached = spectral_forward(phantom, tg, sensors, target_dx=config.target_dx)
        if len(_FORWARD_CACHE) >= _FORWARD_CACHE_LIMIT:
            _FORWARD_CACHE.pop(next(iter(_FORWARD_CACHE)))
        _FORWARD_CACHE[key] = cached
    return WaveData(cached.values.copy(), cached.time_grid, cached.sensors, cached.kind)


def simulate_scenario(config: ScenarioConfig):
    """Forward half of a scenario: attenuated pressure p^a on the forward
    grids, with noise already applied.  Returns ``(pa, phantom, runtimes)``."""
    runtimes = {}
    with _stage("phantom", runtimes):
        phantom = config.build_phantom()
    with _stage("forward-propagation", runtimes):
        p = _forward_pressure(config, phantom)
    with _stage("forward-attenuation", runtimes):
        q = time_integrate(p)
        system = build_system(
            config.model,
            config.forward_time_grid(),
            order=config.forward_taylor_order,
            omega_max=config.omega_max,
            num_nodes=config.forward_quad_nodes,
        )
        qa = apply_attenuation(system, q)
        pa = time_differentiate(qa)
    with _stage("noise", runtimes):
        pa = add_noise(pa, config.noise_level, config.seed)
    return pa, phantom, runtimes


def reconstruct_scenario(config: ScenarioConfig, pa: WaveData, phantom: Phantom | None = None,
                         runtimes: dict | None = None) -> ScenarioResult:
    """Inversion half of a scenario: resample, reconstruct with every
    applicable method, and score against the rasterized ground truth."""
    runtimes = dict(runtimes or {})
    if phantom is None:
        with _stage("phantom", runtimes):
            phantom = config.build_phantom()
    grid = config.image_grid()

    with _stage("ground-truth", runtimes):
        axes = grid.axes()
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        truth = ReconImage(
            phantom.evaluate(X, Y), grid, "ground-truth",
            provenance={"phantom": config.phantom},
        )

    with _stage("resample", runtimes):
        inv_tg = config.inversion_time_grid()
        inv_sensors = config.sensors(config.inversion_sensor_count)
        same = (
            inv_tg == pa.time_grid and inv_sensors.kind == pa.sensors.kind
            and inv_sensors.params == pa.sensors.params
        )
        pa_inv = pa if same else resample_data(pa, inv_tg, inv_sensors)

    recons: dict = {}
    with _stage("reconstruct-naive", runtimes):
        recons["naive"] = reconstruct_naive(pa_inv, grid)
    if "compensated" in config.methods():
        with _stage("reconstruct-compensated", runtimes):
            recons["compensated"] = reconstruct_compensated(
                pa_inv, k_infinity(config.model), grid
            )
    with _stage("reconstruct-full", runtimes):
        system = build_system(
            config.model,
            inv_tg,
            order=config.taylor_order,
            omega_max=config.omega_max,
            num_nodes=config.quad_nodes,
        )
        recons["full"] = reconstruct_full(
            pa_inv, system, grid, regularization=config.regularization
        )

    with _stage("metrics", runtimes):
        errors = {name: rel_l2_error(img, truth) for name, img in recons.items()}
        sections = {"truth": cross_section(truth, y=0.0)}
        for name, img in recons.items():
            sections[name] = cross_section(img, y=0.0)

    return ScenarioResult(
        config=config,
        truth=truth,
        data_forward=pa,
        data=pa_inv,
        reconstructions=recons,
        errors=errors,
        cross_sections=sections,
        runtimes=runtimes,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Full pipeline: simulate, corrupt, resample, reconstruct, score."""
    pa, phantom, runtimes = simulate_scenario(config)
    return reconstruct_scenario(config, pa, phantom, runtimes)
