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
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .attenuation import apply_attenuation, build_system
from .models import (
    AttenuationModel,
    ConstantModel,
    finite_int,
    finite_real,
    k_infinity,
    model_from_spec,
    model_to_spec,
    positive_real,
)
from .recon import (
    ImageGrid,
    ReconImage,
    back_project,
    check_inside,
    compensated_traces,
    full_provenance,
    full_traces,
    time_differentiate,
    time_integrate,
)
from .wavefield import (
    SENSOR_KEYS,
    Ellipse,
    GridCapError,
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


def _convert(key: str, convert, value):
    """``convert(value)``, a failure raised as a ``ConfigError`` naming ``key``."""
    try:
        return convert(value)
    except ConfigError:  # from a nested converter, which names its own key
        raise
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _optional(convert):
    return lambda value: None if value is None else convert(value)


def _geometry(value) -> str:
    if value not in ("circle", "line"):
        raise ValueError(f"unknown value {value!r}")
    return value


def _own_key(key: str, kind: str) -> bool:
    """False for a ``geometry.<key>`` that the sensor ``kind`` does not read."""
    section, _, sub = key.partition(".")
    return section != "geometry" or sub == "kind" or sub in SENSOR_KEYS[kind]


# sensor kind -> the value of each field that defaults to None when the kind reads it
_KIND_DEFAULTS = {"circle": {"radius": 1.7, "duration": 6.0},
                  "line": {"line_length": 10.2, "standoff": 1.7, "duration": 8.0}}


def _model(value) -> AttenuationModel:
    if isinstance(value, AttenuationModel):
        return value
    try:
        return model_from_spec(value)
    except ValueError as exc:  # model_from_spec names the model key itself
        raise ConfigError(str(exc)) from exc


def _pair(value, convert) -> tuple:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ValueError(f"expected a pair of numbers, got {value!r}")
    return convert(value[0]), convert(value[1])


def _ellipses(items) -> list:
    """Ellipse mappings typed for ``Ellipse(**item)``."""
    if not isinstance(items, list) or not items:
        raise ValueError(f"expected a non-empty list of ellipses, got {items!r}")
    out = []
    for item in items:
        e = Ellipse(**item)  # a TypeError names a missing or unknown key
        out.append({
            "intensity": finite_real(e.intensity),
            "center": _pair(e.center, finite_real),
            "axes": _pair(e.axes, positive_real),
            "angle_deg": finite_real(e.angle_deg),
        })
    return out


# phantom kind -> converter of each key it reads besides kind, grid_size and half_extent
_PHANTOM_KEYS = {
    "shepp-logan": {},
    "disk": {"radius": positive_real, "intensity": finite_real},
    "ellipses": {"items": _ellipses},
}


def _phantom(spec) -> dict:
    """The phantom mapping with its kind (and a disk's radius and intensity)
    filled in and every value typed."""
    if not isinstance(spec, dict):
        raise ValueError(f"expected a mapping, got {spec!r}")
    kind = spec.get("kind", "shepp-logan")
    if not isinstance(kind, str) or kind not in _PHANTOM_KEYS:
        raise ConfigError(f"phantom.kind: unknown value {kind!r}")
    keys = dict(kind=str, grid_size=finite_int, half_extent=positive_real, **_PHANTOM_KEYS[kind])
    for key in spec:
        if key not in keys:
            raise ConfigError(f"phantom.{key}: unknown field for kind {kind!r}")
    if kind == "ellipses" and "items" not in spec:
        raise ConfigError("phantom.items: missing for kind 'ellipses'")
    typed = {key: _convert(f"phantom.{key}", keys[key], value) for key, value in spec.items()}
    defaults = {"radius": 0.4, "intensity": 1.0} if kind == "disk" else {}
    return {**defaults, **typed, "kind": kind}


def _regularization(value) -> float | None:
    """``"none"`` (or null) for no regularization, else the Tikhonov ``lam``,
    written ``{"kind": "tikhonov", "lam": ...}`` or bare."""
    if value is None or value == "none":
        return None
    if isinstance(value, dict):
        kind = value.get("kind")
        if kind != "tikhonov":
            raise ConfigError(f"regularization.kind: expected 'tikhonov', got {kind!r}")
        for key in value:
            if key not in ("kind", "lam"):
                raise ConfigError(f"regularization.{key}: unknown config field")
        value = value.get("lam")
    return _convert("regularization.lam", positive_real, value)


def _field(convert, key: str, dump=lambda value: value, **default):
    """A config field with the converter ``__post_init__`` applies, its config
    key (``section.key`` inside a section) and the inverse ``to_dict`` applies."""
    return field(**default, metadata={"convert": convert, "key": key, "dump": dump})


@dataclass
class ScenarioConfig:
    """One experiment configuration (defaults mirror the circle benchmark);
    every value, however given, is checked once, when the config is built."""

    model: AttenuationModel = _field(
        _model, "model", model_to_spec, default_factory=lambda: ConstantModel(k_inf=0.45)
    )
    geometry: str = _field(_geometry, "geometry.kind", default="circle")
    # None means the kind's default (_KIND_DEFAULTS); a key the kind does not read stays None
    radius: float | None = _field(_optional(positive_real), "geometry.radius", default=None)
    line_length: float | None = _field(_optional(positive_real), "geometry.length", default=None)
    standoff: float | None = _field(_optional(positive_real), "geometry.standoff", default=None)
    duration: float | None = _field(_optional(positive_real), "duration", default=None)
    forward_time_count: int = _field(finite_int, "forward_time_count", default=500)
    forward_sensor_count: int = _field(finite_int, "forward_sensor_count", default=896)
    inversion_time_count: int = _field(finite_int, "inversion_time_count", default=443)
    inversion_sensor_count: int = _field(finite_int, "geometry.count", default=849)
    image_size: int = _field(finite_int, "image_size", default=128)
    image_half_extent: float = _field(positive_real, "image_half_extent", default=1.0)
    phantom: dict = _field(
        _phantom, "phantom", default_factory=lambda: {"kind": "shepp-logan"}
    )
    noise_level: float = _field(partial(finite_real, least=0.0), "noise.level", default=0.0)
    seed: int = _field(partial(finite_int, least=0), "noise.seed", default=0)
    taylor_order: int = _field(finite_int, "taylor_order", default=10)
    forward_taylor_order: int = _field(finite_int, "forward_taylor_order", default=14)
    omega_max: float = _field(positive_real, "omega_max", default=200.0)
    quad_nodes: int = _field(finite_int, "quad_nodes", default=2**14)
    forward_quad_nodes: int = _field(finite_int, "forward_quad_nodes", default=2**15)
    regularization: float | None = _field(
        _regularization, "regularization", lambda lam: lam or "none", default=None
    )

    def __post_init__(self) -> None:
        for f in fields(self):  # geometry precedes the fields whose defaults depend on it
            key = f.metadata["key"]
            value = _convert(key, f.metadata["convert"], getattr(self, f.name))
            own = _own_key(key, self.geometry)
            if value is not None and not own:
                raise ConfigError(f"{key}: unknown field for kind {self.geometry!r}")
            if value is None and own:
                value = _KIND_DEFAULTS[self.geometry].get(f.name)
            setattr(self, f.name, value)
        # the phantom builders' limits, on the values they will be given
        spec = self.phantom
        n, half = self._phantom_raster()
        size_key = "phantom.grid_size" if "grid_size" in spec else "image_size"
        half_key = "phantom.half_extent" if "half_extent" in spec else "image_half_extent"
        if n < 16:
            raise ConfigError(f"{size_key}: the phantom raster needs >= 16 points, got {n}")
        if spec["kind"] == "shepp-logan" and half < 0.8:
            raise ConfigError(f"{half_key}: the Shepp-Logan phantom needs >= 0.8, got {half!r}")
        if spec["kind"] == "disk" and spec["radius"] >= half:
            raise ConfigError(f"phantom.radius: must be < the half extent {half!r}, "
                              f"got {spec['radius']!r}")
        # the image grid strictly inside the inversion geometry, as back_project needs
        sensors = _convert("geometry.count", self.sensors, self.inversion_sensor_count)
        _convert("image_half_extent", partial(check_inside, sensors), self.image_grid().points())

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

    def _phantom_raster(self) -> tuple:
        """Size and half extent of the phantom raster: the phantom's own keys,
        else the image's."""
        spec = self.phantom
        return (spec.get("grid_size", self.image_size),
                spec.get("half_extent", self.image_half_extent))

    def build_phantom(self) -> Phantom:
        spec = self.phantom
        n, half = self._phantom_raster()
        if spec["kind"] == "shepp-logan":
            return make_shepp_logan(n, half)
        if spec["kind"] == "disk":
            return disk_phantom(spec["radius"], spec["intensity"], n, half)
        return phantom_from_ellipses([Ellipse(**e) for e in spec["items"]], n, half)

    def methods(self) -> list:
        if isinstance(self.model, ConstantModel):
            return ["naive", "full"]
        return ["naive", "compensated", "full"]

    # --- config file round trip -----------------------------------------
    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config: expected a mapping, got {type(raw).__name__}")
        names = {f.metadata["key"]: f.name for f in fields(cls)}
        sections = {key.partition(".")[0] for key in names if "." in key}
        flat = {}
        for key, value in raw.items():
            if key in sections:
                if not isinstance(value, dict):
                    raise ConfigError(f"{key}: expected a mapping, got {value!r}")
                flat.update((f"{key}.{sub}", v) for sub, v in value.items())
            elif "." in str(key):  # a dotted key is only ever written inside its section
                raise ConfigError(f"{key}: unknown config field")
            else:
                flat[key] = value
        for key, value in flat.items():
            if key not in names:
                raise ConfigError(f"{key}: unknown config field")
            if value is None and key.startswith("geometry."):  # a file has no null geometry
                raise ConfigError(f"{key}: expected a value, got null")
        return cls(**{names[key]: value for key, value in flat.items()})

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            if not _own_key(f.metadata["key"], self.geometry):
                continue
            section, _, key = f.metadata["key"].rpartition(".")
            value = f.metadata["dump"](getattr(self, f.name))
            (out.setdefault(section, {}) if section else out)[key] = value
        return out


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
    diagnostics: dict  # "condition": exact 1-norm condition of M, unregularized only


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
    # every input spectral_forward reads: the raster geometry sets the default dx and the
    # support box (of the ellipses, if any) the grid sides, the ellipses or values the field
    key = (
        phantom.values.shape, phantom.spacing, phantom.origin,
        phantom.ellipses if phantom.ellipses is not None else phantom.values.tobytes(),
        sensors.kind, sensors.points.tobytes(), tg,
    )
    cached = _FORWARD_CACHE.get(key)
    if cached is None:
        try:
            cached = spectral_forward(phantom, tg, sensors)
        except GridCapError as exc:
            raise GridCapError(
                f"{exc}. A scenario's dx is the finer of the forward time step duration / "
                f"forward_time_count ({tg.dt:.6g}) and the phantom raster spacing "
                f"({phantom.spacing:.6g}), set by phantom.grid_size and half_extent, which "
                "default to image_size and image_half_extent") from exc
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
    """Inversion half of a scenario: resample, correct the traces for every
    applicable method, back-project them all in one pass, and score against
    the rasterized ground truth."""
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
        pa_inv = resample_data(pa, inv_tg, config.sensors(config.inversion_sensor_count))

    traces = {"naive": pa_inv}
    if "compensated" in config.methods():
        with _stage("reconstruct-compensated", runtimes):
            traces["compensated"] = compensated_traces(pa_inv, k_infinity(config.model))
    with _stage("reconstruct-full", runtimes):
        system = build_system(
            config.model,
            inv_tg,
            order=config.taylor_order,
            omega_max=config.omega_max,
            num_nodes=config.quad_nodes,
        )
        traces["full"] = full_traces(pa_inv, system, regularization=config.regularization)
        # the direct solve has computed M^{-1}, so its condition is free
        regularized = config.regularization is not None
        diagnostics = {} if regularized else {"condition": system.condition_estimate()}

    with _stage("back-projection", runtimes):
        tags = {"naive": "naive-ubp", "compensated": "compensated", "full": "full"}
        images = back_project({tags[name]: wave for name, wave in traces.items()}, grid)
        recons = {name: images[tags[name]] for name in traces}
        recons["full"].provenance.update(full_provenance(system, config.regularization))

    with _stage("metrics", runtimes):
        errors = {name: rel_l2_error(img, truth) for name, img in recons.items()}
        sections = {name: cross_section(img, y=0.0)
                    for name, img in {"truth": truth, **recons}.items()}

    return ScenarioResult(
        config=config,
        truth=truth,
        data_forward=pa,
        data=pa_inv,
        reconstructions=recons,
        errors=errors,
        cross_sections=sections,
        runtimes=runtimes,
        diagnostics=diagnostics,
    )


def run_scenario(config: ScenarioConfig) -> ScenarioResult:
    """Full pipeline: simulate, corrupt, resample, reconstruct, score."""
    pa, phantom, runtimes = simulate_scenario(config)
    return reconstruct_scenario(config, pa, phantom, runtimes)
