"""Scenario orchestration: forward simulation, noise, resampling, metrics.

A scenario is one benchmark experiment: simulate lossless
pressure on fine grids, attenuate it through the discrete operator,
optionally add noise, resample onto coarser inversion grids (avoiding
the inverse crime of sharing discretizations), reconstruct with every
applicable method and score each against the rasterized ground truth.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .attenuation import DEFAULT_OMEGA_MAX, DEFAULT_QUAD_NODES, apply_attenuation, build_system
from .attenuation import _band  # the effective band, which M reads
from .models import (
    AttenuationModel,
    ConfigError,
    ConstantModel,
    finite_int,
    finite_real,
    k_infinity,
    keyed,
    model_from_spec,
    model_to_spec,
    positive_real,
    read_kind,
)
from . import recon
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
    make_sensors,
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


def _optional(convert):
    return lambda value: None if value is None else convert(value)


class _KindDuration(float):
    """A duration filled in from the geometry kind, which every rebuild
    (``dataclasses.replace`` included) fills in again from the kind it then has."""


# sensor kind -> the value of each geometry key it reads, and of duration, when not given
_KIND_DEFAULTS = {"circle": ({"radius": 1.7, "count": 849}, 6.0),
                  "line": ({"length": 10.2, "standoff": 1.7, "count": 849}, 8.0)}
_GEOMETRY_KEYS = {kind: SENSOR_KEYS[kind] for kind in _KIND_DEFAULTS}


def _geometry(spec) -> dict:
    """The sensor geometry mapping with its kind's defaults filled in and every value typed."""
    kind, values = read_kind("geometry", spec, _GEOMETRY_KEYS, default="circle",
                             optional=("radius", "length", "standoff", "count"))
    return {"kind": kind, **_KIND_DEFAULTS[kind][0], **values}


_time_count = partial(finite_int, least=2)  # to differentiate and to back-project


def _model(value) -> AttenuationModel:
    return value if isinstance(value, AttenuationModel) else model_from_spec(value)


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


# phantom kind -> converter of each key it reads; all but an ellipses' items are optional
_RASTER_KEYS = {"grid_size": finite_int, "half_extent": positive_real}
_PHANTOM_KEYS = {
    "shepp-logan": _RASTER_KEYS,
    "disk": {**_RASTER_KEYS, "radius": positive_real, "intensity": finite_real},
    "ellipses": {**_RASTER_KEYS, "items": _ellipses},
}


def _phantom(spec) -> dict:
    """The phantom mapping with its kind (and a disk's radius and intensity)
    filled in and every value typed."""
    kind, values = read_kind("phantom", spec, _PHANTOM_KEYS, default="shepp-logan",
                             optional=("grid_size", "half_extent", "radius", "intensity"))
    defaults = {"radius": 0.4, "intensity": 1.0} if kind == "disk" else {}
    return {**defaults, **values, "kind": kind}


def _regularization(value) -> float | None:
    """``"none"`` (or null) for no regularization, else the Tikhonov ``lam``,
    written ``{"kind": "tikhonov", "lam": ...}`` or bare."""
    if value is None or value == "none":
        return None
    spec = value if isinstance(value, dict) else {"kind": "tikhonov", "lam": value}
    return read_kind("regularization", spec, {"tikhonov": {"lam": positive_real}})[1]["lam"]


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
    geometry: dict = _field(_geometry, "geometry", default_factory=lambda: {"kind": "circle"})
    # None means the geometry kind's default (_KIND_DEFAULTS)
    duration: float | None = _field(_optional(positive_real), "duration", default=None)
    forward_time_count: int = _field(_time_count, "forward_time_count", default=500)
    forward_sensor_count: int = _field(finite_int, "forward_sensor_count", default=896)
    inversion_time_count: int = _field(_time_count, "inversion_time_count", default=443)
    image_size: int = _field(finite_int, "image_size", default=128)
    image_half_extent: float = _field(positive_real, "image_half_extent", default=1.0)
    phantom: dict = _field(
        _phantom, "phantom", default_factory=lambda: {"kind": "shepp-logan"}
    )
    noise_level: float = _field(partial(finite_real, least=0.0), "noise.level", default=0.0)
    seed: int = _field(partial(finite_int, least=0), "noise.seed", default=0)
    omega_max: float = _field(positive_real, "omega_max", default=DEFAULT_OMEGA_MAX)
    quad_nodes: int = _field(finite_int, "quad_nodes", default=DEFAULT_QUAD_NODES)
    forward_quad_nodes: int = _field(finite_int, "forward_quad_nodes", default=2**15)
    regularization: float | None = _field(
        _regularization, "regularization", lambda lam: lam or "none", default=None
    )

    def __post_init__(self) -> None:
        if isinstance(self.duration, _KindDuration):
            self.duration = None
        for f in fields(self):
            setattr(self, f.name, keyed(f.metadata["key"], f.metadata["convert"],
                                        getattr(self, f.name)))
        if self.duration is None:
            self.duration = _KindDuration(_KIND_DEFAULTS[self.geometry["kind"]][1])
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
        # resample_data coarsens the forward traces onto the inversion grids, never refines
        for key, count, forward in (
                ("inversion_time_count", self.inversion_time_count, "forward_time_count"),
                ("geometry.count", self.geometry["count"], "forward_sensor_count")):
            if count > getattr(self, forward):
                raise ConfigError(f"{key}: {count} exceeds {forward} {getattr(self, forward)}")
        # the image grid strictly inside the inversion geometry, as back_project needs
        sensors = keyed("geometry.count", self.sensors, self.geometry["count"])
        keyed("image_half_extent", partial(check_inside, sensors), self.image_grid().points())

    # --- derived pieces -------------------------------------------------
    def forward_time_grid(self) -> TimeGrid:
        return TimeGrid.from_duration(self.duration, self.forward_time_count)

    def inversion_time_grid(self) -> TimeGrid:
        return TimeGrid.from_duration(self.duration, self.inversion_time_count)

    def sensors(self, count: int) -> SensorArray:
        return make_sensors({**self.geometry, "count": count})

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
        for key in flat:
            if key not in names:
                raise ConfigError(f"{key}: unknown config field")
        return cls(**{names[key]: value for key, value in flat.items()})

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
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
    diagnostics: dict  # "taylor_order": K of M; "condition": its 1-norm condition if unregularized


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
    if time_grid.dt < wave.time_grid.dt * (1.0 - 1e-9):
        raise ValueError("target time grid is finer than the source")
    if dst_t[-1] > src_t[-1] + tol or dst_t[0] < src_t[0] - tol:
        raise ValueError("resampling would extrapolate in time")
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


# Forward data are deterministic in (phantom, geometry, grids), and p^a also in the law, its
# band and quadrature, so a rerun that changes only the noise or the inversion reuses both.
# recon's one bounded cache, read through the module so a swapped dict serves both layers,
# holds each phantom (shared, raster read-only), the lossless traces, shared by every law on a
# geometry, each law's clean p^a (copied out) and the ground truth (shared, read-only).


def _lossless_key(config: ScenarioConfig, phantom: Phantom) -> tuple:
    sensors = config.sensors(config.forward_sensor_count)
    # every input spectral_forward reads: the raster geometry sets the default dx and the
    # support box (of the ellipses, if any) the grid sides, the ellipses or values the field
    return (
        "lossless", phantom.values.shape, phantom.spacing, phantom.origin,
        phantom.ellipses if phantom.ellipses is not None else phantom.values.tobytes(),
        sensors.kind, sensors.points.tobytes(), config.forward_time_grid(),
    )


def _forward_pressure(config: ScenarioConfig, phantom: Phantom) -> WaveData:
    tg = config.forward_time_grid()
    try:
        p = recon._cached(_lossless_key(config, phantom), spectral_forward, phantom, tg,
                          config.sensors(config.forward_sensor_count))
    except GridCapError as exc:
        raise GridCapError(
            f"{exc}. A scenario's dx is the finer of the forward time step duration / "
            f"forward_time_count ({tg.dt:.6g}) and the phantom raster spacing "
            f"({phantom.spacing:.6g}), set by phantom.grid_size and half_extent, which "
            "default to image_size and image_half_extent") from exc
    return p.replace_values(p.values.copy())


def _attenuate(config: ScenarioConfig, p: WaveData) -> WaveData:
    system = build_system(config.model, config.forward_time_grid(),
                          omega_max=config.omega_max, num_nodes=config.forward_quad_nodes)
    return time_differentiate(apply_attenuation(system, time_integrate(p)))


def simulate_scenario(config: ScenarioConfig):
    """Forward half of a scenario: attenuated pressure p^a on the forward
    grids, with noise already applied.  Returns ``(pa, phantom, runtimes)``.
    A rerun that changes only the noise or the inversion takes the phantom and
    clean p^a from the forward cache: no raster, propagation or attenuation."""
    runtimes = {}
    with _stage("phantom", runtimes):  # build_phantom reads the spec and the raster size
        phantom = recon._cached(("phantom", json.dumps(config.phantom, sort_keys=True),
                                 *config._phantom_raster()), config.build_phantom)
        phantom.values.flags.writeable = False
    with _stage("forward-propagation", runtimes):
        # M reads the law, the forward time grid (in the lossless key), the band and the nodes
        clean_key = ("clean", _lossless_key(config, phantom),
                     json.dumps(model_to_spec(config.model)),
                     _band(config.forward_time_grid(), config.omega_max), config.forward_quad_nodes)
        p = None if clean_key in recon._CACHE else _forward_pressure(config, phantom)
    with _stage("forward-attenuation", runtimes):
        clean = recon._cached(clean_key, _attenuate, config, p)
    with _stage("noise", runtimes):
        pa = add_noise(clean, config.noise_level, config.seed)  # a new array at any level > 0
        pa = pa.replace_values(pa.values.copy()) if pa is clean else pa
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
        # evaluate reads the ellipses if any, else the raster
        content = phantom.ellipses if phantom.ellipses is not None else (
            phantom.values.shape, phantom.values.tobytes(), phantom.spacing, phantom.origin)
        values = recon._cached(("truth", grid, content), lambda: phantom.evaluate(
            *np.meshgrid(*grid.axes(), indexing="ij")))
        values.flags.writeable = False
        truth = ReconImage(values, grid, "ground-truth", provenance={"phantom": config.phantom})

    with _stage("resample", runtimes):
        inv_tg = config.inversion_time_grid()
        pa_inv = resample_data(pa, inv_tg, config.sensors(config.geometry["count"]))

    traces = {"naive": pa_inv}
    if "compensated" in config.methods():
        with _stage("reconstruct-compensated", runtimes):
            traces["compensated"] = compensated_traces(pa_inv, k_infinity(config.model))
    with _stage("reconstruct-full", runtimes):
        system = build_system(config.model, inv_tg, omega_max=config.omega_max,
                              num_nodes=config.quad_nodes)
        traces["full"] = full_traces(pa_inv, system, regularization=config.regularization)
        diagnostics = {"taylor_order": system.order}
        if config.regularization is None:  # the direct solve has computed M^{-1}
            diagnostics["condition"] = system.condition_estimate()

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
