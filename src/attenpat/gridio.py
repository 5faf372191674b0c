"""Bit-exact data and image persistence plus portable renders.

GridFile binary layout (all integers and floats little endian):

    offset  size  field
    0       5     magic ``b"ATWV1"``
    5       24    kind tag, ASCII, NUL padded
    29      1     ndim, uint8, 1..3
    30      24    dims, 3 x uint64 (trailing unused dims = 1)
    54      24    spacing, 3 x float64
    78      24    origin, 3 x float64
    102     ...   payload, row-major float64, prod(dims[:ndim]) * 8 bytes

Float payloads round trip bitwise.  Non-array metadata (sensor geometry,
method tags, render windows) travels in a JSON sidecar named
``<file>.json`` next to the binary.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .models import finite_int, finite_real, keyed
from .recon import ImageGrid, ReconImage
from .wavefield import TimeGrid, WaveData, make_sensors

__all__ = [
    "GridData",
    "write_grid",
    "read_grid",
    "save_wave",
    "load_wave",
    "save_image",
    "load_image",
    "write_image_pgm",
    "write_csv",
    "read_csv",
]

MAGIC = b"ATWV1"
_KIND_BYTES = 24
_HEADER = struct.Struct("<5s24sB3Q3d3d")
assert _HEADER.size == 102


@dataclass(eq=False)
class GridData:
    """Raw content of a GridFile."""

    values: np.ndarray
    kind: str
    spacing: tuple
    origin: tuple


def _sidecar(path) -> Path:
    path = Path(path)
    return path.with_name(path.name + ".json")


def write_grid(path, values: np.ndarray, kind: str, spacing=(), origin=()) -> None:
    """Write an array as a GridFile; ``spacing``/``origin`` are padded to
    three entries with zeros."""
    values = np.asarray(values, dtype="<f8")
    if values.ndim not in (1, 2, 3):
        raise ValueError(f"GridFile holds 1-D..3-D arrays, got ndim={values.ndim}")
    tag = kind.encode("ascii")
    if len(tag) > _KIND_BYTES:
        raise ValueError(f"kind tag longer than {_KIND_BYTES} bytes: {kind!r}")
    dims = list(values.shape) + [1] * (3 - values.ndim)
    sp = list(spacing) + [0.0] * (3 - len(spacing))
    og = list(origin) + [0.0] * (3 - len(origin))
    header = _HEADER.pack(MAGIC, tag, values.ndim, *dims, *sp, *og)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(values).tobytes())


def read_grid(path) -> GridData:
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ValueError(f"{path}: truncated GridFile header")
        magic, tag, ndim, d0, d1, d2, s0, s1, s2, o0, o1, o2 = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ValueError(f"{path}: not a GridFile (bad magic {magic!r})")
        if not 1 <= ndim <= 3:
            raise ValueError(f"{path}: bad ndim {ndim}")
        dims = (d0, d1, d2)[:ndim]
        count = int(np.prod(dims))
        payload = fh.read(count * 8)
        if len(payload) != count * 8:
            raise ValueError(f"{path}: truncated GridFile payload")
    values = np.frombuffer(payload, dtype="<f8").reshape(dims).copy()
    return GridData(
        values=values,
        kind=tag.rstrip(b"\x00").decode("ascii"),
        spacing=(s0, s1, s2)[:ndim],
        origin=(o0, o1, o2)[:ndim],
    )


def save_wave(path, wave: WaveData) -> None:
    """GridFile payload plus a JSON sidecar carrying the sensor geometry."""
    write_grid(
        path,
        wave.values,
        kind=wave.kind,
        spacing=(wave.time_grid.dt, 0.0),
        origin=(wave.time_grid.dt, 0.0),
    )
    geometry = {"kind": wave.sensors.kind, **wave.sensors.params}
    meta = {"type": "wave", "kind": wave.kind, "time_count": wave.time_grid.count,
            "dt": wave.time_grid.dt, "geometry": geometry}
    _sidecar(path).write_text(json.dumps(meta, indent=1, sort_keys=True))


def load_wave(path) -> WaveData:
    data = read_grid(path)
    meta = json.loads(_sidecar(path).read_text())
    if not isinstance(meta, dict) or meta.get("type") != "wave":
        raise ValueError(f"{path}: sidecar does not describe wave data")
    try:
        tg = TimeGrid(dt=keyed("dt", finite_real, meta.get("dt")),
                      count=keyed("time_count", finite_int, meta.get("time_count")))
        sensors = make_sensors(meta.get("geometry"))
    except ValueError as exc:
        raise ValueError(f"{_sidecar(path)}: {exc}") from exc
    return WaveData(data.values, tg, sensors, kind=data.kind)


def save_image(path, image: ReconImage) -> None:
    write_grid(
        path,
        image.values,
        kind="image" if image.grid.ndim == 2 else "image3d",
        spacing=(image.grid.spacing,) * image.grid.ndim,
        origin=image.grid.origin,
    )
    meta = {"type": "image", "method": image.method,
            "provenance": _jsonable(image.provenance)}
    _sidecar(path).write_text(json.dumps(meta, indent=1, sort_keys=True))


def load_image(path) -> ReconImage:
    data = read_grid(path)
    grid = ImageGrid(
        shape=data.values.shape, spacing=float(data.spacing[0]), origin=data.origin
    )
    method = "unknown"
    provenance: dict = {}
    sc = _sidecar(path)
    if sc.exists():
        meta = json.loads(sc.read_text())
        method = meta.get("method", method)
        provenance = meta.get("provenance", {})
    return ReconImage(data.values, grid, method, provenance)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_image_pgm(path, image, window=None) -> None:
    """16-bit PGM render with the normalization recorded in a sidecar.

    ``window=(lo, hi)`` fixes the gray scale; the default is the image
    min/max.  Axis 0 of the array is x, so rows of the render run along
    y with the top row at the largest y.
    """
    values = image.values if isinstance(image, ReconImage) else np.asarray(image)
    if not np.all(np.isfinite(values)):
        raise ValueError("cannot render a non-finite image")
    lo, hi = window if window is not None else (float(values.min()), float(values.max()))
    if hi > lo:
        scaled = np.clip((values - lo) / (hi - lo), 0.0, 1.0)
        gray = np.round(scaled * 65535.0).astype(">u2")
    else:
        gray = np.full(values.shape, 32767, dtype=">u2")  # constant image: mid gray
    raster = gray[:, ::-1].T  # visual orientation: x to the right, y upward
    try:
        with open(path, "wb") as fh:
            fh.write(f"P5\n{raster.shape[1]} {raster.shape[0]}\n65535\n".encode("ascii"))
            fh.write(np.ascontiguousarray(raster).tobytes())
    except OSError as exc:
        raise OSError(f"writing PGM {path}: {exc}") from exc
    _sidecar(path).write_text(
        json.dumps({"type": "pgm-window", "lo": lo, "hi": hi}, indent=1, sort_keys=True)
    )


def write_csv(path, columns: dict) -> None:
    """Comma-separated table with a header row; floats at 17 significant
    digits so parsing reproduces them bitwise."""
    names = list(columns)
    arrays = [np.asarray(columns[name], dtype=float) for name in names]
    if arrays and any(a.shape != arrays[0].shape or a.ndim != 1 for a in arrays):
        raise ValueError("all CSV columns must be 1-D arrays of equal length")
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(names) + "\n")
            rows = len(arrays[0]) if arrays else 0
            for i in range(rows):
                fh.write(",".join(f"{a[i]:.17g}" for a in arrays) + "\n")
    except OSError as exc:
        raise OSError(f"writing CSV {path}: {exc}") from exc


def read_csv(path) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        table = [
            [float(cell) for cell in line.strip().split(",")]
            for line in fh
            if line.strip()
        ]
    data = np.asarray(table, dtype=float) if table else np.empty((0, len(names)))
    return {name: data[:, i].copy() for i, name in enumerate(names)}
