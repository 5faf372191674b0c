"""Outside-in span recorder for the attenpat benchmark.

The recorder replaces public functions and methods of the ``attenpat``
modules with thin wrappers, at every module attribute where callers look
them up, so nothing under ``src/`` changes.  Each call records a span
``(name, start, end, parent, scenario)`` in memory; hooks add counts at the
same boundaries.  :meth:`Tracer.uninstall` puts every original object back
and checks that it is identical to what was there before.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

MODULES = ("wavefield", "attenuation", "recon", "experiments", "gridio", "cli")


def _arguments(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _file_bytes(path):
    total = os.path.getsize(path)
    sidecar = str(path) + ".json"
    return total + (os.path.getsize(sidecar) if os.path.exists(sidecar) else 0)


class Tracer:
    """Span and counter store plus the attribute patches that feed it."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, scenario]
        self.counts = {}  # scenario -> {counter: value}
        self.scenario = None
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    # --- recording --------------------------------------------------------
    def add(self, name, value, mode="sum"):
        bucket = self.counts.setdefault(self.scenario, {})
        if mode == "max":
            bucket[name] = max(bucket.get(name, value), value)
        else:
            bucket[name] = bucket.get(name, 0) + value

    def call(self, name, fn, args, kwargs, hook=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.scenario])
        self._stack.append(index)
        error = None
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = exc
            raise
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result, error)

    # --- patching ---------------------------------------------------------
    def _wrap(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, hook)

        return wrapper

    def patch_function(self, module, attr, name, hook=None):
        """Wrap ``module.attr`` at every attenpat module binding it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, hook)
        for owner in _attenpat_modules():
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, key, original))
                    setattr(owner, key, wrapper)

    def patch_method(self, cls, attr, name, hook=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, hook))

    def uninstall(self):
        """Restore every patched attribute; return the ones not restored."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        broken = [
            f"{getattr(owner, '__name__', owner)}.{key}"
            for owner, key, original in self._patches
            if (owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key))
            is not original
        ]
        self._patches = []
        return broken

    # --- output -----------------------------------------------------------
    def dump(self):
        """Spans with self time: duration minus the time children cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return {
            "spans": [
                {"name": name, "start": start, "end": end, "parent": parent,
                 "scenario": scenario, "self": (end - start) - child_time[i]}
                for i, (name, start, end, parent, scenario) in enumerate(self.spans)
            ],
            "counts": {str(k): v for k, v in self.counts.items()},
        }


def _attenpat_modules():
    import attenpat

    return [attenpat] + [importlib.import_module(f"attenpat.{m}") for m in MODULES]


# --- hooks: counts recorded where the work happens ---------------------------
def _count(counter):
    def hook(tr, fn, args, kwargs, result, error):
        if error is None:
            tr.add(counter, 1)
    return hook


def _r1_hook(tr, fn, args, kwargs, result, error):
    if error is not None:
        return
    a = _arguments(fn, args, kwargs)
    lags = a["lags"]
    tr.add("attenuation.r1_evals", int(getattr(lags, "size", len(lags))) * int(a["num_nodes"]))


def _kernel_hook(tr, fn, args, kwargs, result, error):
    if result is not None:
        tr.add("attenuation.imag_residue", float(result.imag_residue), "max")


def _condition_hook(tr, fn, args, kwargs, result, error):
    if result is not None:
        tr.add("attenuation.condition", float(result), "max")


def _propagator_hook(tr, fn, args, kwargs, result, error):
    if error is None:
        n = int(args[0].size)
        tr.add("wavefield.grid_n", n, "max")
        tr.add("wavefield.modes", n * (n // 2 + 1), "max")


def _ubp_hook(tr, fn, args, kwargs, result, error):
    if error is None:
        a = _arguments(fn, args, kwargs)
        pixels = 1
        for size in a["grid"].shape:
            pixels *= int(size)
        tr.add("recon.ubp_calls", 1)
        tr.add("recon.pixel_sensor_pairs", pixels * int(a["wave"].sensors.n))


def _stage_hook(tr, fn, args, kwargs, result, error):
    from attenpat.experiments import ScenarioStageError

    if isinstance(error, ScenarioStageError):
        tr.add("experiments.stage_failures", 1)


def _simulate_hook(tr, fn, args, kwargs, result, error):
    tr.add("experiments.forward_calls", 1)
    _stage_hook(tr, fn, args, kwargs, result, error)


def _write_hook(tr, fn, args, kwargs, result, error):
    if error is None:
        tr.add("gridio.files_written", 2 if os.path.exists(str(args[0]) + ".json") else 1)
        tr.add("gridio.bytes_written", _file_bytes(args[0]))


def install(tracer=None):
    """Patch every traced boundary; returns the tracer."""
    tr = tracer or Tracer()
    from attenpat import attenuation, cli, experiments, gridio, recon, wavefield

    tr.patch_function(wavefield, "spectral_forward", "wavefield.forward",
                      _count("experiments.propagations"))
    for builder in ("make_shepp_logan", "disk_phantom", "phantom_from_ellipses"):
        tr.patch_function(wavefield, builder, "wavefield.phantom")
    prop = wavefield.SpectralPropagator
    tr.patch_method(prop, "__init__", "wavefield.propagator_init", _propagator_hook)
    tr.patch_method(prop, "pressure_field", "wavefield.field", _count("wavefield.steps"))
    tr.patch_method(prop, "sample", "wavefield.sample")

    tr.patch_function(attenuation, "compute_r1", "attenuation.r1", _r1_hook)
    tr.patch_function(attenuation, "kernel_series", "attenuation.kernel_series", _kernel_hook)
    tr.patch_function(attenuation, "build_system", "attenuation.build_system",
                      _count("attenuation.systems_built"))
    tr.patch_function(attenuation, "apply_attenuation", "attenuation.apply")
    tr.patch_function(attenuation, "invert_attenuation", "attenuation.invert")
    tr.patch_method(attenuation.AttenuationSystem, "condition_estimate",
                    "attenuation.condition_estimate", _condition_hook)

    tr.patch_function(recon, "ubp_2d", "recon.ubp", _ubp_hook)
    for pipeline in ("reconstruct_naive", "reconstruct_compensated", "reconstruct_full"):
        tr.patch_function(recon, pipeline, "recon.pipeline")

    tr.patch_function(experiments, "simulate_scenario", "experiments.simulate", _simulate_hook)
    tr.patch_function(experiments, "reconstruct_scenario", "experiments.reconstruct",
                      _stage_hook)
    tr.patch_function(experiments, "resample_data", "experiments.resample")
    tr.patch_function(experiments, "add_noise", "experiments.noise")

    for writer in ("save_wave", "save_image", "write_image_pgm", "write_csv"):
        tr.patch_function(gridio, writer, "gridio.write", _write_hook)
    tr.patch_function(gridio, "load_wave", "gridio.read")
    tr.patch_function(cli, "main", "cli.main")
    return tr


# --- per-layer metrics from a dump -----------------------------------------
# (metric, span name, "total" over outermost spans of that name or "self")
LAYER_TIMES = (
    ("wavefield.forward_s", "wavefield.forward", "total"),
    ("wavefield.propagator_init_s", "wavefield.propagator_init", "total"),
    ("wavefield.field_s", "wavefield.field", "total"),
    ("wavefield.sample_s", "wavefield.sample", "total"),
    ("wavefield.phantom_s", "wavefield.phantom", "total"),
    ("attenuation.r1_s", "attenuation.r1", "total"),
    ("attenuation.recursion_s", "attenuation.kernel_series", "self"),
    ("attenuation.assemble_s", "attenuation.build_system", "self"),
    ("attenuation.apply_s", "attenuation.apply", "total"),
    ("attenuation.invert_s", "attenuation.invert", "total"),
    ("recon.ubp_s", "recon.ubp", "total"),
    ("recon.pipeline_s", "recon.pipeline", "self"),
    ("experiments.resample_s", "experiments.resample", "total"),
    ("experiments.noise_s", "experiments.noise", "total"),
    ("gridio.write_s", "gridio.write", "total"),
    ("gridio.read_s", "gridio.read", "total"),
    ("cli.self_s", "cli.main", "self"),
)
SUM_COUNTS = (
    "wavefield.steps", "attenuation.r1_evals", "attenuation.systems_built",
    "recon.ubp_calls", "recon.pixel_sensor_pairs", "experiments.forward_calls",
    "experiments.propagations", "experiments.stage_failures",
    "gridio.bytes_written", "gridio.files_written",
)
MAX_COUNTS = (
    "wavefield.grid_n", "wavefield.modes", "attenuation.imag_residue",
    "attenuation.condition",
)


def layer_metrics(dump, scenario):
    """Per-layer times and counts of one scenario id in one dump."""
    spans = dump["spans"]
    out = dict.fromkeys([m for m, _, _ in LAYER_TIMES] + list(SUM_COUNTS + MAX_COUNTS), 0)

    def outermost(i):
        name, parent = spans[i]["name"], spans[i]["parent"]
        while parent >= 0:
            if spans[parent]["name"] == name:
                return False
            parent = spans[parent]["parent"]
        return True

    by_name = {}
    for i, span in enumerate(spans):
        if str(span["scenario"]) == str(scenario):
            by_name.setdefault(span["name"], []).append(i)
    for metric, name, kind in LAYER_TIMES:
        idx = by_name.get(name, [])
        if kind == "self":
            out[metric] = sum(spans[i]["self"] for i in idx)
        else:
            out[metric] = sum(spans[i]["end"] - spans[i]["start"] for i in idx if outermost(i))
    out["trace.spans"] = sum(len(idx) for idx in by_name.values())
    out.update(dump["counts"].get(str(scenario), {}))
    return out


def merge_layers(parts):
    """Combine the per-layer metrics of several processes of one scenario."""
    out = {}
    for part in parts:
        for key, value in part.items():
            if key in MAX_COUNTS:
                out[key] = max(out.get(key, value), value)
            else:
                out[key] = out.get(key, 0) + value
    calls = out.get("experiments.forward_calls", 0)
    out["experiments.forward_cache_hit_ratio"] = (
        1.0 - out.get("experiments.propagations", 0) / calls if calls else 0.0
    )
    return out
