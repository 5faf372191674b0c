"""Command-line surface.

Subcommands: ``simulate`` (config -> attenuated pressure data files),
``reconstruct`` (data + config -> images, cross sections, metrics),
``validate-model`` (model spec -> validation report), ``run-scenario``
(full experiment) and ``compare`` (two images -> error metrics).

Exit codes: 0 success, 1 usage/config error, 2 numerical or
conditioning error.  Output defaults to ``$ATTENPAT_OUTDIR`` or the
working directory; all behavior comes from flags and the config file
(never from prompts).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from .attenuation import ConditioningError
from .experiments import (
    ConfigError,
    ScenarioConfig,
    ScenarioStageError,
    reconstruct_scenario,
    run_scenario,
    simulate_scenario,
)
from .gridio import (
    load_wave,
    read_grid,
    save_image,
    save_wave,
    write_csv,
    write_image_pgm,
)
from .models import validate_model

__all__ = ["main"]

OUTDIR_ENV = "ATTENPAT_OUTDIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; this tool reserves 2 for
    # numerical failures, so route usage problems through exit code 1
    def error(self, message):
        raise _UsageError(message)


def _load_config(path: str | None, seed: int | None = None) -> ScenarioConfig:
    if path is None:
        raise ConfigError("--config: required for this subcommand")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    config = ScenarioConfig.from_dict(raw)
    return config if seed is None else dataclasses.replace(config, seed=seed)


def _outdir(args) -> Path:
    out = args.out or os.environ.get(OUTDIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_validate_model(args) -> int:
    model = _load_config(args.config).model
    grid = np.linspace(-args.omega_range, args.omega_range, args.points)
    report = validate_model(model, grid, omega0=args.omega0)
    print(report.to_text())
    return 0


def _write_scenario_artifacts(result, outdir: Path) -> None:
    """Write a scenario's inversion data, images, sections and metrics; print its errors."""
    save_wave(outdir / "data_inversion.atw", result.data)
    save_image(outdir / "truth.atw", result.truth)
    write_image_pgm(outdir / "truth.pgm", result.truth)
    window = (float(result.truth.values.min()), float(result.truth.values.max()))
    for name, image in result.reconstructions.items():
        save_image(outdir / f"recon_{name}.atw", image)
        write_image_pgm(outdir / f"recon_{name}.pgm", image, window=window)
    columns = {}
    for name, (coords, values) in result.cross_sections.items():
        columns.setdefault("x", coords)
        columns[name] = values
    write_csv(outdir / "cross_sections.csv", columns)
    metrics = {
        "errors": result.errors,
        "runtimes": result.runtimes,
        "diagnostics": result.diagnostics,
        "noise_level": result.config.noise_level,
        "seed": result.config.seed,
    }
    (outdir / "metrics.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
    for name, err in result.errors.items():
        print(f"{name}: rel_l2_error = {err:.6g}")


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, args.seed)
    pa, _, _ = simulate_scenario(config)
    outdir = _outdir(args)
    save_wave(outdir / "data_forward.atw", pa)
    (outdir / "scenario_config.json").write_text(
        json.dumps(config.to_dict(), indent=1, sort_keys=True)
    )
    print(f"wrote {outdir / 'data_forward.atw'}")
    return 0


def _cmd_reconstruct(args) -> int:
    config = _load_config(args.config, args.seed)
    data_path = Path(args.data)
    if not data_path.exists():
        raise ConfigError(f"data file not found: {args.data}")
    pa = load_wave(data_path)
    result = reconstruct_scenario(config, pa)
    outdir = _outdir(args)
    _write_scenario_artifacts(result, outdir)
    return 0


def _cmd_run_scenario(args) -> int:
    config = _load_config(args.config, args.seed)
    result = run_scenario(config)
    outdir = _outdir(args)
    (outdir / "scenario_config.json").write_text(
        json.dumps(config.to_dict(), indent=1, sort_keys=True)
    )
    save_wave(outdir / "data_forward.atw", result.data_forward)
    _write_scenario_artifacts(result, outdir)
    return 0


def _cmd_compare(args) -> int:
    a = read_grid(args.image_a)
    b = read_grid(args.image_b)
    for what, of_a, of_b in (("shape", a.values.shape, b.values.shape),
                             ("spacing", a.spacing, b.spacing), ("origin", a.origin, b.origin)):
        if of_a != of_b:
            raise ConfigError(f"{args.image_a} and {args.image_b} lie on different grids: "
                              f"{what} {of_a} vs {of_b}")
    denom = float(np.linalg.norm(b.values))
    rel = float(np.linalg.norm(a.values - b.values)) / denom if denom else float("nan")
    print(f"rel_l2_error = {rel:.17g}")
    print(f"max_abs_diff = {float(np.max(np.abs(a.values - b.values))):.17g}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="attenpat", description=__doc__)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="JSON scenario/model configuration file")
    common = argparse.ArgumentParser(add_help=False, parents=[config])
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-model", parents=[config],
                       help="audit an attenuation model")
    p.add_argument("--omega-range", type=float, default=100.0)
    p.add_argument("--points", type=int, default=2001)
    p.add_argument("--omega0", type=float, default=1.0)
    p.set_defaults(func=_cmd_validate_model)

    p = sub.add_parser("simulate", parents=[common],
                       help="simulate attenuated pressure data")
    p.add_argument("--out", default=None, help=f"output directory (default ${OUTDIR_ENV})")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="reconstruct images from a data file")
    p.add_argument("--data", required=True, help="attenuated pressure GridFile")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("run-scenario", parents=[common],
                       help="run a full experiment end to end")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run_scenario)

    p = sub.add_parser("compare", help="error metrics between two image GridFiles")
    p.add_argument("image_a")
    p.add_argument("image_b")
    p.set_defaults(func=_cmd_compare)
    return parser


def _is_numerical(exc: BaseException) -> bool:
    seen = set()
    while exc is not None and id(exc) not in seen:
        if isinstance(exc, (ConditioningError, FloatingPointError, np.linalg.LinAlgError)):
            return True
        seen.add(id(exc))
        exc = exc.__cause__ or exc.__context__
    return False


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScenarioStageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if _is_numerical(exc) else 1
    except (ConditioningError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError) as exc:  # ConfigError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
