"""Attenuation coefficient models and their numerical validation.

The lossy wave operator is parametrized by a complex frequency symbol
``kappa(omega)``.  Admissible symbols map the real line into the closed
upper half plane and satisfy ``kappa(-w) == -conj(kappa(w))``.  Two
families matter here:

* weak laws, ``kappa(w) = w + 1j*k_inf + k_star(w)`` with ``k_star``
  bounded and square integrable.  These are the laws the rest of the
  package can invert.
* strong laws, ``Im kappa(w) >= kappa0 * |w|**beta`` for large ``|w|``.
  These make the inversion severely ill-posed and are only supported as
  far as evaluation and classification go.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from numbers import Real
from typing import Union

import numpy as np

__all__ = [
    "ConstantModel",
    "NswModel",
    "PowerLawModel",
    "TabulatedWeakModel",
    "AttenuationModel",
    "UnsupportedModelError",
    "ValidationReport",
    "eval_kappa",
    "k_infinity",
    "eval_kstar",
    "validate_model",
    "model_from_spec",
    "model_to_spec",
    "finite_real",
    "finite_int",
    "positive_real",
    "keyed",
    "model_tag",
]


class UnsupportedModelError(ValueError):
    """Raised when an operation requires a weak attenuation law."""


def finite_real(value, least: float = -math.inf) -> float:
    """A finite JSON number >= ``least``: no bool, string, NaN or infinity."""
    if isinstance(value, bool) or not isinstance(value, Real) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    if value < least:
        raise ValueError(f"must be >= {least}, got {value!r}")
    return float(value)


def finite_int(value, least: int = 1) -> int:
    """A JSON integer or integral float >= ``least``: no bool, string or fraction."""
    if isinstance(value, bool) or not isinstance(value, Real) or value % 1:
        raise ValueError(f"expected an integer, got {value!r}")
    if value < least:
        raise ValueError(f"must be >= {least}, got {value!r}")
    return int(value)


def positive_real(value) -> float:
    """A finite JSON number > 0."""
    if finite_real(value) <= 0:
        raise ValueError(f"must be > 0, got {value!r}")
    return float(value)


def keyed(key: str, convert, *args):
    """``convert(*args)``, a TypeError or ValueError raised as a ValueError naming ``key``."""
    try:
        return convert(*args)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{key}: {exc}") from exc


@dataclass(frozen=True)
class ConstantModel:
    """Constantly attenuating law ``kappa(w) = w + 1j*k_inf``."""

    k_inf: float

    def __post_init__(self) -> None:
        keyed("k_inf", finite_real, self.k_inf, 0.0)


@dataclass(frozen=True)
class NswModel:
    """Nachman-Smith-Waag single-relaxation law.

    Normalized to unit high-frequency sound speed:

        kappa(w) = w * sqrt(tau/tau_tilde) * sqrt((1 - 1j*w*tau_tilde) / (1 - 1j*w*tau))

    which gives the weak decomposition ``kappa = w + 1j*k_inf + k_star(w)``
    with ``k_inf = (tau - tau_tilde) / (2*tau*tau_tilde)`` and
    ``k_star(w) = O(1/|w|)``.  Requires ``0 < tau_tilde <= tau``; equality
    is the lossless limit.
    """

    tau: float
    tau_tilde: float

    def __post_init__(self) -> None:
        keyed("tau", positive_real, self.tau)
        keyed("tau_tilde", positive_real, self.tau_tilde)
        if self.tau_tilde > self.tau:
            raise ValueError(
                f"tau_tilde must not exceed tau, got tau={self.tau!r}, "
                f"tau_tilde={self.tau_tilde!r}"
            )


@dataclass(frozen=True)
class PowerLawModel:
    """Strong power law ``kappa(w) = w + 1j*amplitude*|w|**exponent``.

    Evaluation and classification only; the weak-law decomposition does
    not exist for it.
    """

    amplitude: float
    exponent: float

    def __post_init__(self) -> None:
        keyed("amplitude", finite_real, self.amplitude, 0.0)
        keyed("exponent", positive_real, self.exponent)


@dataclass(frozen=True, eq=False)
class TabulatedWeakModel:
    """Weak law with ``k_star`` sampled on a symmetric frequency grid.

    ``k_star`` is interpolated linearly between samples and extended by
    zero beyond the grid (square-integrable tails decay, so the zero
    extension keeps the kernel well defined).
    """

    omega: np.ndarray
    kstar: np.ndarray
    k_inf: float

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        kstar = np.asarray(self.kstar, dtype=complex)
        if omega.ndim != 1 or omega.size < 2 or omega.shape != kstar.shape:
            raise ValueError("omega and kstar must be matching 1-D arrays")
        if not (np.all(np.isfinite(omega)) and np.all(np.isfinite(kstar))):
            raise ValueError("omega and kstar must be finite")
        if np.any(np.diff(omega) <= 0):
            raise ValueError("omega grid must be strictly increasing")
        if abs(omega[0] + omega[-1]) > 1e-9 * max(abs(omega[-1]), 1.0):
            raise ValueError("omega grid must be symmetric about 0")
        keyed("k_inf", finite_real, self.k_inf, 0.0)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "kstar", kstar)


AttenuationModel = Union[ConstantModel, NswModel, PowerLawModel, TabulatedWeakModel]

_WEAK_TYPES = (ConstantModel, NswModel, TabulatedWeakModel)


def _as_omega(omega) -> np.ndarray:
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValueError("omega must be finite")
    return w


def eval_kappa(model: AttenuationModel, omega) -> np.ndarray:
    """Evaluate ``kappa(omega)``; scalar in, complex scalar out, arrays vectorize."""
    w = _as_omega(omega)
    if isinstance(model, ConstantModel):
        out = w + 1j * model.k_inf
    elif isinstance(model, NswModel):
        wc = w.astype(complex)
        ratio = (1.0 - 1j * wc * model.tau_tilde) / (1.0 - 1j * wc * model.tau)
        # principal square root; the ratio has positive real part for all
        # real omega, so the branch cut is never crossed and the range
        # stays in the closed upper half plane
        out = wc * np.sqrt(model.tau / model.tau_tilde) * np.sqrt(ratio)
    elif isinstance(model, PowerLawModel):
        out = w + 1j * model.amplitude * np.abs(w) ** model.exponent
    elif isinstance(model, TabulatedWeakModel):
        out = w + 1j * model.k_inf + _interp_kstar(model, w)
    else:
        raise TypeError(f"not an attenuation model: {model!r}")
    return out if np.ndim(omega) else complex(out)


def k_infinity(model: AttenuationModel) -> float:
    """Constant ``k_inf`` of the weak decomposition ``kappa = w + 1j*k_inf + k_star``."""
    if isinstance(model, (ConstantModel, TabulatedWeakModel)):
        return model.k_inf
    if isinstance(model, NswModel):
        return (model.tau - model.tau_tilde) / (2.0 * model.tau * model.tau_tilde)
    raise UnsupportedModelError(
        f"{model_tag(model)} is not a weak law; it has no k_inf decomposition"
    )


def eval_kstar(model: AttenuationModel, omega) -> np.ndarray:
    """Evaluate ``k_star(omega) = kappa(omega) - omega - 1j*k_inf``."""
    w = _as_omega(omega)
    if isinstance(model, ConstantModel):
        out = np.zeros_like(w, dtype=complex)
    elif isinstance(model, TabulatedWeakModel):
        out = _interp_kstar(model, w)
    else:
        out = eval_kappa(model, w) - w - 1j * k_infinity(model)
    return out if np.ndim(omega) else complex(out)


def _interp_kstar(model: TabulatedWeakModel, w: np.ndarray) -> np.ndarray:
    re = np.interp(w, model.omega, model.kstar.real, left=0.0, right=0.0)
    im = np.interp(w, model.omega, model.kstar.imag, left=0.0, right=0.0)
    return re + 1j * im


def is_weak_variant(model: AttenuationModel) -> bool:
    return isinstance(model, _WEAK_TYPES)


@dataclass
class ValidationReport:
    """Numerical audit of an attenuation model over a frequency grid."""

    model: str
    symmetry_defect: float
    min_im: float
    derivative_bound_min: float
    fd_step: float
    classification: str  # "weak" | "strong" | "neither"
    kstar_l2: float
    k_inf_used: float
    strong_fit_kappa0: float
    strong_fit_beta: float

    def to_text(self) -> str:
        lines = [
            f"model: {self.model}",
            f"classification: {self.classification}",
            f"symmetry_defect: {self.symmetry_defect:.6e}",
            f"min_im: {self.min_im:.6e}",
            f"derivative_bound_min: {self.derivative_bound_min:.6g}",
            f"fd_step: {self.fd_step:.6e}",
            f"kstar_l2: {self.kstar_l2:.6g}",
            f"k_inf_used: {self.k_inf_used:.6g}",
            f"strong_fit_kappa0: {self.strong_fit_kappa0:.6g}",
            f"strong_fit_beta: {self.strong_fit_beta:.6g}",
        ]
        return "\n".join(lines)


def _fit_power_tail(omega: np.ndarray, im: np.ndarray, omega0: float):
    """Least-squares fit of ``log Im kappa ~ log kappa0 + beta log|w|`` on ``|w| >= omega0``.

    Returns ``(kappa0, beta, bound_holds)`` where ``bound_holds`` checks the
    fitted lower bound on the tail with a small slack for rounding.
    """
    mask = (np.abs(omega) >= omega0) & (im > 0)
    if np.count_nonzero(mask) < 4:
        return 0.0, 0.0, False
    x = np.log(np.abs(omega[mask]))
    y = np.log(im[mask])
    beta, logk0 = np.polyfit(x, y, 1)
    kappa0 = float(np.exp(logk0))
    bound = kappa0 * np.abs(omega[mask]) ** beta
    bound_holds = bool(np.all(im[mask] >= 0.999 * bound))
    return kappa0, float(beta), bound_holds


def validate_model(
    model: AttenuationModel,
    omega_grid: np.ndarray | None = None,
    omega0: float = 1.0,
) -> ValidationReport:
    """Audit symmetry, upper-half-plane range, the derivative lower bound and
    the weak/strong classification of a model on a symmetric grid.

    The derivative in the ``|kappa'|**2 + Im kappa`` bound is taken by
    central differences with a step of ``1e-4`` times the grid spacing.
    Classification is a finite-grid heuristic: a strong law must pass a
    power-tail fit whose fitted lower bound actually holds on the grid; a
    weak law must have a decaying ``k_star``.
    """
    if omega_grid is None:
        omega_grid = np.linspace(-100.0, 100.0, 2001)
    w = np.asarray(omega_grid, dtype=float)
    if w.ndim != 1 or w.size < 8:
        raise ValueError("omega_grid must be a 1-D array with at least 8 points")
    if abs(w[0] + w[-1]) > 1e-9 * max(abs(w[-1]), 1.0):
        raise ValueError("omega_grid must be symmetric about 0")
    spacing = float(np.median(np.diff(w)))
    if spacing <= 0:
        raise ValueError("omega_grid must be increasing")
    h = 1e-4 * spacing

    kap = eval_kappa(model, w)
    symmetry_defect = float(np.max(np.abs(eval_kappa(model, -w) + np.conj(kap))))
    min_im = float(np.min(kap.imag))

    dk = (eval_kappa(model, w + h) - eval_kappa(model, w - h)) / (2.0 * h)
    derivative_bound_min = float(np.min(np.abs(dk) ** 2 + kap.imag))

    kappa0, beta, bound_holds = _fit_power_tail(w, kap.imag, omega0)
    is_strong = bound_holds and beta >= 0.1

    if is_weak_variant(model):
        k_inf_used = k_infinity(model)
    else:
        outer = np.abs(w) >= 0.95 * np.abs(w).max()
        k_inf_used = float(np.median(kap.imag[outer]))
    kstar = kap - w - 1j * k_inf_used
    kstar_sq = np.abs(kstar) ** 2
    kstar_l2 = float(np.sqrt(np.sum(kstar_sq) * spacing))

    if is_strong:
        classification = "strong"
    else:
        tail = np.abs(w) >= 0.9 * np.abs(w).max()
        max_ks = float(np.max(np.abs(kstar)))
        if max_ks <= 1e-12 * (1.0 + k_inf_used):
            classification = "weak"  # k_star identically zero on the grid
        elif float(np.mean(kstar_sq[tail])) <= 0.5 * float(np.mean(kstar_sq)):
            classification = "weak"
        else:
            classification = "neither"

    return ValidationReport(
        model=model_tag(model),
        symmetry_defect=symmetry_defect,
        min_im=min_im,
        derivative_bound_min=derivative_bound_min,
        fd_step=h,
        classification=classification,
        kstar_l2=kstar_l2,
        k_inf_used=k_inf_used,
        strong_fit_kappa0=kappa0,
        strong_fit_beta=beta,
    )


def model_tag(model: AttenuationModel) -> str:
    """Canonical short string identifying a model and its parameters."""
    if isinstance(model, ConstantModel):
        return f"constant(k_inf={model.k_inf:.17g})"
    if isinstance(model, NswModel):
        return f"nsw(tau={model.tau:.17g},tau_tilde={model.tau_tilde:.17g})"
    if isinstance(model, PowerLawModel):
        return f"power-law(amplitude={model.amplitude:.17g},exponent={model.exponent:.17g})"
    if isinstance(model, TabulatedWeakModel):
        digest = hashlib.sha256(model.omega.tobytes() + model.kstar.tobytes()).hexdigest()
        return f"tabulated(k_inf={model.k_inf:.17g},n={model.omega.size},h={digest[:8]})"
    raise TypeError(f"not an attenuation model: {model!r}")


def _table(values) -> np.ndarray:
    return np.array([finite_real(v) for v in values], dtype=float)


def model_from_spec(spec: dict) -> AttenuationModel:
    """Build a model from a config mapping, e.g. ``{"kind": "nsw", "tau": 0.11, ...}``."""
    if not isinstance(spec, dict):
        raise ValueError("model: expected a mapping with a 'kind' field")
    kind = spec.get("kind")
    if kind is None:
        raise ValueError("model.kind: missing")
    known = {
        "constant": (ConstantModel, ("k_inf",)),
        "nsw": (NswModel, ("tau", "tau_tilde")),
        "power-law": (PowerLawModel, ("amplitude", "exponent")),
        "tabulated": (TabulatedWeakModel, ("omega", "kstar_real", "kstar_imag", "k_inf")),
    }
    if kind not in known:
        raise ValueError(f"model.kind: unknown value {kind!r}")
    cls, fields = known[kind]
    missing = [f for f in fields if f not in spec]
    if missing:
        raise ValueError(f"model.{missing[0]}: missing for kind {kind!r}")
    unknown = [k for k in spec if k != "kind" and k not in fields]
    if unknown:
        raise ValueError(f"model.{unknown[0]}: unknown field for kind {kind!r}")
    tables = ("omega", "kstar_real", "kstar_imag")
    numbers = {key: keyed(f"model.{key}", _table if key in tables else finite_real, spec[key])
               for key in fields}
    try:
        if kind == "tabulated":
            kstar = numbers.pop("kstar_real") + 1j * numbers.pop("kstar_imag")
            return TabulatedWeakModel(kstar=kstar, **numbers)
        return cls(**numbers)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"model: {exc}") from exc


def model_to_spec(model: AttenuationModel) -> dict:
    """Inverse of :func:`model_from_spec` (tabulated arrays become lists)."""
    if isinstance(model, ConstantModel):
        return {"kind": "constant", "k_inf": model.k_inf}
    if isinstance(model, NswModel):
        return {"kind": "nsw", "tau": model.tau, "tau_tilde": model.tau_tilde}
    if isinstance(model, PowerLawModel):
        return {"kind": "power-law", "amplitude": model.amplitude, "exponent": model.exponent}
    if isinstance(model, TabulatedWeakModel):
        return {
            "kind": "tabulated",
            "omega": model.omega.tolist(),
            "kstar_real": model.kstar.real.tolist(),
            "kstar_imag": model.kstar.imag.tolist(),
            "k_inf": model.k_inf,
        }
    raise TypeError(f"not an attenuation model: {model!r}")
