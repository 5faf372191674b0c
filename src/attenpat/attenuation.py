"""Discrete attenuation solution operator for weak laws.

The operator that maps the lossless integrated pressure q to its
attenuated counterpart q^a is, for a weak law with constant part k_inf
and remainder k_star, realized on the time grid as the dense matrix

    M = diag(exp(-k_inf * t_i)) + B,
    b_im = (dt / sqrt(2 pi)) * exp(-k_inf * t_m)
           * sum_{k=1..K} (t_m**k / k!) * r_k(t_i - t_m),

where ``r_k`` is the inverse Fourier transform of ``(1j * k_star)**k``.
``r_1`` comes from trapezoid quadrature over a truncated frequency band
and higher orders from the convolution recursion
``r_k = (r_1 * r_{k-1}) / sqrt(2 pi)``.

Two numerical facts make the recursion accurate: truncating ``k_star``
to a band commutes with taking powers, and the truncated transforms are
band limited, so the lag-grid discrete convolution equals the continuous
one whenever the band stays below the lag Nyquist rate.  The band is
therefore capped at a fraction of ``pi / dt``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .models import (
    AttenuationModel,
    ConstantModel,
    eval_kstar,
    is_weak_variant,
    k_infinity,
    model_tag,
)
from .wavefield import TimeGrid, WaveData

__all__ = [
    "SQRT_2PI",
    "ConditioningError",
    "KernelSeries",
    "AttenuationSystem",
    "lag_grid",
    "compute_r1",
    "kernel_series",
    "build_system",
    "apply_attenuation",
    "invert_attenuation",
]

SQRT_2PI = float(np.sqrt(2.0 * np.pi))

DEFAULT_OMEGA_MAX = 200.0
DEFAULT_QUAD_NODES = 2**14

# keep the quadrature band below the lag-grid Nyquist rate so discrete
# convolutions of the band-limited kernels stay alias-free
BAND_SAFETY = 0.95


class ConditioningError(RuntimeError):
    """Linear solve refused: matrix singular to working precision."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


def _kstar_callable(kstar: Union[AttenuationModel, Callable]) -> Callable:
    if callable(kstar):
        return kstar
    if is_weak_variant(kstar):
        return lambda w: eval_kstar(kstar, w)
    raise ValueError(
        f"kernel quadrature needs a weak law or a callable, got {model_tag(kstar)}"
    )


def lag_grid(time_grid: TimeGrid) -> np.ndarray:
    """All lags ``t_i - t_m`` of the grid: ``(2*count - 1)`` values."""
    n = time_grid.count
    return time_grid.dt * np.arange(-(n - 1), n)


def compute_r1(
    kstar: Union[AttenuationModel, Callable],
    lags: np.ndarray,
    omega_max: float = DEFAULT_OMEGA_MAX,
    num_nodes: int = DEFAULT_QUAD_NODES,
) -> np.ndarray:
    """First kernel ``r_1(s) = (1/sqrt(2 pi)) int 1j k_star(w) exp(-1j w s) dw``
    by composite trapezoid on ``[-omega_max, omega_max]``.

    The node sum is factored: with node ``j = a*B + b`` and ``B ~ sqrt(N)``,
    ``exp(-1j w_j s) = exp(-1j (w_0 + a*B*dw) s) * exp(-1j b*dw s)``, so two
    ``(lags, ~sqrt(N))`` exponential tables and one matrix product replace
    the ``(lags, N)`` table of the direct sum, for any lags.

    Returns the complex quadrature value; for symbols with the physical
    symmetry ``k_star(-w) = -conj(k_star(w))`` the imaginary part is
    rounding noise, which callers may check and drop.
    """
    fn = _kstar_callable(kstar)
    if omega_max <= 0 or num_nodes < 8:
        raise ValueError("quadrature needs omega_max > 0 and num_nodes >= 8")
    w = np.linspace(-omega_max, omega_max, num_nodes)
    dw = w[1] - w[0]
    weights = np.full(num_nodes, dw)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    g = weights * (1j * np.asarray(fn(w), dtype=complex))
    inner = int(np.ceil(np.sqrt(num_nodes)))
    outer = -(-num_nodes // inner)
    g = np.concatenate([g, np.zeros(outer * inner - num_nodes)]).reshape(outer, inner)
    coarse = w[0] + dw * inner * np.arange(outer)
    fine = dw * np.arange(inner)
    lags = np.asarray(lags, dtype=float)
    flat = lags.ravel()
    out = np.empty(flat.size, dtype=complex)
    block = max(1, int(2e6 // (outer + inner)))
    for a in range(0, flat.size, block):
        s = flat[a : a + block]
        partial = np.exp(-1j * np.outer(s, fine)) @ g.T  # (lags, outer)
        out[a : a + block] = np.einsum("la,la->l", np.exp(-1j * np.outer(s, coarse)), partial)
    return out.reshape(lags.shape) / SQRT_2PI


def _convolve_full(a: np.ndarray, b: np.ndarray, dt: float) -> np.ndarray:
    """Full-line discrete convolution on a symmetric lag grid, cropped back
    to the same grid; weight ``dt / sqrt(2 pi)``."""
    n = len(a)
    full = np.convolve(a, b)
    lo = (len(full) - n) // 2
    return full[lo : lo + n] * (dt / SQRT_2PI)


def _kernel_rows(r1: np.ndarray, order: int, dt: float) -> list:
    """``[r_1, .., r_order]`` by the convolution recursion
    ``r_k = (r_1 * r_{k-1}) / sqrt(2 pi)`` started at ``r1``, which must
    live on a symmetric lag grid with spacing ``dt``."""
    rows = [r1]
    for _ in range(order - 1):
        rows.append(_convolve_full(r1, rows[-1], dt))
    return rows


@dataclass(eq=False)
class KernelSeries:
    """Kernels ``r_1 .. r_K`` tabulated on the full lag grid of a time grid."""

    lags: np.ndarray
    r: np.ndarray  # (order, 2*count - 1), real
    omega_max: float
    num_nodes: int
    imag_residue: float


def kernel_series(
    model: Union[AttenuationModel, Callable],
    time_grid: TimeGrid,
    order: int = 10,
    omega_max: float = DEFAULT_OMEGA_MAX,
    num_nodes: int = DEFAULT_QUAD_NODES,
) -> KernelSeries:
    """Tabulate ``r_1 .. r_order`` for a weak law on the lag grid of
    ``time_grid``, with the quadrature band capped below the lag Nyquist
    rate."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    effective_omega = min(omega_max, BAND_SAFETY * np.pi / time_grid.dt)
    lags = lag_grid(time_grid)
    r1c = compute_r1(model, lags, omega_max=effective_omega, num_nodes=num_nodes)
    scale = float(np.max(np.abs(r1c))) or 1.0
    residue = float(np.max(np.abs(r1c.imag))) / scale
    return KernelSeries(
        lags=lags,
        r=np.vstack(_kernel_rows(r1c.real, order, time_grid.dt)),
        omega_max=effective_omega,
        num_nodes=num_nodes,
        imag_residue=residue,
    )


@dataclass(eq=False)
class AttenuationSystem:
    """Dense realization ``M = diag(exp(-k_inf t_i)) + B`` of the attenuation
    operator on one time grid."""

    matrix: np.ndarray
    time_grid: TimeGrid
    model_tag: str
    k_inf: float
    order: int
    omega_max: float
    num_nodes: int
    _inverse: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def fingerprint(self) -> str:
        return (
            f"{self.model_tag}|nt={self.time_grid.count}|dt={self.time_grid.dt:.17g}"
            f"|K={self.order}|omega={self.omega_max:.17g}x{self.num_nodes}"
        )

    def inverse(self) -> np.ndarray:
        """``M^{-1}``, computed once; all ``inf`` when M is exactly singular."""
        if self._inverse is None:
            try:
                self._inverse = np.linalg.inv(self.matrix)
            except np.linalg.LinAlgError:
                self._inverse = np.full_like(self.matrix, np.inf)
        return self._inverse

    def condition_estimate(self) -> float:
        """Exact 1-norm condition ``||M||_1 ||M^{-1}||_1`` of M; infinite
        when M is exactly singular."""
        cond = float(np.linalg.norm(self.matrix, 1) * np.linalg.norm(self.inverse(), 1))
        return cond if np.isfinite(cond) else float("inf")


def build_system(
    model: AttenuationModel,
    time_grid: TimeGrid,
    order: int = 10,
    omega_max: float = DEFAULT_OMEGA_MAX,
    num_nodes: int = DEFAULT_QUAD_NODES,
) -> AttenuationSystem:
    """Assemble the dense attenuation system for a weak law.

    ``order`` is the truncation index K of the exponential Taylor series.
    The tests check K = 10 only for the benchmark law ``NswModel(0.11, 0.10)``
    on 443 samples over 6 time units, where K = 10 and K = 12 agree to 1e-6.
    A stronger law needs a larger K: ``NswModel(0.2, 0.1)`` is off by about
    4e-3 at K = 10 against the exact kernel.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order!r}")
    if not is_weak_variant(model):
        raise ValueError(
            f"cannot build an attenuation system for non-weak law {model_tag(model)}"
        )
    kinf = k_infinity(model)
    times = time_grid.times
    diag = np.exp(-kinf * times)
    n = time_grid.count

    matrix = np.diag(diag)
    if not isinstance(model, ConstantModel):
        series = kernel_series(model, time_grid, order=order, omega_max=omega_max,
                               num_nodes=num_nodes)
        omega_max, num_nodes = series.omega_max, series.num_nodes
        if series.imag_residue > 1e-10:
            raise FloatingPointError(
                f"kernel quadrature is not real: relative imaginary residue "
                f"{series.imag_residue:.3e} (asymmetric k_star?)"
            )
        # coeff[m, k-1] = (dt / sqrt(2 pi)) e^{-k_inf t_m} t_m**k / k!
        tm_pow = np.cumprod(np.repeat(times[:, None], order, axis=1), axis=1)
        fact = np.cumprod(np.arange(1.0, order + 1))
        coeff = ((time_grid.dt / SQRT_2PI) * diag)[:, None] * tm_pow / fact
        overflow = ~np.isfinite(coeff).all(axis=0)
        if overflow.any():
            k = int(np.argmax(overflow)) + 1
            raise FloatingPointError(f"Taylor term t**{k}/{k}! overflows for this time grid")
        # row m of coeff @ r is column m of B on the lag grid, b_im = rows[m, i - m + n - 1],
        # so the view from rows[0, n - 1] with row stride 2n - 2 elements is B^T
        rows = coeff @ series.r
        s = rows.itemsize
        matrix += as_strided(rows[0, n - 1:], (n, n), ((2 * n - 2) * s, s), writeable=False).T

    return AttenuationSystem(matrix=matrix, time_grid=time_grid, model_tag=model_tag(model),
                             k_inf=kinf, order=order, omega_max=omega_max, num_nodes=num_nodes)


def _check_grid(system: AttenuationSystem, wave: WaveData) -> None:
    if wave.time_grid != system.time_grid:
        raise ValueError(
            f"time grid mismatch: data has (dt={wave.time_grid.dt}, "
            f"n={wave.time_grid.count}), system has (dt={system.time_grid.dt}, "
            f"n={system.time_grid.count})"
        )


def apply_attenuation(system: AttenuationSystem, wave: WaveData) -> WaveData:
    """Map integrated data q to attenuated-integrated data q^a, columnwise."""
    if wave.kind != "integrated":
        raise ValueError(f"expected kind 'integrated', got {wave.kind!r}")
    _check_grid(system, wave)
    return wave.replace_values(system.matrix @ wave.values, kind="attenuated_integrated")


def invert_attenuation(
    system: AttenuationSystem,
    wave: WaveData,
    regularization: float | None = None,
) -> WaveData:
    """Recover integrated data q from attenuated-integrated data q^a.

    ``regularization=None`` multiplies by the cached ``M^{-1}`` unless M's
    exact 1-norm condition exceeds ``0.01 / eps``; a positive float ``lam``
    switches to the Tikhonov normal equations ``(M^T M + lam I) q = M^T q^a``.
    """
    if wave.kind != "attenuated_integrated":
        raise ValueError(f"expected kind 'attenuated_integrated', got {wave.kind!r}")
    _check_grid(system, wave)
    if regularization is None:
        cond = system.condition_estimate()
        if cond > 0.01 / np.finfo(float).eps:
            raise ConditioningError(
                f"attenuation system is singular to working precision "
                f"(1-norm condition {cond:.3e}); pass a Tikhonov parameter",
                condition=cond,
            )
        q = system.inverse() @ wave.values
    else:
        lam = float(regularization)
        if lam <= 0:
            raise ValueError(f"Tikhonov parameter must be positive, got {lam!r}")
        m = system.matrix
        q = np.linalg.solve(m.T @ m + lam * np.eye(m.shape[0]), m.T @ wave.values)
    return wave.replace_values(q, kind="integrated")
