"""Spectral filter: frequency profile, analytic time transform, quadrature grid.

The frequency-domain filter is a difference of error functions,

    fhat(w) = (erf((w + a)/delta_a) - erf((w + b)/delta_b)) / 2,

which is close to 1 on the band ``[-a, -b]`` and decays to 0 outside it.
Its inverse Fourier transform under ``f(s) = (2 pi)^{-1} int fhat(w)
exp(-i w s) dw`` has the closed form

    f(s) = (exp(-delta_a^2 s^2/4) exp(i a s)
            - exp(-delta_b^2 s^2/4) exp(i b s)) / (2 pi i s),

with removable singularity ``f(0) = (a - b) / (2 pi)``.

``quadrature_grid`` returns the uniform trapezoid nodes/weights used to
approximate ``int f(s) A(s) ds`` over ``[-M tau_s, M tau_s]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = ["FilterParams", "default_params", "f_hat", "f_time", "quadrature_grid"]

# Below this |s| the closed form suffers catastrophic cancellation; a
# second-order Taylor expansion around s = 0 takes over.
_TINY_S = 1e-8


@dataclass(frozen=True)
class FilterParams:
    """Filter shape and time-quadrature parameters.

    ``a > b > 0`` locate the pass band; ``delta_a``/``delta_b`` its edge
    widths.  ``s_radius`` is the requested truncation radius of the time
    integral, ``tau_s`` the grid spacing, and ``m_half = ceil(s_radius /
    tau_s)`` the node half-count, so the realized grid reaches
    ``grid_radius = m_half * tau_s >= s_radius``.  With
    ``clamp_nonnegative`` set, the frequency profile is forced to 0 for
    ``w >= 0`` (exact energy-decrease condition).
    """

    a: float
    delta_a: float
    b: float
    delta_b: float
    s_radius: float
    tau_s: float
    m_half: int = 0
    clamp_nonnegative: bool = False

    def __post_init__(self):
        if not (self.a > self.b > 0):
            raise ValueError("filter requires a > b > 0")
        if self.delta_a <= 0 or self.delta_b <= 0:
            raise ValueError("filter edge widths must be positive")
        if self.tau_s <= 0 or self.s_radius <= 0:
            raise ValueError("quadrature parameters must be positive")
        m = math.ceil(self.s_radius / self.tau_s - 1e-12)
        m = max(m, 1)
        if self.m_half == 0:
            object.__setattr__(self, "m_half", m)
        elif self.m_half != m:
            raise ValueError(
                f"m_half={self.m_half} inconsistent with ceil(s_radius/tau_s)={m}"
            )

    @property
    def grid_radius(self) -> float:
        """Outermost quadrature node, ``m_half * tau_s``."""
        return self.m_half * self.tau_s

    def with_clamp(self, clamp: bool) -> "FilterParams":
        return replace(self, clamp_nonnegative=clamp)

    def with_s_radius(self, s_radius: float) -> "FilterParams":
        """Same filter shape, different truncation radius (rebuilds m_half)."""
        return replace(self, s_radius=s_radius, m_half=0)


def default_params(norm_h: float, gap: float, *, clamp: bool = False) -> FilterParams:
    """Parameter rule used for all benchmark runs.

    ``a = 2.5 |H|``, ``delta_a = 0.5 |H|``, ``b = delta_b = gap``,
    ``s_radius = 5 / gap``, ``tau_s = pi / (5 |H|)``.  The spacing satisfies
    the sampling bound ``tau_s < pi / max(2 |H|, a + 3 delta_a)``, so the
    trapezoid sum converges to the exact integral as the radius grows.
    """
    if norm_h <= 0:
        raise ValueError("norm_h must be positive")
    if gap <= 0:
        raise ValueError(
            "spectral gap must be positive; for a (near-)degenerate ground "
            "space pass an explicit gap estimate instead"
        )
    return FilterParams(
        a=2.5 * norm_h,
        delta_a=0.5 * norm_h,
        b=gap,
        delta_b=gap,
        s_radius=5.0 / gap,
        tau_s=math.pi / (5.0 * norm_h),
        clamp_nonnegative=clamp,
    )


def f_hat(omega, p: FilterParams):
    """Frequency-domain filter value; accepts scalars or arrays."""
    from scipy.special import erf  # kept off the import path of ``run``

    w = np.asarray(omega, dtype=float)
    val = 0.5 * (erf((w + p.a) / p.delta_a) - erf((w + p.b) / p.delta_b))
    if p.clamp_nonnegative:
        val = np.where(w >= 0, 0.0, val)
    if np.ndim(omega) == 0:
        return float(val)
    return val


def f_time(s, p: FilterParams):
    """Time-domain filter value; accepts scalars or arrays.

    Complex-valued; the clamp flag is deliberately ignored here (the
    quadrature path always uses the analytic transform).
    """
    sv = np.asarray(s, dtype=float)
    scalar = np.ndim(s) == 0
    sv = np.atleast_1d(sv)
    out = np.empty(sv.shape, dtype=complex)
    tiny = np.abs(sv) <= _TINY_S
    st = sv[~tiny]
    num = np.exp(-(p.delta_a * st) ** 2 / 4) * np.exp(1j * p.a * st) - np.exp(
        -(p.delta_b * st) ** 2 / 4
    ) * np.exp(1j * p.b * st)
    out[~tiny] = num / (2j * np.pi * st)
    if np.any(tiny):
        s0 = sv[tiny]
        c1 = (p.delta_a**2 - p.delta_b**2) / 4 + (p.a**2 - p.b**2) / 2
        c2 = (p.a * p.delta_a**2 - p.b * p.delta_b**2) / 4 + (p.a**3 - p.b**3) / 6
        out[tiny] = ((p.a - p.b) + 1j * c1 * s0 - c2 * s0**2) / (2 * np.pi)
    return complex(out[0]) if scalar else out


def quadrature_grid(p: FilterParams) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoid nodes ``s_l = l tau_s`` and weights for l = -m_half..m_half.

    Interior weights are ``tau_s``; the two endpoints get ``tau_s / 2``, so
    the weights sum to ``2 * grid_radius`` exactly.
    """
    ls = np.arange(-p.m_half, p.m_half + 1)
    nodes = ls * p.tau_s
    weights = np.full(nodes.shape, p.tau_s, dtype=float)
    weights[0] = weights[-1] = p.tau_s / 2
    return nodes, weights


def f_l1_estimate(p: FilterParams) -> float:
    """Grid estimate of ``int |f(s)| ds`` over the truncation window."""
    nodes, weights = quadrature_grid(p)
    return float(np.sum(weights * np.abs(f_time(nodes, p))))
