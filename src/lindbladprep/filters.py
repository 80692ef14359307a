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
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = ["MIN_GAP", "FilterParams", "default_params", "f_hat", "f_time", "quadrature_grid"]

# A ground-level spacing at or below this counts as no gap: the rule's
# ``s_radius = 5 / gap`` would ask for an unbounded quadrature grid.  The
# levels within it of the ground energy are the ground space of a run.
MIN_GAP = 1e-9

# Below this |s| the closed form suffers catastrophic cancellation; a
# second-order Taylor expansion around s = 0 takes over.
_TINY_S = 1e-8

# erf in numpy arithmetic (scipy.special.erf would put the scipy import on
# the path of every caller of f_hat): a degree-5 Taylor polynomial about the
# nearest centre (k + 1/2)/256 on [0, 6).  Its remainder is below
# max|erf^(6)| (1/512)^6 / 6! < 3e-18; erfc(6) = 2.2e-17 is under half an
# ulp of 1, so erf rounds to +-1 from |x| = 6 on (the table's last row).
_ERF_PER_UNIT = 256
_ERF_EDGE = 6.0
_ERF_DEGREE = 5
_ERF_CHUNK = 1 << 15  # points per pass, so the temporaries stay in cache


def _erf_taylor_table() -> np.ndarray:
    """Row m holds erf^(m)(c)/m! at every centre c, anchored on math.erf;
    erf^(m)(c) = 2/sqrt(pi) (-1)^(m-1) H_{m-1}(c) exp(-c^2) for m >= 1."""
    n = int(_ERF_EDGE * _ERF_PER_UNIT)
    c = (np.arange(n) + 0.5) / _ERF_PER_UNIT
    table = np.zeros((_ERF_DEGREE + 1, n + 1))
    table[0, :n] = [math.erf(v) for v in c]
    table[0, n] = 1.0
    scale = 2 / math.sqrt(math.pi) * np.exp(-c * c)
    herm_prev, herm = np.zeros(n), np.ones(n)  # physicists' H_{m-2}, H_{m-1}
    for m in range(1, _ERF_DEGREE + 1):
        table[m, :n] = (-1) ** (m - 1) * scale * herm / math.factorial(m)
        herm_prev, herm = herm, 2 * c * herm - 2 * (m - 1) * herm_prev
    return table


_ERF_TABLE = _erf_taylor_table()


def _erf(x) -> np.ndarray:
    """Elementwise erf of a float array, within ~1e-16 of ``math.erf``;
    NaN stays NaN."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    for i in range(0, flat.size, _ERF_CHUNK):
        xs = flat[i : i + _ERF_CHUNK]
        ax = np.minimum(np.abs(xs), _ERF_EDGE)
        with np.errstate(invalid="ignore"):  # NaN: clipped index, NaN offset
            k = (ax * _ERF_PER_UNIT).astype(np.intp)
        u = ax - (k + 0.5) / _ERF_PER_UNIT
        acc = np.take(_ERF_TABLE[-1], k, mode="clip")
        for row in _ERF_TABLE[-2::-1]:
            acc *= u
            acc += np.take(row, k, mode="clip")
        out[i : i + _ERF_CHUNK] = np.copysign(acc, xs)
    return out.reshape(x.shape)


@dataclass(frozen=True)
class FilterParams:
    """Filter shape and time-quadrature parameters.

    ``a > b > 0`` locate the pass band; ``delta_a``/``delta_b`` its edge
    widths.  ``s_radius`` is the requested truncation radius of the time
    integral, ``tau_s`` the grid spacing, and ``m_half = ceil(s_radius /
    tau_s)`` (derived) the node half-count, so the realized grid reaches
    ``grid_radius = m_half * tau_s >= s_radius``.  With
    ``clamp_nonnegative`` set, the frequency profile is forced to 0 for
    ``w >= 0`` (exact energy-decrease condition).  Values that are not
    finite, overflow ``f``'s small-``s`` expansion or need 2^59 or more
    grid nodes, whose complex values would take 2^63 bytes, are refused.
    """

    a: float
    delta_a: float
    b: float
    delta_b: float
    s_radius: float
    tau_s: float
    m_half: int = field(init=False)
    clamp_nonnegative: bool = False

    def __post_init__(self):
        shape = (self.a, self.delta_a, self.b, self.delta_b, self.s_radius, self.tau_s)
        if not all(math.isfinite(x) for x in shape):
            raise ValueError("filter values must be finite")
        if not (self.a > self.b > 0):
            raise ValueError("filter requires a > b > 0")
        if self.delta_a <= 0 or self.delta_b <= 0:
            raise ValueError("filter edge widths must be positive")
        if self.tau_s <= 0 or self.s_radius <= 0:
            raise ValueError("quadrature parameters must be positive")
        if not all(math.isfinite(c) for c in _taylor_coefficients(self)):
            raise ValueError("filter too large: the small-s expansion of f overflows")
        ratio = self.s_radius / self.tau_s
        if not 2 * ratio + 1 < 2**59:
            raise ValueError(
                f"s_radius / tau_s = {ratio:.3g} needs {2 * ratio + 1:.3g} grid nodes, "
                "2^59 or more: their complex values would take 2^63 bytes"
            )
        object.__setattr__(self, "m_half", max(math.ceil(ratio - 1e-12), 1))

    @property
    def grid_radius(self) -> float:
        """Outermost quadrature node, ``m_half * tau_s``."""
        return self.m_half * self.tau_s

    def with_clamp(self, clamp: bool) -> "FilterParams":
        return replace(self, clamp_nonnegative=clamp)

    def with_s_radius(self, s_radius: float) -> "FilterParams":
        """Same filter shape, different truncation radius (rebuilds m_half)."""
        return replace(self, s_radius=s_radius)


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
    """Frequency-domain filter value; accepts scalars (returns a ``float``)
    or arrays.  The error function is evaluated in numpy arithmetic from a
    Taylor table anchored on ``math.erf`` (see ``_erf``), so no scipy."""
    w = np.asarray(omega, dtype=float)
    val = 0.5 * (_erf((w + p.a) / p.delta_a) - _erf((w + p.b) / p.delta_b))
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
        c0, c1, c2 = _taylor_coefficients(p)
        out[tiny] = (c0 + 1j * c1 * s0 - c2 * s0**2) / (2 * np.pi)
    return complex(out[0]) if scalar else out


def _taylor_coefficients(p: FilterParams) -> tuple[float, float, float]:
    """``(c0, c1, c2)`` with ``2 pi f(s) = c0 + i c1 s - c2 s^2 + O(s^3)``;
    all ``inf`` when a power leaves the float range."""
    try:
        c1 = (p.delta_a**2 - p.delta_b**2) / 4 + (p.a**2 - p.b**2) / 2
        c2 = (p.a * p.delta_a**2 - p.b * p.delta_b**2) / 4 + (p.a**3 - p.b**3) / 6
    except OverflowError:
        return math.inf, math.inf, math.inf
    return p.a - p.b, c1, c2


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
