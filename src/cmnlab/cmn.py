"""The correlation minor norm M_{h,p}: symmetric functions of h-fold
products of singular values of a matricized correlation tensor."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import singular_values

# Singular values below this fraction of the largest are clamped to zero
# before forming products, so near-rank-deficient h = d² cases reproduce.
SV_CLAMP = 1e-12


@dataclass(frozen=True)
class CmnParams:
    """Minor order h and Schatten exponent p (1, math.inf, or finite > 0)."""

    h: int
    p: float

    def __post_init__(self):
        if self.h % 1:  # also true for inf and nan
            raise ValueError(f"minor order h must be a whole number, got {self.h!r}")
        object.__setattr__(self, "h", int(self.h))
        object.__setattr__(self, "p", float(self.p))
        if self.h < 1:
            raise ValueError("minor order h must be >= 1")
        if not self.p > 0:
            raise ValueError("p must be positive (or infinite)")


def _symmetric_sweep(x, h):
    """S_h of each row of ``x`` (shape (k, n), 1 <= h <= n), in input order.

    The coefficient sweep e_j += x_l · e_{j-1} over the values x_l, run one
    order at a time: after the first m values, e_j = Σ_{l<m} x_l · e_{j-1}
    (after l values), a running sum that adds the terms in the sweep's order.
    """
    n = x.shape[1]
    # e[:, m] holds e_j after the first m values, and e_j = 0 after none
    e = np.zeros((x.shape[0], n + 1))
    terms = x.copy()  # x_l · e_0, as e_0 = 1 after any number of values
    for j in range(h):
        if j:
            np.multiply(x, e[:, :n], out=terms)
        terms.cumsum(axis=1, out=e[:, 1:])
    return e[:, n]


def elementary_symmetric(h: int, xs) -> float:
    """h-th elementary symmetric polynomial S_h of the given values.

    Computed by the stable recursive product expansion (coefficient sweep),
    never by subset enumeration.
    """
    xs = np.asarray(xs, dtype=float)
    if not 1 <= h <= xs.size:
        raise ValueError(f"h={h} out of range for {xs.size} values")
    return float(_symmetric_sweep(xs.reshape(1, -1), h)[0])


def cmn(m, params: CmnParams):
    """M_{h,p} of a matricized correlation tensor, or an array of M_{h,p}
    of each matrix of a stack (shape (k, r, c)).

    p = ∞ gives the product of the h largest singular values; p = 1 the
    h-th elementary symmetric polynomial of the spectrum; finite p the
    corresponding power-sum combination (S_h(σᵖ))^{1/p}.
    """
    value = minor_norm(singular_values(m), params)
    return float(value[0]) if np.ndim(m) == 2 else value


def minor_norm(sigma, params: CmnParams) -> np.ndarray:
    """M_{h,p} of each row of a stack of singular spectra, shape (k, n)."""
    power = spectrum_power(sigma, params)
    return power if math.isinf(params.p) else power ** (1 / params.p)


def spectrum_power(sigma, params: CmnParams) -> np.ndarray:
    """[M_{h,p}]^p of each row of a stack of singular spectra, shape (k, n):
    :func:`_sorted_spectrum_power` of the rows sorted descending."""
    sigma = np.sort(np.array(sigma, dtype=float, ndmin=2), axis=1)[:, ::-1]
    if params.h > sigma.shape[1]:
        raise ValueError(f"h={params.h} exceeds the {sigma.shape[1]}-value singular spectrum")
    # numpy's power rounds a strided view (this one reversed) differently
    return _sorted_spectrum_power(np.ascontiguousarray(sigma), params)


def _sorted_spectrum_power(sigma, params: CmnParams) -> np.ndarray:
    """spectrum_power of contiguous rows sorted descending, h unchecked: values
    below SV_CLAMP times the row's largest (its first) are zeroed, then p = ∞
    gives the product of the h largest and finite p the sum S_h of p-th powers."""
    # singular values are >= 0: an all-zero row clamps nothing, and the row stays sorted
    sigma = sigma * (sigma >= SV_CLAMP * sigma[:, :1])
    if math.isinf(params.p):
        return np.prod(sigma[:, : params.h], axis=1)
    return _symmetric_sweep(sigma ** params.p, params.h)

