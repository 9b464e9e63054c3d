"""Dense linear algebra substrate: validated quantum states, partial traces
and singular spectra.

All state-like objects are immutable; every function here is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EPS_HERM = 1e-10
EPS_TRACE = 1e-10
EPS_NORM = 1e-10
EPS_PSD = 1e-9

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class ValidationError(ValueError):
    """Raised when a state fails one of its defining invariants."""


def _frozen_array(a, dtype):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def hermitize(m):
    """(m + m†)/2 — used before eigenvalue-based PSD checks; for a stack of
    matrices, each one."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def density_violations(data):
    """For each matrix of the stack ``data`` (shape (k, side, side)), the text
    of the first invariant it violates (finite, Hermitian, unit trace,
    positive semidefinite), or ``""``."""
    side = data.shape[-1]
    if not np.isfinite(data).all():  # the others' texts, with such rows maximally mixed
        finite = np.isfinite(data).all(axis=(-2, -1))
        texts = density_violations(np.where(finite[:, None, None], data, np.eye(side) / side))
        return [t if ok else "matrix has a non-finite entry" for ok, t in zip(finite, texts)]
    adj = data.conj().swapaxes(-1, -2)
    herm_res = np.abs(data - adj)
    tr = data.trace(axis1=-2, axis2=-1)
    herm = (data + adj) / 2
    try:
        # a Cholesky factor of H + EPS_PSD/2·1 certifies every eigenvalue of
        # every row to be >= -EPS_PSD/2; only an uncertified stack pays eigvalsh
        np.linalg.cholesky(herm + EPS_PSD / 2 * np.eye(side))
        min_eig = np.zeros(len(data))
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh(herm)[:, 0]  # eigvalsh sorts ascending
    if (herm_res.max(initial=0) <= EPS_HERM and abs(tr - 1).max(initial=0) <= EPS_TRACE
            and min_eig.min(initial=0) >= -EPS_PSD):
        return [""] * len(data)
    return [f"not Hermitian (residual {res:.3e})" if res > EPS_HERM
            else f"unit trace violated (trace {t:.12g})" if abs(t - 1) > EPS_TRACE
            else f"not positive semidefinite (min eigenvalue {e:.3e})" if e < -EPS_PSD
            else "" for res, t, e in zip(herm_res.max(axis=(-2, -1)), tr, min_eig)]


def check_density_stack(data):
    """Raise :class:`ValidationError` for the first matrix of the stack
    ``data`` that :func:`density_violations` finds at fault, with its text."""
    why = next(filter(None, density_violations(data)), "")
    if why:
        raise ValidationError(why)


@dataclass(frozen=True)
class DensityMatrix:
    """A mixed state over parties with dimensions ``dims``.

    Validates Hermiticity, unit trace and positive semidefiniteness on
    construction; raises :class:`ValidationError` naming the violated
    invariant otherwise.
    """

    dims: tuple
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 2 for d in dims):
            raise ValidationError("every party dimension must be >= 2")
        side = math.prod(dims)
        data = _frozen_array(self.data, complex)
        object.__setattr__(self, "data", data)
        if data.shape != (side, side):
            raise ValidationError(
                f"matrix shape {data.shape} does not match dims {dims}"
            )
        check_density_stack(data[None])

    @property
    def dim(self):
        return self.data.shape[0]


@dataclass(frozen=True)
class PureState:
    """A pure state vector over parties with dimensions ``dims``."""

    dims: tuple
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        amp = _frozen_array(self.amplitudes, complex)
        object.__setattr__(self, "amplitudes", amp)
        if amp.shape != (math.prod(dims),):
            raise ValidationError("amplitude vector length does not match dims")
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1) > EPS_NORM:
            raise ValidationError(f"state vector not normalized (norm {nrm:.12g})")

    def to_density(self):
        return DensityMatrix(self.dims, np.outer(self.amplitudes, self.amplitudes.conj()))


@dataclass(frozen=True)
class BlochVector:
    """A real 3-vector inside the closed Bloch ball."""

    r: np.ndarray

    def __post_init__(self):
        r = _frozen_array(self.r, float)
        object.__setattr__(self, "r", r)
        if r.shape != (3,):
            raise ValidationError("Bloch vector must have exactly 3 components")
        if np.linalg.norm(r) > 1 + EPS_NORM:
            raise ValidationError("Bloch vector lies outside the unit ball")


def partial_trace_raw(data, dims, keep):
    """Partial trace of a raw square matrix over the parties not in ``keep``.

    ``keep`` is an iterable of 0-based party indices; the result is ordered
    by ascending kept index. No state validation is performed.
    """
    dims = list(dims)
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must be nonempty")
    if keep[0] < 0 or keep[-1] >= n:
        raise ValueError(f"keep indices must lie in 0..{n - 1}")
    t = np.asarray(data).reshape(dims + dims)
    cur = list(dims)
    for p in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=p, axis2=p + len(cur))
        cur.pop(p)
    side = math.prod(dims[k] for k in keep)
    return t.reshape(side, side)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state of ``rho`` on the parties in ``keep``."""
    reduced = partial_trace_raw(rho.data, rho.dims, keep)
    kept_dims = tuple(rho.dims[k] for k in sorted(set(int(k) for k in keep)))
    return DensityMatrix(kept_dims, reduced)


def permute_parties(data, dims, order):
    """The matrix ``data`` over ``dims`` (or each matrix of a stack of them)
    with its parties reordered: party ``order[i]`` becomes party i. Exact,
    since it only moves entries."""
    n, lead = len(dims), data.ndim - 2
    axes = list(range(lead)) + [lead + p for p in order] + [lead + n + p for p in order]
    return data.reshape(data.shape[:lead] + tuple(dims) * 2).transpose(axes).reshape(data.shape)


def apply_local(op, data, parties, dims):
    """Conjugate the row/column axes of the listed parties by ``op``.

    ``op`` acts on the joint space of ``parties`` (ascending order); returns
    op_full @ data @ op_full† without materializing the embedded operator.
    """
    dims = list(dims)
    n = len(dims)
    parties = sorted(set(int(p) for p in parties))
    t = np.asarray(data).reshape(dims + dims)
    block = [dims[p] for p in parties]
    op_t = np.asarray(op).reshape(block + block)
    k = len(parties)
    # rows
    t = np.tensordot(op_t, t, axes=(list(range(k, 2 * k)), parties))
    t = np.moveaxis(t, list(range(k)), parties)
    # columns
    col_axes = [n + p for p in parties]
    t = np.tensordot(t, op_t.conj(), axes=(col_axes, list(range(k, 2 * k))))
    t = np.moveaxis(t, list(range(-k, 0)), col_axes)
    side = math.prod(dims)
    return t.reshape(side, side)


def bloch_to_qubit(r: BlochVector) -> DensityMatrix:
    """Qubit state (1 + r·σ)/2 for a Bloch vector inside the unit ball."""
    if not isinstance(r, BlochVector):
        r = BlochVector(np.asarray(r, dtype=float))
    m = np.eye(2, dtype=complex)
    for comp, pauli in zip(r.r, (_PAULI["x"], _PAULI["y"], _PAULI["z"])):
        m = m + comp * pauli
    return DensityMatrix((2,), m / 2)


def singular_values(m):
    """Full singular spectrum of ``m``, sorted descending (one per matrix of a
    stack), from LAPACK."""
    return np.linalg.svd(m, compute_uv=False)
