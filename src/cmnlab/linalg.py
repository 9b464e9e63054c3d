"""Dense linear algebra substrate: validated quantum states, partial traces
and singular spectra.

All state-like objects are immutable; every function here is pure.
"""

from __future__ import annotations

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


def check_density_stack(data):
    """Raise :class:`ValidationError` for the first matrix of the stack
    ``data`` (shape (k, side, side)) that is not Hermitian, of unit trace
    and positive semidefinite, naming the first invariant it violates."""
    adj = data.conj().swapaxes(-1, -2)
    herm_res = np.abs(data - adj)
    tr = data.trace(axis1=-2, axis2=-1)
    min_eig = np.linalg.eigvalsh((data + adj) / 2)[:, 0]  # eigvalsh sorts ascending
    if (herm_res.max(initial=0) <= EPS_HERM and abs(tr - 1).max(initial=0) <= EPS_TRACE
            and min_eig.min(initial=0) >= -EPS_PSD):
        return
    herm_res = herm_res.max(axis=(-2, -1))
    for i in range(len(data)):
        if herm_res[i] > EPS_HERM:
            raise ValidationError(f"not Hermitian (residual {herm_res[i]:.3e})")
        if abs(tr[i] - 1) > EPS_TRACE:
            raise ValidationError(f"unit trace violated (trace {tr[i]:.12g})")
        if min_eig[i] < -EPS_PSD:
            raise ValidationError(f"not positive semidefinite (min eigenvalue {min_eig[i]:.3e})")


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
        side = int(np.prod(dims))
        data = _frozen_array(self.data, complex)
        object.__setattr__(self, "data", data)
        if data.shape != (side, side):
            raise ValidationError(
                f"matrix shape {data.shape} does not match dims {dims}"
            )
        check_density_stack(data[None])

    @property
    def n_parties(self):
        return len(self.dims)

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
        if amp.shape != (int(np.prod(dims)),):
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
    side = int(np.prod([dims[k] for k in keep]))
    return t.reshape(side, side)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state of ``rho`` on the parties in ``keep``."""
    reduced = partial_trace_raw(rho.data, rho.dims, keep)
    kept_dims = tuple(rho.dims[k] for k in sorted(set(int(k) for k in keep)))
    return DensityMatrix(kept_dims, reduced)


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
    side = int(np.prod(dims))
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
    """Full singular spectrum of ``m``, sorted descending; for a stack of
    matrices, one spectrum per matrix."""
    return np.linalg.svd(np.asarray(m), compute_uv=False)


def trace_distance(a, b):
    """(1/2)·||a - b||_1 for Hermitian matrices."""
    eig = np.linalg.eigvalsh(hermitize(np.asarray(a) - np.asarray(b)))
    return float(np.abs(eig).sum() / 2)


def pauli(which):
    """One of the Pauli matrices 'x', 'y', 'z' (unnormalized)."""
    return _PAULI[which].copy()
