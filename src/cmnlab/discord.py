"""CMN-based global quantum discord: projective measurement channels,
angle parametrization of product measurements, and the maximization over
measurement choices."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .basis import normalized_generalized_gell_mann
from .cmn import SV_CLAMP, CmnParams, _sorted_spectrum_power, spectrum_power
from .linalg import DensityMatrix, apply_local, hermitize, singular_values
from .tensor import Bipartition, build, matricize

PROJECTOR_TOL = 1e-10
# A search has converged when its two best restarts agree to within this.
CONVERGED_TOL = 1e-6
# A trial improves on a restart's best only by more than this times |best|.
GAIN_TOL = 1e-12
# The search's step starts here, halves after a sweep without improvement,
# and a restart stops once it falls below MIN_STEP.
INIT_STEP = 0.3
MIN_STEP = 1e-5


@dataclass(frozen=True)
class MeasurementFamily:
    """Per-party lists of rank-1 orthogonal projectors summing to 1."""

    dims: tuple
    projectors: tuple  # one ndarray of shape (d, d, d) per party

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        projs = tuple(np.asarray(p, dtype=complex) for p in self.projectors)
        object.__setattr__(self, "projectors", projs)
        for d, stack in zip(dims, projs):
            if stack.shape != (d, d, d):
                raise ValueError("need d rank-1 projectors of size d×d per party")
            # written as "not <= tol", so that a NaN fails every test
            if not np.abs(stack.sum(axis=0) - np.eye(d)).max() <= PROJECTOR_TOL:
                raise ValueError("projectors do not sum to the identity")
            # (test, projector): Hermitian, idempotent, rank-1; the first
            # projector to fail one names its first failed test
            bad = ~(np.stack([np.abs(stack - stack.conj().swapaxes(1, 2)).max(axis=(1, 2)),
                              np.abs(stack @ stack - stack).max(axis=(1, 2)),
                              np.abs(np.trace(stack, axis1=1, axis2=2).real - 1)])
                    <= PROJECTOR_TOL)
            if bad.any():
                test = bad[:, bad.any(axis=0).argmax()].argmax()
                raise ValueError("projector is not " + ("Hermitian", "idempotent", "rank-1")[test])


def unitaries_from_angles(d, angles):
    """One unitary per row of ``angles`` (shape (k, d(d-1))), each the product
    of d(d-1)/2 Givens rotations with two angles apiece.

    For d = 2 a row is the usual (θ, φ) Bloch parametrization of a
    measurement basis.
    """
    angles = np.asarray(angles, dtype=float)
    if angles.ndim != 2 or angles.shape[1] != d * (d - 1):
        raise ValueError(f"dimension {d} needs {d * (d - 1)} angles")
    half = angles[:, 0::2] / 2
    cos, sin = np.cos(half), np.sin(half)
    phase = np.exp(1j * angles[:, 1::2])
    planes = [(j, k) for j in range(d) for k in range(j + 1, d)]
    g = np.tile(np.eye(d, dtype=complex), (len(angles), len(planes), 1, 1))
    for r, (j, k) in enumerate(planes):
        g[:, r, j, j] = g[:, r, k, k] = cos[:, r]
        g[:, r, j, k] = -sin[:, r] * phase[:, r].conj()
        g[:, r, k, j] = sin[:, r] * phase[:, r]
    u = g[:, 0]
    for r in range(1, len(planes)):
        u = g[:, r] @ u
    return u


def n_angles(dims):
    return sum(d * (d - 1) for d in dims)


@lru_cache(maxsize=None)
def _columns(dims, parties):
    """The columns of ``parties``' angles (a tuple) in an angle vector of all of
    ``dims``, as a read-only index array."""
    starts = list(accumulate((d * (d - 1) for d in dims), initial=0))
    cols = np.array([c for p in parties for c in range(starts[p], starts[p + 1])], dtype=int)
    cols.setflags(write=False)
    return cols


@lru_cache(maxsize=None)
def _angle_groups(dims):
    """(d, parties, their angle columns) per distinct dimension d of ``dims``."""
    groups = {d: tuple(p for p, dp in enumerate(dims) if dp == d) for d in dims}
    return tuple((d, ps, _columns(dims, ps)) for d, ps in groups.items())


def _rank1_projectors(u):
    """Projectors onto the columns of each unitary: P[..., a, m, n] = u_a[m] u_a[n]*."""
    cols = np.swapaxes(u, -1, -2)
    return cols[..., :, None] * cols.conj()[..., None, :]


def _projector_coordinates(projectors):
    """V[..., i, a] = tr(B_i P_a): the d² × d matrix of one party's projector
    coordinates in its Gell-Mann basis. For rank-1 orthogonal projectors the
    columns are orthonormal, and V Vᵀ is the dephasing channel acting on
    that party's correlation coordinates."""
    d = projectors.shape[-1]
    # tr(B P) = Σ P[m, n] B[n, m], and B[n, m] = conj(B[m, n]) for Hermitian B
    basis = normalized_generalized_gell_mann(d).reshape(d * d, d * d).conj().T
    coords = projectors.reshape(-1, d * d) @ basis
    return np.swapaxes(coords.reshape(projectors.shape[:-2] + (d * d,)), -1, -2).real


def _qubit_coordinates(angles):
    """The projector coordinates of qubit bases from their (θ, φ) rows
    (shape (..., 2)): V = [[1, 1], [n, -n]]/√2, with n = (sin θ cos φ,
    sin θ sin φ, cos θ) the Bloch vector of the basis's first column. Equal,
    to rounding, to the Givens route through unitaries_from_angles."""
    theta, phi = angles[..., 0], angles[..., 1]
    sin = np.sin(theta)
    v = np.empty(angles.shape[:-1] + (4, 2))
    v[..., 0, :] = 1.0
    v[..., 1, 0], v[..., 2, 0], v[..., 3, 0] = sin * np.cos(phi), sin * np.sin(phi), np.cos(theta)
    v[..., 1:, 1] = -v[..., 1:, 0]
    return v * math.sqrt(0.5)


def _party_coordinates(dims, angles):
    """V_p of every party of ``dims`` for each row of ``angles`` (shape
    (k, n_angles(dims))): a list of (k, d², d) arrays, in party order."""
    vs = [None] * len(dims)
    for d, parties, cols in _angle_groups(dims):
        rows = angles[:, cols].reshape(len(angles), len(parties), d * (d - 1))
        if d == 2:
            v = _qubit_coordinates(rows)
        else:
            u = unitaries_from_angles(d, rows.reshape(-1, d * (d - 1)))
            v = _projector_coordinates(_rank1_projectors(u)).reshape(rows.shape[:2] + (d * d, d))
        for q, p in enumerate(parties):
            vs[p] = v[:, q]
    return vs


def _side_factor(vs):
    """Kronecker product of the stacks ``vs`` (each (k, d², d)) of one side's
    parties, row by row, with the first party's indices varying fastest as in
    :func:`matricize`."""
    f = vs[0]
    for v in vs[1:]:
        f = (v[:, :, None, :, None] * f[:, None, :, None, :]).reshape(
            len(f), v.shape[1] * f.shape[1], v.shape[2] * f.shape[2])
    return f


def measurement_from_angles(dims, angles) -> MeasurementFamily:
    """Product measurement whose per-party bases are the columns of
    angle-parametrized unitaries."""
    dims = tuple(int(d) for d in dims)
    angles = np.asarray(angles, dtype=float).ravel()
    if angles.size != n_angles(dims):
        raise ValueError("angle vector length does not match dims")
    stacks = [None] * len(dims)
    for d, parties, cols in _angle_groups(dims):
        u = unitaries_from_angles(d, angles[cols].reshape(-1, d * (d - 1)))
        for p, projectors in zip(parties, _rank1_projectors(u)):
            stacks[p] = projectors
    return MeasurementFamily(dims, tuple(stacks))


def computational_measurement(dims) -> MeasurementFamily:
    return measurement_from_angles(dims, np.zeros(n_angles(dims)))


def measure_state(rho: DensityMatrix, family: MeasurementFamily, parties=None) -> DensityMatrix:
    """Dephasing channel Π[ρ] = Σ (⊗P) ρ (⊗P) over the selected parties'
    projectors (all parties by default). Trace is preserved exactly."""
    if family.dims != rho.dims:
        raise ValueError("measurement dims do not match the state")
    if parties is None:
        parties = range(len(rho.dims))
    data = rho.data
    for p in sorted(set(int(i) for i in parties)):
        if not 0 <= p < len(rho.dims):
            raise ValueError(f"party index {p} out of range")
        acc = np.zeros_like(data)
        for proj in family.projectors[p]:
            acc = acc + apply_local(proj, data, (p,), rho.dims)
        data = acc
    return DensityMatrix(rho.dims, hermitize(data))


@dataclass(frozen=True)
class OptimizerCfg:
    """Random-restart coordinate search over measurement angles, with the
    step schedule INIT_STEP, MIN_STEP."""

    restarts: int = 32
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.restarts, numbers.Integral) or self.restarts < 1:
            raise ValueError(f"restarts must be an integer >= 1, got {self.restarts!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class DiscordResult:
    """``method`` says how ``value`` was reached. From a "closed form" it is
    the discord, exact up to rounding; from a "search" it is an upper bound:
    ``best_measurement``, the best measurement found, is a witness, so a
    better maximizer can only lower ``value``. ``evaluations`` counts the
    trials a one-point-at-a-time search would make, not the points scored:
    the search scores each restart's whole neighbourhood at once and
    discards the trials after its first improvement. ``restart_evaluations``
    and ``restart_values`` give, per restart in restart order, that trial
    count (they sum to ``evaluations``) and the final objective, the
    dephased CMN power the search maximizes. A closed form makes no trials:
    ``evaluations`` is 0, both tuples are empty, ``restart_spread`` is 0 and
    ``converged`` is true. ``best_measurement`` is built, and checked, on its
    first read: no solve pays for a witness that its caller does not read."""

    value: float
    evaluations: int
    converged: bool  # the two best restarts agree to CONVERGED_TOL
    best_angles: tuple  # angles of the measured parties' bases, in party order
    restart_spread: float  # best minus worst final objective across restarts
    restart_evaluations: tuple
    restart_values: tuple
    method: str  # "closed form" or "search"
    _dims: tuple = field(compare=False, repr=False)
    _angles: np.ndarray = field(compare=False, repr=False)  # every party's, 0 if unmeasured

    @cached_property
    def best_measurement(self) -> MeasurementFamily:
        return measurement_from_angles(self._dims, self._angles)


def _lockstep_search(objective, n_params, cfg: OptimizerCfg):
    """Maximize by cyclic coordinate moves with a shrinking step, from
    ``cfg.restarts`` starting points at once.

    Each restart makes the moves of a search on its own: try +step, then
    -step, on each coordinate in turn, keep the first improvement (a gain
    above GAIN_TOL·|best|) and go on to the next coordinate; halve the step
    after a sweep without improvement and stop once it falls below MIN_STEP.

    One tick scores the 2n slots around every unfinished restart (+step,
    then -step, per coordinate) in one call of ``objective``, which maps a
    (k, n_params) array of points to k values. The trials from coordinate c
    to the end of the sweep, and those of a re-sweep at the same step after
    a move earlier in it, all start from that point: the move is the first
    improving slot from 2c on, else (after such a move) the first before 2c.

    Returns the final value and point of each restart and the number of
    trials the one-trial search consumes there, one starting evaluation
    included.
    """
    rng = np.random.default_rng(cfg.seed)
    n = cfg.restarts
    x = np.zeros((n, n_params))
    x[1:] = rng.uniform(0, 2 * math.pi, size=(n - 1, n_params))
    best = np.array(objective(x), dtype=float)
    evals = np.ones(n, dtype=int)
    final_best, final_x = best.copy(), x.copy()
    slots = np.arange(2 * n_params)
    slot_coord, slot_sign = slots // 2, np.where(slots % 2, -1.0, 1.0)
    offsets = slot_sign[:, None] * np.eye(n_params)[slot_coord]  # (2n, n_params)
    # place[c, s]: slot s's index in the trials of a sweep from coordinate c,
    # run on into the re-sweep from the same point
    place = (slots - 2 * slots[:n_params, None]) % slots.size
    # failed[c]: the trials of a sweep from coordinate c (and re-sweep) without a
    # move; after[s]: the coordinate after a move in slot s (the last ends a sweep)
    failed = slots.size - 2 * slots[:n_params] + slots.size * (slots[:n_params] > 0)
    after = (slot_coord + 1) % n_params
    # state of the unfinished restarts, compacted whenever some finish
    ids = np.arange(n)
    step = np.full(n, INIT_STEP)
    coord = np.zeros(n, dtype=int)  # > 0 after a move earlier in the sweep
    while ids.size:
        trial = x[:, None] + step[:, None, None] * offsets
        score = objective(trial.reshape(-1, n_params)).reshape(ids.size, slots.size)
        gain = score - best[:, None] > GAIN_TOL * np.abs(best[:, None])
        tried = np.where(gain, place[coord], slots.size).min(axis=1)
        move = tried < slots.size
        evals[ids] += np.where(move, tried + 1, failed[coord])
        first = (tried + 2 * coord) % slots.size
        coord = np.where(move, after[first], 0)
        moved = np.flatnonzero(move)
        x[moved], best[moved] = trial[moved, first[moved]], score[moved, first[moved]]
        step[~move] /= 2
        done = step < MIN_STEP
        if done.any():
            final_best[ids[done]], final_x[ids[done]] = best[done], x[done]
            keep = ~done
            ids, x, best, step, coord = ids[keep], x[keep], best[keep], step[keep], coord[keep]
    return final_best, final_x, evals


def _dephasing(dims, m, part: Bipartition, sides):
    """The map of a (k, n_angles) array of angles for the parties of the
    measured ``sides`` (in party order) to the k dephased copies of ``m``,
    the matricization across ``part``, computed in correlation space.

    Dephasing party p maps its axis of T through V_p V_pᵀ. V_p has
    orthonormal columns, so contracting with V_p alone keeps the nonzero
    spectrum: a measured side's factor F, the Kronecker product of its
    parties' V_p, takes M to Fᵀ·M on side A and M·F on side B. All that
    does not depend on the angles is set up once, here.
    """
    measured = tuple(sorted(sum(sides, ())))
    measured_dims = tuple(dims[p] for p in measured)
    # per side of ``part``, its parties' positions among ``measured``, none if unmeasured
    a, b = ([measured.index(p) for p in side] if side in sides else []
            for side in (part.side_a, part.side_b))

    def dephase(angles):
        vs = _party_coordinates(measured_dims, angles)
        c = m
        if a:
            c = np.swapaxes(_side_factor([vs[q] for q in a]), -1, -2) @ c
        return c @ _side_factor([vs[q] for q in b]) if b else c

    return dephase


def _dephased_spectra(dims, m, part: Bipartition, sides):
    """Angles -> the spectra of :func:`_dephasing`'s matricizations, each sorted
    descending (LAPACK's order) and padded with zeros to ``min(m.shape)``, the
    undisturbed length, so that every h the undisturbed one allows works."""
    dephase = _dephasing(dims, m, part, sides)

    def spectra(angles):
        sigma = singular_values(dephase(angles))
        return np.concatenate([sigma, np.zeros((len(sigma), min(m.shape) - sigma.shape[1]))],
                              axis=1)

    return spectra


def _top(values):
    """The best restart; ties go to the earlier one."""
    return np.argsort(-values, kind="stable")[0]


def _outcome(base, best, dims, sides, angles, values=None, evals=None):
    """The result for the largest dephased power ``best``, reached at
    ``angles`` (every party's, 0 on the unmeasured ones): a closed form's, or,
    given each restart's final value and trial count, a search's."""
    closed = values is None
    if closed:
        values, evals = np.zeros(0), np.zeros(0, dtype=int)
    ranked = -np.sort(-values)
    return DiscordResult(
        value=float(base - best),
        evaluations=int(evals.sum()),
        converged=closed or bool(len(values) > 1 and ranked[0] - ranked[1] <= CONVERGED_TOL),
        best_angles=tuple(angles[_columns(dims, tuple(sorted(sum(sides, ()))))].tolist()),
        restart_spread=0.0 if closed else float(best - values.min()),
        restart_evaluations=tuple(int(e) for e in evals),
        restart_values=tuple(float(v) for v in values),
        method="closed form" if closed else "search",
        _dims=dims,
        _angles=angles,
    )


def _search(rho, part, params, opt, sides):
    """The discord by the coordinate search over the angles of every party of
    the measured ``sides`` (one or both sides of ``part``, A's first)."""
    m = matricize(build(rho), part)
    base = spectrum_power(singular_values(m), params)[0]
    return _search_from(rho.dims, m, base, part, params, opt, sides)


def _search_from(dims, m, base, part, params, opt, sides):
    """:func:`_search` on the state's matricization ``m`` across ``part``,
    whose undisturbed power is ``base``."""
    spectra = _dephased_spectra(dims, m, part, sides)
    cols = _columns(dims, tuple(sorted(sum(sides, ()))))
    values, points, evals = _lockstep_search(
        lambda x: _sorted_spectrum_power(spectra(x), params), len(cols), opt)
    top = _top(values)
    # the unmeasured side keeps the computational basis: all its angles are 0
    angles = np.zeros(n_angles(dims))
    angles[cols] = points[top]
    return _outcome(base, values[top], dims, sides, angles, values, evals)


def _bloch_angles(n):
    """(θ, φ) of the qubit basis whose first vector has Bloch vector ``n``."""
    return np.arccos(min(max(n[2], -1.0), 1.0)), np.arctan2(n[1], n[0])


def _qubit_gram(c, params):
    """For each matrix of the stack ``c`` (k, 4, N), whose rows are a measured
    qubit's coordinates: |m₀|² and the 3×3 matrix G whose top eigenvalue λ
    gives the largest [M_{h,p}]^p over that qubit's bases, at h = 2 or
    (h, p) = (1, 2), and whose top eigenvector is the best Bloch vector n.

    Measuring along n leaves the two rows m₀ and nᵀM_v (rows 0 and 1..3 of
    the matrix), rotated. At h = 1, p = 2 the objective is σ₁² + σ₂² =
    |m₀|² + nᵀM_vM_vᵀn, so G = M_vM_vᵀ and the best is |m₀|² + λ. At h = 2
    it is (σ₁σ₂)ᵖ, and σ₁²σ₂² = nᵀQn with Q = |m₀|²·M_vM_vᵀ −
    (M_vm₀)(M_vm₀)ᵀ = |m₀|²·RRᵀ, where R is M_v less its rows' projections
    on m₀: G = RRᵀ, formed from R to keep full accuracy where σ₁σ₂ is near
    0, and the best is (|m₀|²·λ)^(p/2)."""
    m0, mv = c[:, 0], c[:, 1:]
    norm2 = np.einsum("ki,ki->k", m0, m0)
    if params.h == 2:
        mv = mv - np.einsum("kvi,ki->kv", mv, m0 / norm2[:, None])[:, :, None] * m0[:, None, :]
    return norm2, np.einsum("kvi,kwi->kvw", mv, mv)


def _qubit_basis(c, params):
    """The best Bloch vector n of each matrix of ``c`` (as for
    :func:`_qubit_gram`) and the objective there, the rows m₀ and nᵀM_v
    scored as the search scores them, SV_CLAMP included."""
    n = np.linalg.eigh(_qubit_gram(c, params)[1])[1][:, :, -1]
    rows = np.stack([c[:, 0], np.einsum("kv,kvi->ki", n, c[:, 1:])], axis=1)
    return _sorted_spectrum_power(singular_values(rows), params), n


def _qubit_best(c, params):
    """:func:`_qubit_basis`'s objective from the top eigenvalue alone. Only
    the clamp needs n: at h = 1 it moves σ₁² + σ₂² by under SV_CLAMP²·σ₁²,
    below rounding, and at h = 2 it can zero σ₂ only where σ₁σ₂ <
    SV_CLAMP·σ₁² ≤ SV_CLAMP·|c|² (a product state): such matrices are
    scored at n."""
    norm2, g = _qubit_gram(c, params)
    top = np.linalg.eigvalsh(g)[:, -1]
    if params.h == 1:
        return norm2 + top
    prod = np.sqrt(np.maximum(norm2 * top, 0.0))  # the largest σ₁σ₂
    best = prod if math.isinf(params.p) else prod ** params.p
    near = prod < SV_CLAMP * np.einsum("kvi,kvi->k", c, c)
    if near.any():
        best[near] = _qubit_basis(c[near], params)[0]
    return best


def _discord(rho, part, params, opt, sides):
    """The discord when the measured ``sides``, one or both sides of ``part``
    (A's first), are measured, in closed form where it has one (RESULTS.md,
    "Exact discord where a measured side is one qubit"): an h above the
    dephased matrix's rank leaves nothing; one measured qubit beside an
    unmeasured side takes its best basis directly at h = 2, or h = 1 with
    p = 2 or ∞, and two measured qubits at h = 2; beside another measured
    side, at h = 2 or h = 1 with p = 2, only that side's angles are searched.
    Every other solve is :func:`_search`'s."""
    dims = rho.dims
    m = matricize(build(rho), part)
    base = spectrum_power(singular_values(m), params)[0]
    angles = np.zeros(n_angles(dims))
    # the dephased matrix's sides: d for a measured side, d² for an unmeasured one
    rank = min(math.prod(dims[p] for p in s) ** (1 if s in sides else 2)
               for s in (part.side_a, part.side_b))
    if params.h > rank:  # every h-fold product holds a zero
        return _outcome(base, 0.0, dims, sides, angles)
    qubits = [s for s in sides if len(s) == 1 and dims[s[0]] == 2]
    if not qubits:
        return _search_from(dims, m, base, part, params, opt, sides)
    q = qubits[0]
    c = m if q == part.side_a else m.T  # the qubit's coordinates on the rows
    h2, h1p2 = params.h == 2, (params.h, params.p) == (1, 2.0)
    if len(sides) == 1:
        if h2 or h1p2:
            best, n = _qubit_basis(c[None], params)
            angles[_columns(dims, q)] = _bloch_angles(n[0])
            return _outcome(base, best[0], dims, sides, angles)
        if params.h == 1 and math.isinf(params.p):
            # σ₁ of M: its top left singular vector u lies in span{e₀, (0, n)}
            u = np.linalg.svd(c)[0][:, 0]
            if u[1:].any():
                angles[_columns(dims, q)] = _bloch_angles(u[1:] / np.linalg.norm(u[1:]))
            return _outcome(base, base, dims, sides, angles)
    elif len(qubits) == 2 and h2:
        # σ₁σ₂ = |n_Aᵀ K n_B|, the determinant of the dephased 2×2 matrix in
        # the bases (e₀, n) of both sides, scored as the search scores it
        k = c[0, 0] * c[1:, 1:] - np.outer(c[1:, 0], c[0, 1:])
        u, _, vt = np.linalg.svd(k)
        n_a, n_b = u[:, 0], vt[0]
        two = np.array([[c[0, 0], c[0, 1:] @ n_b], [n_a @ c[1:, 0], n_a @ c[1:, 1:] @ n_b]])
        angles[_columns(dims, part.side_a)] = _bloch_angles(n_a)
        angles[_columns(dims, part.side_b)] = _bloch_angles(n_b)
        return _outcome(base, _sorted_spectrum_power(singular_values(two[None]), params)[0],
                        dims, sides, angles)
    elif h2 or h1p2:
        # search only the other side's angles, the qubit's best n at each point
        other = part.side_b if q == part.side_a else part.side_a
        dephase = _dephasing(dims, m, part, (other,))

        def rows(points):  # the dephased matrices, the qubit's coordinates on the rows
            d = dephase(points)
            return d if q == part.side_a else np.swapaxes(d, -1, -2)

        values, points, evals = _lockstep_search(
            lambda x: _qubit_best(rows(x), params), n_angles(dims[p] for p in other), opt)
        top = _top(values)
        angles[_columns(dims, other)] = points[top]
        angles[_columns(dims, q)] = _bloch_angles(_qubit_basis(rows(points[top:top + 1]),
                                                               params)[1][0])
        return _outcome(base, values[top], dims, sides, angles, values, evals)
    return _search_from(dims, m, base, part, params, opt, sides)


def bipartite_discord_cmn(rho: DensityMatrix, part: Bipartition, side: str,
                          params: CmnParams, opt: OptimizerCfg = OptimizerCfg()) -> DiscordResult:
    """Discord with respect to one side of a bipartition: the CMN drop under
    the best projective measurement on that side's parties."""
    if side not in ("a", "b"):
        raise ValueError("side must be 'a' or 'b'")
    return _discord(rho, part, params, opt, (part.side_a if side == "a" else part.side_b,))


def global_discord_cmn(rho: DensityMatrix, part: Bipartition,
                       params: CmnParams, opt: OptimizerCfg = OptimizerCfg()) -> DiscordResult:
    """Global discord: the CMN drop under the best product measurement on
    all parties, evaluated on the matricization given by ``part``."""
    return _discord(rho, part, params, opt, (part.side_a, part.side_b))

