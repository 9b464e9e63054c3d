import numpy as np
import pytest

from cmnlab.linalg import DensityMatrix, partial_trace
from cmnlab.normal_form import DEFAULT_TOL, FilteringError, filter_to_fnf
from cmnlab.tensor import Bipartition, build, iter_bipartitions
from cmnlab.zoo import bell, ghz, maximally_mixed, rho1

from conftest import fnf_residual, random_density, sfnf_residual, trace_distance

PART = Bipartition.of((0,), 3)


def normal_form_status(t, tol=DEFAULT_TOL):
    """FNF verdict per bipartition, the SFNF verdict and the largest residual
    of either kind, each from the residual functions directly."""
    per_part = {}
    worst = 0.0
    for part in iter_bipartitions(t.n_parties):
        res = fnf_residual(t, part)
        per_part[part] = res <= tol
        worst = max(worst, res)
    sfnf_res = sfnf_residual(t)
    return per_part, sfnf_res <= tol, max(worst, sfnf_res)


def is_fnf(t, part):
    return fnf_residual(t, part) <= DEFAULT_TOL


def is_sfnf(t):
    return sfnf_residual(t) <= DEFAULT_TOL


class TestIsFnf:
    def test_maximally_mixed(self):
        t = build(maximally_mixed((2, 2, 2)))
        for part in iter_bipartitions(3):
            assert is_fnf(t, part)

    def test_rho1(self):
        t = build(rho1())
        for part in iter_bipartitions(3):
            assert is_fnf(t, part)

    def test_pure_product_state_fails(self):
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1
        rho = DensityMatrix((2, 2), np.kron(zero, zero))
        assert not is_fnf(build(rho), Bipartition.of((0,), 2))

    def test_ghz_is_fnf(self):
        # GHZ is in FNF party by party: every single-party reduction is
        # maximally mixed. Across a cut, FNF needs each side's whole
        # reduction maximally mixed, and GHZ's two-party reductions carry
        # the <Z⊗Z> correlation, entry 1/(2√2) of the tensor
        t = build(ghz(3, 2).to_density())
        for p in range(3):
            face = t.data[tuple(slice(1, None) if i == p else 0 for i in range(3))]
            assert np.abs(face).max() <= DEFAULT_TOL
        for part in iter_bipartitions(3):
            assert abs(fnf_residual(t, part) - 2**-1.5) <= 1e-15
            assert not is_fnf(t, part)

    def test_residual_reads_whole_sides(self):
        # 1/2 ⊗ |Φ+><Φ+|: every single-party reduction is maximally mixed,
        # and so is every side of a cut that keeps B and C apart
        bc = bell(1).to_density().data
        t = build(DensityMatrix((2, 2, 2), np.kron(np.eye(2) / 2, bc)))
        assert abs(fnf_residual(t, Bipartition.of((0,), 3)) - 2**-1.5) <= 1e-15
        assert fnf_residual(t, Bipartition.of((0, 1), 3)) <= 1e-15
        assert fnf_residual(t, Bipartition.of((0, 2), 3)) <= 1e-15


class TestIsSfnf:
    def test_rho1(self):
        assert is_sfnf(build(rho1()))

    def test_ghz_fails(self):
        assert not is_sfnf(build(ghz(3, 2).to_density()))

    def test_maximally_mixed(self):
        assert is_sfnf(build(maximally_mixed((2, 2, 2))))

    def test_status_summary(self):
        per_part, sfnf, _ = normal_form_status(build(rho1()))
        assert sfnf
        assert all(per_part.values())

    def test_largest_cut_residual_is_the_sfnf_residual(self):
        """Every proper subset of the parties is one side of some cut, so the
        largest FNF residual over the cuts reads every entry with an identity
        index: it equals the mask oracle exactly."""
        from cmnlab.zoo import ZOO, from_name

        tensors = [build(from_name(name)) for name in sorted(ZOO)]
        for i, dims in enumerate([(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 3, 2), (2, 2, 2, 2)]):
            side = int(np.prod(dims))
            tensors += [build(random_density(dims, 1 + seed % side, 100 * i + seed))
                        for seed in range(50)]
        for t in tensors:
            cuts = iter_bipartitions(t.n_parties)
            assert max(fnf_residual(t, part) for part in cuts) == sfnf_residual(t)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 3, 2), (2, 3, 3),
                                      (2, 2, 2, 2), (2, 2, 2, 2, 2), (2,) * 6, (2,) * 7])
    def test_one_pass_residuals_equal_fnf_residual_on_every_cut(self, dims):
        """fnf_residuals reads every cut, in iter_bipartitions order, of every
        tensor of a stack in one pass; each value equals fnf_residual exactly.
        The vertex, the largest entry of every row, must not be read. Row 0
        has the face of party 0's side zeroed; row 1 is zero off its vertex;
        row 2 keeps only the entries with no identity index, so every face of
        it is zero; row 3 is a state's."""
        from cmnlab.normal_form import fnf_residuals
        from cmnlab.tensor import CorrelationTensor

        rng = np.random.default_rng(sum(dims) * len(dims))
        n, vertex = len(dims), 1 / np.sqrt(np.prod(dims))
        stack = rng.uniform(-vertex / 2, vertex / 2, (4,) + tuple(d * d for d in dims))
        stack[0][(slice(None),) + (0,) * (n - 1)] = 0
        stack[1] = 0
        interior = (2,) + (slice(1, None),) * n
        stack[2], stack[interior] = 0, stack[interior].copy()
        stack[(slice(None),) + (0,) * n] = vertex
        stack[3] = build(random_density(dims, 2, len(dims))).data
        parts = list(iter_bipartitions(n))
        got = fnf_residuals(stack)
        assert got.shape == (4, len(parts))
        for row, values in zip(stack, got):
            t = CorrelationTensor(dims, row)
            assert [fnf_residual(t, part) for part in parts] == values.tolist()
        assert not got[1].any() and not got[2].any()
        assert np.abs(stack[interior]).min() > 0 and got[0].all() and got[3].all()

    def test_empty_stack_gives_no_rows(self):
        """A dims group whose every row failed the state checks hands over an
        empty stack: it reads no residual, one column per cut."""
        from cmnlab.normal_form import fnf_residuals

        assert fnf_residuals(np.zeros((0, 4, 4, 4))).shape == (0, 3)


class TestFilterToFnf:
    def test_fixed_point_on_isotropic_state(self):
        # Bell state mixed with white noise already has maximally mixed
        # reductions
        b = bell(1).to_density()
        iso = DensityMatrix((2, 2), 0.7 * b.data + 0.3 * np.eye(4) / 4)
        out = filter_to_fnf(iso)
        assert trace_distance(out.data, iso.data) <= 1e-8

    def test_biased_mixture_converges(self):
        bias = np.diag([0.6, 0.4]).astype(complex)
        product = np.kron(np.kron(bias, bias), np.diag([0.55, 0.45]).astype(complex))
        rho = DensityMatrix((2, 2, 2), 0.8 * rho1().data + 0.2 * product)
        out = filter_to_fnf(rho)
        for p in range(3):
            red = partial_trace(out, [p])
            assert trace_distance(red.data, np.eye(2) / 2) <= 1e-8

    def test_rank_deficient_reduction_fails(self):
        zero = np.zeros((2, 2), dtype=complex)
        zero[0, 0] = 1
        rho = DensityMatrix((2, 2), np.kron(zero, np.eye(2) / 2))
        with pytest.raises(FilteringError, match="party 0"):
            filter_to_fnf(rho)

    def test_output_is_valid_state(self):
        out = filter_to_fnf(random_density((2, 2, 2), 8, 5))
        assert isinstance(out, DensityMatrix)  # construction re-validates

    def test_idempotence(self):
        rho = random_density((2, 2, 2), 8, 6)
        once = filter_to_fnf(rho, tol=1e-10)
        twice = filter_to_fnf(once, tol=1e-10)
        assert trace_distance(once.data, twice.data) <= 1e-9

    def test_det_product_diagnostic_non_decreasing_per_sweep(self):
        for seed in range(5):
            hist = []
            filter_to_fnf(random_density((2, 2, 2), 8, 30 + seed), history=hist)
            assert len(hist) >= 2
            assert np.diff(hist).min() >= -1e-12

    def test_group_filtering_reaches_partition_fnf(self):
        from cmnlab.zoo import random_biseparable

        rho = random_biseparable((2, 2, 2), PART, 24, 17)
        out = filter_to_fnf(rho, groups=[PART.side_a, PART.side_b])
        red = partial_trace(out, PART.side_b)
        assert trace_distance(red.data, np.eye(4) / 4) <= 1e-8
        t = build(out)
        assert is_fnf(t, PART)

    def test_overlapping_groups_rejected(self):
        rho = random_density((2, 2, 2), 8, 9)
        with pytest.raises(ValueError, match="disjoint"):
            filter_to_fnf(rho, groups=[(0, 1), (1, 2)])

    def test_party_in_no_group_is_not_filtered(self):
        rho = random_density((2, 2, 2), 8, 10)
        _assert_matches_oracle(rho, [(2,), (0,)])

    def test_nonconvergence_reports_residual(self, monkeypatch):
        from cmnlab import normal_form

        monkeypatch.setattr(normal_form, "MAX_SWEEPS", 1)
        rho = random_density((2, 2, 2), 8, 8)
        with pytest.raises(FilteringError, match="residual"):
            filter_to_fnf(rho, tol=1e-15)

    def test_max_iters_text(self, monkeypatch):
        # a geometric run cut short keeps the sweep-budget text
        from cmnlab import normal_form

        monkeypatch.setattr(normal_form, "MAX_SWEEPS", 3)
        with pytest.raises(FilteringError) as err:
            filter_to_fnf(random_density((2, 2, 2), 8, 8))
        assert str(err.value) == "filtering did not converge in 3 sweeps (last residual 1.239e-04)"


def _filter_recomputing(rho, groups, tol=1e-9, max_iters=500):
    """filter_to_fnf with every reduction computed afresh where it is used,
    the oracle for the shared reductions."""
    from cmnlab.linalg import apply_local, hermitize, partial_trace_raw
    from cmnlab.normal_form import RANK_TOL

    def _inverse_sqrt(m, rank_tol, label):
        w, v = np.linalg.eigh(hermitize(m))
        if w.min() <= rank_tol:
            raise FilteringError(f"reduction of {label} is rank deficient")
        return (v * w**-0.5) @ v.conj().T

    dims = rho.dims
    data = rho.data.copy()
    dim = lambda g: int(np.prod([dims[p] for p in g]))
    red = lambda g: partial_trace_raw(data, dims, g)
    det = lambda: np.prod([float(np.linalg.det(dim(g) * red(g)).real) for g in groups])
    res = lambda: max(trace_distance(red(g), np.eye(dim(g)) / dim(g)) for g in groups)
    history = [det()]
    sweeps = 0
    while res() > tol:
        assert sweeps < max_iters
        for g in groups:
            f = _inverse_sqrt(dim(g) * red(g), RANK_TOL, "")
            data = apply_local(f, data, g, dims)
            data = data / data.trace().real
        history.append(det())
        sweeps += 1
    return hermitize(data), history


def _assert_matches_oracle(rho, groups):
    """Same sweep count as the oracle; data and determinant history within
    1e-13 (the kernel sums in another order, so bit equality is not owed)."""
    hist = []
    out = filter_to_fnf(rho, groups=groups, history=hist)
    if groups is None:
        groups = [(p,) for p in range(len(rho.dims))]
    want, want_hist = _filter_recomputing(rho, groups)
    assert len(hist) == len(want_hist)
    assert np.abs(out.data - want).max() <= 1e-13
    assert np.abs(np.subtract(hist, want_hist)).max() <= 1e-13


# [(2,), (0,)] leaves party 1 in no group, which filter_to_fnf never filters
@pytest.mark.parametrize("groups", [[(0,), (1,), (2,)], [(0,), (1, 2)], [(0, 2), (1,)],
                                    [(2,), (0,)]])
def test_filter_matches_recomputing_oracle(groups):
    for seed in range(4):
        _assert_matches_oracle(random_density((2, 2, 2), 8, 60 + seed), groups)


@pytest.mark.parametrize("dims,groups", [
    ((2, 2, 3), [(0,), (1, 2)]),
    ((2, 2, 3), [(2,), (0, 1)]),
    ((3, 3), None),
    ((2, 2, 2, 2), [(0, 3), (1, 2)]),
    ((2, 2, 2, 2), None),
])
def test_group_major_kernel_matches_oracle(dims, groups):
    side = int(np.prod(dims))
    for seed in range(3):
        _assert_matches_oracle(random_density(dims, side, 70 + seed), groups)


def test_ill_conditioned_and_audit_filterings_match_oracle():
    """The oracle reads the exact trace distance every sweep, so equal sweep
    counts pin the kernel's residual decisions: on every converging cut of
    ROADMAP item 1's states, seeds 0-19 (ill-conditioned filters), and on 64
    unfiltered draws of each biseparable-filtered-* family. The states agree
    to 1e-13, or, where the filters are ill-conditioned, to eps times the
    product of the condition numbers of the two side reductions: the two
    loops sum in different orders, and the filters amplify that rounding."""
    from cmnlab.linalg import partial_trace_raw
    from cmnlab.normal_form import filter_stack
    from cmnlab.zoo import random_biseparable_stack

    from conftest import item1_state

    cases = [(item1_state(seed), [part.side_a, part.side_b])
             for seed in range(20) for part in iter_bipartitions(3)]
    for dims in ((2, 2, 2), (2, 2, 3)):
        draws = random_biseparable_stack(dims, PART, 24, np.arange(2026, 2026 + 64))
        cases += [(DensityMatrix(dims, row), [PART.side_a, PART.side_b]) for row in draws]
    converged = 0
    for rho, groups in cases:
        out, sweeps, errors = filter_stack(rho.data[None], rho.dims, groups)
        if errors[0] is not None:
            continue
        want, want_hist = _filter_recomputing(rho, groups)
        assert sweeps[0] == len(want_hist) - 1
        cond = np.prod([np.linalg.cond(partial_trace_raw(rho.data, rho.dims, g)) for g in groups])
        assert np.abs(out[0] - want).max() <= max(1e-13, np.finfo(float).eps * cond)
        converged += 1
    assert converged >= 128 + 30


def test_a_later_groups_residual_is_its_exact_trace_distance():
    """A row whose group 0 is already maximally mixed stops at sweep 0
    exactly when tol is above its group-1 trace distance, 3e-4 here. That
    distance lies strictly inside the bracket ||Δ||_F/2 <= TD <= sqrt(D)·||Δ||_F/2
    of the Frobenius norm, so the stop decision takes the eigenvalues."""
    from cmnlab.normal_form import filter_stack

    gen = np.random.default_rng(5)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
    # Δ has eigenvalues (3, -1, -1, -1)·1e-4: distance 3e-4, bounds 1.73e-4 and 3.46e-4
    sigma = np.eye(4) / 4 + q @ np.diag([3e-4, -1e-4, -1e-4, -1e-4]) @ q.conj().T
    rho = DensityMatrix((2, 2, 2), np.kron(np.eye(2) / 2, sigma))  # party 0 is already 1/2
    delta = sigma - np.eye(4) / 4
    dist = trace_distance(sigma, np.eye(4) / 4)
    fro = np.linalg.norm(delta)
    assert fro / 2 < 0.9 * dist and dist < 0.9 * fro  # strictly inside, sqrt(D) = 2
    for tol, stops in ((dist * (1 + 1e-9), True), (dist * (1 - 1e-9), False)):
        _, sweeps, errors = filter_stack(rho.data[None], rho.dims, [(0,), (1, 2)], tol)
        assert errors[0] is None
        assert (sweeps[0] == 0) == stops


def test_later_groups_are_read_only_where_the_stop_decision_needs_them(monkeypatch):
    """filter_stack reads group 1's residual with eigvalsh on exactly the
    running rows whose group-0 residual, from the eigenvalues of its filter's
    eigh, is at or below tol; at the checkpoint, snapshot and budget sweeps
    on every running row. The stack: a row whose party 0 is already 1/2 but
    whose parties 1+2 are not, a row already in FNF, three random states that
    converge after different sweeps, and the W-3 pair row, which runs past
    the snapshot at sweep 32 to stall at the checkpoint at sweep 64."""
    from cmnlab.normal_form import MAX_SWEEPS, STALL_SWEEPS, filter_stack
    from cmnlab.zoo import w_state

    gen = np.random.default_rng(5)
    q, _ = np.linalg.qr(gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4)))
    sigma = np.eye(4) / 4 + q @ np.diag([3e-4, -1e-4, -1e-4, -1e-4]) @ q.conj().T
    pair = partial_trace(w_state(3).to_density(), (0, 1)).data
    rows = [np.kron(np.eye(2) / 2, sigma), np.eye(8) / 8,
            *(random_density((2, 2, 2), 8, 90 + s).data for s in range(3)),
            np.kron(pair, np.eye(2) / 2)]
    calls = []
    real_eigh, real_eigvalsh = np.linalg.eigh, np.linalg.eigvalsh

    def eigh(a, *args, **kwargs):
        w, v = real_eigh(a, *args, **kwargs)
        calls.append(("eigh", w))
        return w, v

    def eigvalsh(a, *args, **kwargs):
        calls.append(("eigvalsh", np.array(a)))
        return real_eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    _, sweeps, errors = filter_stack(np.stack(rows), (2, 2, 2), [(0,), (1, 2)])
    monkeypatch.undo()
    assert errors[:5] == [None] * 5 and errors[5].startswith("filtering stalled after 64")
    assert sweeps[1] == 0 and sweeps[0] > 0 and len(set(sweeps[2:5])) > 1

    # one eigh per group and step, so group 0's eigh of sweep k is call 2k
    # of the eighs, and the eigvalsh that reads that sweep follows it
    eighs = [i for i, (kind, _) in enumerate(calls) if kind == "eigh"]
    checkpoints = [k for k in range(sweeps.max() + 1)
                   if k in STALL_SWEEPS or 2 * k in STALL_SWEEPS or k >= MAX_SWEEPS]
    assert checkpoints == [32, 64]
    read = 0
    for k, at in enumerate(eighs[::2]):
        w = calls[at][1]
        want = (np.ones(len(w), bool) if k in checkpoints
                else ~(np.abs(w - 1).sum(axis=1) / 4 > DEFAULT_TOL))
        follows = calls[at + 1] if at + 1 < len(calls) else ("eigh", None)
        if follows[0] == "eigvalsh":
            assert len(follows[1]) == want.sum() > 0
            read += 1
            if k == 0:  # sweep 0 reads the input's own parties 1+2
                rho_bc = np.stack(rows).reshape(6, 2, 4, 2, 4).trace(axis1=1, axis2=3)
                assert np.abs(follows[1] - 4 * rho_bc[want]).max() <= 1e-15
        else:
            assert not want.any()
        if k in checkpoints:
            assert len(w) == 1 and np.abs(w - 1).sum() / 4 > DEFAULT_TOL
    assert read == sum(kind == "eigvalsh" for kind, _ in calls)


W3_STALL = ("filtering stalled after 64 sweeps: residual 3.9e-03 falls like k^-1.0, "
            "not geometrically")


def test_w3_failure_texts_unchanged():
    from cmnlab.normal_form import filter_stack
    from cmnlab.zoo import w_state

    w3 = w_state(3).to_density()
    pair = partial_trace(w3, (0, 1))
    with pytest.raises(FilteringError) as err:
        filter_to_fnf(pair)
    assert str(err.value) == W3_STALL
    _, sweeps, _ = filter_stack(pair.data[None], pair.dims)
    assert sweeps[0] == 64
    with pytest.raises(FilteringError, match=r"reduction of party 1\+2 is rank deficient"):
        filter_to_fnf(w3, groups=[(0,), (1, 2)])


def test_kernel_calls_no_per_step_linalg(monkeypatch):
    from cmnlab import linalg, normal_form

    def forbidden(*args, **kwargs):
        raise AssertionError("filter_to_fnf called a per-step linalg helper")

    for module in (linalg, normal_form):
        for name in ("apply_local", "partial_trace_raw"):
            monkeypatch.setattr(module, name, forbidden, raising=False)
    rho = random_density((2, 2, 3), 12, 80)
    out = filter_to_fnf(rho, groups=[(0,), (1, 2)])
    assert out.dims == (2, 2, 3)
    filter_to_fnf(rho)


def test_stack_rows_match_oracle_and_one_row_errors():
    """One stack mixing rows that converge after different sweep counts, a
    rank-deficient row and a row that never converges: each converged row
    matches the recomputing oracle, and each failing row carries the exact
    text filter_to_fnf raises on it alone."""
    from cmnlab.normal_form import filter_stack
    from cmnlab.zoo import w_state

    groups = [(0,), (1, 2)]
    w3 = w_state(3).to_density()
    # filtering the group B+C of rho_AB ⊗ 1/2 filters B alone, so this row
    # runs the two-qubit W-3 reduction's non-converging iteration
    pair = np.kron(partial_trace(w3, (0, 1)).data, np.eye(2) / 2)
    converging = [random_density((2, 2, 2), 8, 90 + s) for s in range(3)]
    rows = [converging[0].data, w3.data, converging[1].data, pair, converging[2].data]
    out, sweeps, errors = filter_stack(np.stack(rows), (2, 2, 2), groups=groups)

    assert errors[1] == ("filtering not possible: reduction of party 1+2 is rank deficient "
                         "(min eigenvalue within 1e-12 of 0)")
    assert errors[3] == W3_STALL
    for row in (1, 3):
        assert np.isnan(out[row]).all()
        with pytest.raises(FilteringError) as err:
            filter_to_fnf(DensityMatrix((2, 2, 2), rows[row]), groups=groups)
        assert str(err.value) == errors[row]
    assert sweeps[3] == 64
    for row, rho in zip((0, 2, 4), converging):
        want, want_hist = _filter_recomputing(rho, groups)
        assert errors[row] is None
        assert sweeps[row] == len(want_hist) - 1
        assert np.abs(out[row] - want).max() <= 1e-13
    assert len(set(sweeps[[0, 2, 4]])) > 1  # rows left the stack at different sweeps


@pytest.mark.parametrize("case", ["biseparable-222", "biseparable-223", "mixed"])
def test_each_row_filters_as_it_does_alone(case):
    """Each row of one filter_stack call gets, bit for bit, the matrix, sweep
    count and error text of its one-row call, so a row's filtering does not
    depend on its stack: filter_cuts' row dedupe and the audit's redraw
    from worst_seed rely on this. The stacks: the 32 draws from seed 2026 on
    that the biseparable-filtered-* audits filter across A|BC, and the mixed
    stack of test_stack_rows_match_oracle_and_one_row_errors, whose rows
    leave at different sweeps."""
    from cmnlab.normal_form import filter_stack
    from cmnlab.zoo import random_biseparable_stack, w_state

    groups = [PART.side_a, PART.side_b]
    if case == "mixed":
        dims = (2, 2, 2)
        w3 = w_state(3).to_density()
        pair = np.kron(partial_trace(w3, (0, 1)).data, np.eye(2) / 2)
        converging = [random_density(dims, 8, 90 + s).data for s in range(3)]
        data = np.stack([converging[0], w3.data, converging[1], pair, converging[2]])
    else:
        dims = (2, 2, int(case[-1]))
        data = random_biseparable_stack(dims, PART, 24, np.arange(2026, 2026 + 32))
    out, sweeps, errors = filter_stack(data, dims, groups)
    for i, row in enumerate(data):
        want, want_sweeps, want_errors = filter_stack(row[None], dims, groups)
        assert out[i].tobytes() == want[0].tobytes()
        assert sweeps[i] == want_sweeps[0]
        assert errors[i] == want_errors[0]
    assert len(set(sweeps)) > 1


def test_stack_history_per_row():
    from cmnlab.normal_form import filter_stack

    rhos = [random_density((2, 2, 3), 12, 95 + s) for s in range(3)]
    history = [[] for _ in rhos]
    _, sweeps, _ = filter_stack(np.stack([r.data for r in rhos]), (2, 2, 3), history=history)
    for rho, hist, n_sweeps in zip(rhos, history, sweeps):
        _, want_hist = _filter_recomputing(rho, [(0,), (1,), (2,)])
        assert len(hist) == len(want_hist) == n_sweeps + 1
        assert np.abs(np.subtract(hist, want_hist)).max() <= 1e-13


def test_history_has_one_entry_per_sweep_started(monkeypatch):
    """filter_to_fnf appends one determinant product per sweep it starts,
    also when it raises."""
    from cmnlab import normal_form

    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1
    bad = DensityMatrix((2, 2, 2), np.kron(np.kron(zero, np.eye(2) / 2), np.eye(2) / 2))
    hist = []
    with pytest.raises(FilteringError, match="rank deficient"):
        filter_to_fnf(bad, history=hist)
    assert hist == [0.0]
    rho = random_density((2, 2, 2), 8, 8)
    hist = []
    filter_to_fnf(rho, history=hist)
    assert len(hist) == 10
    monkeypatch.setattr(normal_form, "MAX_SWEEPS", 3)
    hist = []
    with pytest.raises(FilteringError, match="did not converge in 3 sweeps"):
        filter_to_fnf(rho, history=hist)
    assert len(hist) == 4


def test_rank_deficient_text_hides_rounding_noise():
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1
    with pytest.raises(FilteringError) as err:
        filter_to_fnf(DensityMatrix((2, 2), np.kron(zero, np.eye(2) / 2)))
    assert str(err.value).endswith("(min eigenvalue within 1e-12 of 0)")
    # an eigenvalue above the noise level keeps its digits
    tiny = np.diag([1 - 5e-10, 5e-10]).astype(complex)
    with pytest.raises(FilteringError) as err:
        filter_to_fnf(DensityMatrix((2, 2), np.kron(tiny, np.eye(2) / 2)))
    assert str(err.value).endswith("(min eigenvalue 1.000e-09)")


def _stall_corpus():
    """Every filtering ``detect`` can ask for on the zoo, GHZ/W-3..5 and
    seeded rank-2/3 random states, plus each state's party-by-party
    filtering, as {(dims, groups): [matrix, ...]}."""
    from itertools import combinations

    from cmnlab.zoo import ZOO, from_name, w_state

    states = [from_name(name) for name in sorted(ZOO)]
    states += [ghz(n).to_density() for n in (3, 4, 5)]
    states += [w_state(n).to_density() for n in (3, 4, 5)]
    for dims in [(2, 2, 2), (2, 2, 3), (2, 3), (3, 3)]:
        states += [random_density(dims, rank, 100 * rank + s) for rank in (2, 3) for s in range(4)]
    stacks = {}
    for rho in states:
        n = len(rho.dims)
        stacks.setdefault((rho.dims, None), []).append(rho.data)
        for size in range(2, n + 1):
            for keep in combinations(range(n), size):
                red = partial_trace(rho, keep) if size < n else rho
                for part in iter_bipartitions(size):
                    key = (red.dims, (part.side_a, part.side_b))
                    stacks.setdefault(key, []).append(red.data)
    return stacks


def test_stall_rule_fires_only_where_500_sweeps_do_not_converge(monkeypatch):
    """The oracle for the stall rule: each filtering it stops also fails
    with the whole 500-sweep budget and the rule switched off, and every
    other filtering ends exactly as it does without the rule."""
    from cmnlab import normal_form
    from cmnlab.normal_form import filter_stack

    stalled = 0
    for (dims, groups), rows in _stall_corpus().items():
        stack = np.stack(rows)
        out, sweeps, errors = filter_stack(stack, dims, groups)
        with monkeypatch.context() as m:
            m.setattr(normal_form, "STALL_SWEEPS", ())
            want, want_sweeps, want_errors = filter_stack(stack, dims, groups)
        for i, (err, want_err) in enumerate(zip(errors, want_errors)):
            if err is not None and err.startswith("filtering stalled"):
                stalled += 1
                assert want_err.startswith("filtering did not converge in 500 sweeps"), want_err
                assert sweeps[i] in normal_form.STALL_SWEEPS
            else:
                assert (err, sweeps[i]) == (want_err, want_sweeps[i])
                assert np.array_equal(out[i], want[i], equal_nan=True)
    # the W-3..5 two-qubit reductions stall, at least
    assert stalled >= 9


def test_stalled_row_leaves_the_stack_without_changing_the_others():
    from cmnlab.normal_form import filter_stack
    from cmnlab.zoo import w_state

    groups = [(0, 1), (2,)]
    # converges after 381 sweeps, so it runs on past the row that stalls
    slow = random_density((2, 2, 2), 3, 3006)
    # group 0+1 of 1/2 ⊗ rho_BC filters B alone: the W-3 pair's iteration
    pair = np.kron(np.eye(2) / 2, partial_trace(w_state(3).to_density(), (1, 2)).data)
    out, sweeps, errors = filter_stack(np.stack([slow.data, pair]), (2, 2, 2), groups)
    alone, alone_sweeps, _ = filter_stack(slow.data[None], (2, 2, 2), groups)
    assert errors == [None, W3_STALL]
    assert list(sweeps) == [alone_sweeps[0], 64] and alone_sweeps[0] > 256
    assert np.array_equal(out[0], alone[0])
    assert np.isnan(out[1]).all()


def test_w3_detect_sweeps_stop_at_the_first_checkpoint(monkeypatch):
    """A count, not a timing, guards the W-3 speed-up: its three two-qubit
    pair reductions are one state, filtered as one row that stalls at the
    first checkpoint, and its three-qubit cuts are rank deficient at sweep 0
    (AB|C and AC|B permute to one matrix, so they are one row)."""
    from cmnlab import normal_form
    from cmnlab.bounds import detect
    from cmnlab.zoo import w_state

    counted = []
    real = normal_form.filter_stack

    def counting(*args, **kwargs):
        out = real(*args, **kwargs)
        counted.extend(out[1])
        return out

    monkeypatch.setattr(normal_form, "filter_stack", counting)
    detect(w_state(3).to_density())
    assert len(counted) == 3
    assert sum(counted) <= 3 * normal_form.STALL_SWEEPS[0]


def test_filter_cuts_match_filter_to_fnf_on_each_cut():
    """filter_cuts stacks the cuts that share a shape; each result is, bit
    for bit, what filter_to_fnf gives on that cut alone or the text it
    raises there."""
    from cmnlab.normal_form import filter_cuts
    from cmnlab.zoo import w_state

    states = [w_state(3).to_density(), random_density((2, 2, 3), 12, 40),
              random_density((2, 3, 2), 3, 41), random_density((3, 2, 2), 12, 42)]
    cuts = [(rho, part) for rho in states for part in iter_bipartitions(3)]
    texts = 0
    for (rho, part), got in zip(cuts, filter_cuts([(rho.dims, rho.data, p) for rho, p in cuts])):
        try:
            want = filter_to_fnf(rho, groups=[part.side_a, part.side_b])
        except FilteringError as exc:
            texts += 1
            assert got == str(exc)
        else:
            assert np.array_equal(got, want.data)
    assert texts == 3  # the three cuts of W-3


def test_filter_cuts_take_a_real_matrix_and_list_dims():
    """A real state matrix with its dims as a list filters as the same state
    given as a complex matrix with tuple dims."""
    from cmnlab.normal_form import filter_cuts

    rho = random_density((2, 2, 2), 8, 47)
    real = np.diag(rho.data.diagonal().real)  # a diagonal state, real and not in FNF
    for part in iter_bipartitions(3):
        got, want = filter_cuts([([2, 2, 2], real, part), ((2, 2, 2), real + 0j, part)])
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["ghz-4-cuts", "w-3-pairs"])
def test_repeated_rows_iterate_once_and_get_their_own_results(monkeypatch, case):
    """filter_cuts hands filter_stack each distinct permuted matrix once, yet
    every cut gets, bit for bit, the matrix or error text that filter_to_fnf
    gives on that cut alone, and an error text names that cut's own parties:
    GHZ-4 permuted to put side A of each two-pair cut first is one matrix
    three times, whose side A is rank deficient; the W-3 pair, cut either
    way round, is one matrix twice, which stalls."""
    from cmnlab.normal_form import filter_cuts, group_label
    from cmnlab.zoo import w_state

    if case == "ghz-4-cuts":
        rho = ghz(4).to_density()
        parts = [Bipartition.of(side_a, 4) for side_a in ((0, 1), (0, 2), (0, 3))]
        other = random_density(rho.dims, 16, 43)
    else:
        rho = partial_trace(w_state(3).to_density(), (0, 1))
        parts = [Bipartition((0,), (1,)), Bipartition((1,), (0,))]
        other = random_density(rho.dims, 4, 44)
    cuts = [(rho, part) for part in parts]
    cuts.insert(1, (other, parts[0]))
    eigh_rows = []
    eigh = np.linalg.eigh

    def counted_eigh(a, *args, **kwargs):
        eigh_rows.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    out = filter_cuts([(state.dims, state.data, part) for state, part in cuts])
    monkeypatch.undo()
    assert eigh_rows[0] == 2  # the repeated matrix and the other one
    for (state, part), got in zip(cuts, out):
        try:
            want = filter_to_fnf(state, groups=[part.side_a, part.side_b])
        except FilteringError as exc:
            assert got == str(exc)
        else:
            assert got.tobytes() == want.data.tobytes()
    assert not isinstance(out[1], str)
    failed = [(part, got) for (_, part), got in zip(cuts, out) if got is not out[1]]
    if case == "ghz-4-cuts":
        for part, text in failed:
            assert text.startswith("filtering not possible: reduction of "
                                   f"{group_label(part.side_a)} ")
    else:
        assert all(text.startswith("filtering stalled after 64 sweeps") for _, text in failed)
