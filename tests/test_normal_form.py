import numpy as np
import pytest

from cmnlab.linalg import DensityMatrix, partial_trace, trace_distance
from cmnlab.normal_form import (
    DEFAULT_TOL,
    FilteringError,
    filter_to_fnf,
    fnf_residual,
    is_fnf,
    is_sfnf,
    sfnf_residual,
)
from cmnlab.tensor import Bipartition, build, iter_bipartitions
from cmnlab.zoo import bell, ghz, maximally_mixed, rho1

from conftest import random_density

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
    return per_part, is_sfnf(t, tol), max(worst, sfnf_residual(t))


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
        # all single-party reductions of GHZ are maximally mixed
        t = build(ghz(3, 2).to_density())
        for part in iter_bipartitions(3):
            assert is_fnf(t, part)


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

    def test_nonconvergence_reports_residual(self):
        rho = random_density((2, 2, 2), 8, 8)
        with pytest.raises(FilteringError, match="residual"):
            filter_to_fnf(rho, max_iters=1, tol=1e-15)


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


@pytest.mark.parametrize("groups", [[(0,), (1,), (2,)], [(0,), (1, 2)], [(0, 2), (1,)]])
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


def test_w3_failure_texts_unchanged():
    from cmnlab.zoo import w_state

    w3 = w_state(3).to_density()
    msg = "filtering did not converge in 500 sweeps (last residual 4.995e-04)"
    with pytest.raises(FilteringError) as err:
        filter_to_fnf(partial_trace(w3, (0, 1)))
    assert str(err.value) == msg
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
    assert errors[3] == "filtering did not converge in 500 sweeps (last residual 4.995e-04)"
    for row in (1, 3):
        assert np.isnan(out[row]).all()
        with pytest.raises(FilteringError) as err:
            filter_to_fnf(DensityMatrix((2, 2, 2), rows[row]), groups=groups)
        assert str(err.value) == errors[row]
    assert sweeps[3] == 500
    for row, rho in zip((0, 2, 4), converging):
        want, want_hist = _filter_recomputing(rho, groups)
        assert errors[row] is None
        assert sweeps[row] == len(want_hist) - 1
        assert np.abs(out[row] - want).max() <= 1e-13
    assert len(set(sweeps[[0, 2, 4]])) > 1  # rows left the stack at different sweeps


def test_stack_history_per_row():
    from cmnlab.normal_form import filter_stack

    rhos = [random_density((2, 2, 3), 12, 95 + s) for s in range(3)]
    history = [[] for _ in rhos]
    _, sweeps, _ = filter_stack(np.stack([r.data for r in rhos]), (2, 2, 3), history=history)
    for rho, hist, n_sweeps in zip(rhos, history, sweeps):
        _, want_hist = _filter_recomputing(rho, [(0,), (1,), (2,)])
        assert len(hist) == len(want_hist) == n_sweeps + 1
        assert np.abs(np.subtract(hist, want_hist)).max() <= 1e-13


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
