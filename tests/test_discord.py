import dataclasses
import math

import numpy as np
import pytest

from cmnlab import discord
from cmnlab.cmn import SV_CLAMP, CmnParams, _sorted_spectrum_power, spectrum_power
from cmnlab.discord import (
    CONVERGED_TOL,
    GAIN_TOL,
    MeasurementFamily,
    OptimizerCfg,
    _dephased_spectra,
    _lockstep_search,
    bipartite_discord_cmn,
    computational_measurement,
    global_discord_cmn,
    measure_state,
    measurement_from_angles,
    n_angles,
    unitaries_from_angles,
)
from cmnlab.linalg import DensityMatrix, singular_values
from cmnlab.tensor import Bipartition, build, iter_bipartitions, matricize
from cmnlab.zoo import (bell, classical_state, ghz, maximally_mixed, random_fully_separable,
                        w_state)

from conftest import correlation_space_map, random_density, unitary_from_angles

PART2 = Bipartition.of((0,), 2)


def both(part):
    """The measured sides of a global solve across ``part``."""
    return (part.side_a, part.side_b)


@pytest.fixture
def schedule(monkeypatch):
    """Set the search's step schedule, discord.INIT_STEP and MIN_STEP."""
    def set_schedule(init_step, min_step):
        monkeypatch.setattr(discord, "INIT_STEP", init_step)
        monkeypatch.setattr(discord, "MIN_STEP", min_step)
    return set_schedule


@pytest.fixture
def fast(schedule):
    """Four restarts on the step schedule 0.4 .. 1e-4."""
    schedule(0.4, 1e-4)
    return OptimizerCfg(restarts=4)


def givens_reference(d, angles):
    """Product of explicit d×d Givens matrices, one per (j, k) plane."""
    u = np.eye(d, dtype=complex)
    idx = 0
    for j in range(d):
        for k in range(j + 1, d):
            theta, phi = angles[idx], angles[idx + 1]
            idx += 2
            g = np.eye(d, dtype=complex)
            c, s = math.cos(theta / 2), math.sin(theta / 2)
            g[j, j] = c
            g[k, k] = c
            g[j, k] = -s * np.exp(-1j * phi)
            g[k, j] = s * np.exp(1j * phi)
            u = g @ u
    return u


def sequential_search(objective, x0):
    """One restart of the cyclic coordinate search, one evaluation at a time;
    a trial improves only by more than GAIN_TOL times |best|."""
    x = np.array(x0, dtype=float)
    best = objective(x)
    evals = 1
    step = discord.INIT_STEP
    while step >= discord.MIN_STEP:
        improved = False
        for i in range(x.size):
            for delta in (step, -step):
                trial = x.copy()
                trial[i] += delta
                val = objective(trial)
                evals += 1
                if val - best > GAIN_TOL * abs(best):
                    best, x = val, trial
                    improved = True
                    break
        if not improved:
            step /= 2
    return best, x, evals


def one_trial_lockstep_search(objective, n_params, cfg):
    """The search one trial per restart per tick: the same moves as
    ``sequential_search`` for every restart, in lockstep."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.restarts
    x = np.zeros((n, n_params))
    x[1:] = rng.uniform(0, 2 * math.pi, size=(n - 1, n_params))
    best = objective(x)
    evals = np.ones(n, dtype=int)
    final_best, final_x = best.copy(), x.copy()
    ids = np.arange(n)
    step = np.full(n, discord.INIT_STEP)
    coord = np.zeros(n, dtype=int)
    minus = np.zeros(n, dtype=bool)  # trying -step on this coordinate
    improved = np.zeros(n, dtype=bool)
    while ids.size:
        trial = x.copy()
        trial[np.arange(ids.size), coord] += np.where(minus, -step, step)
        val = objective(trial)
        evals[ids] += 1
        up = val - best > GAIN_TOL * np.abs(best)
        x = np.where(up[:, None], trial, x)
        best = np.where(up, val, best)
        improved |= up
        # a failed +step retries the coordinate with -step; all else moves on
        minus = ~(up | minus)
        coord += ~minus
        swept = coord == n_params
        if not swept.any():
            continue
        coord[swept] = 0
        step = np.where(swept & ~improved, step / 2, step)
        improved &= ~swept
        done = step < discord.MIN_STEP
        if done.any():
            final_best[ids[done]], final_x[ids[done]] = best[done], x[done]
            keep = ~done
            ids, x, best, step = ids[keep], x[keep], best[keep], step[keep]
            coord, minus, improved = coord[keep], minus[keep], improved[keep]
    return final_best, final_x, evals


def family_on(dims, measured, angles):
    """Angle-parametrized bases on the measured parties, the computational
    basis on the rest."""
    stacks = list(computational_measurement(dims).projectors)
    sub = measurement_from_angles(tuple(dims[p] for p in measured), angles)
    for k, p in enumerate(measured):
        stacks[p] = sub.projectors[k]
    return MeasurementFamily(dims, tuple(stacks))


class TestMeasurementFamily:
    def test_computational(self):
        fam = computational_measurement((2, 3))
        assert fam.projectors[0].shape == (2, 2, 2)
        assert fam.projectors[1].shape == (3, 3, 3)
        for stack in fam.projectors:
            for k, p in enumerate(stack):
                assert abs(p[k, k] - 1) < 1e-14

    def test_rejects_non_resolution(self):
        bad = np.zeros((2, 2, 2), dtype=complex)
        bad[0, 0, 0] = 1.0
        bad[1, 0, 0] = 1.0
        with pytest.raises(ValueError, match="identity"):
            MeasurementFamily((2,), (bad,))

    def test_rejects_non_projector(self):
        # Hermitian, sums to identity, but not idempotent
        stack = np.stack([np.eye(2) * 0.5, np.eye(2) * 0.5]).astype(complex)
        with pytest.raises(ValueError, match="idempotent"):
            MeasurementFamily((2,), (stack,))

    def test_rejects_wrong_projector_shape(self):
        with pytest.raises(ValueError, match="rank-1 projectors of size"):
            MeasurementFamily((2,), (np.stack([np.eye(2)] * 3).astype(complex),))

    def test_rejects_higher_rank(self):
        # Hermitian, idempotent and a resolution of the identity, but rank 2
        stack = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        with pytest.raises(ValueError, match="rank-1"):
            MeasurementFamily((2,), (stack,))

    def test_angle_count_guard(self):
        with pytest.raises(ValueError):
            unitary_from_angles(2, [0.1])
        with pytest.raises(ValueError):
            measurement_from_angles((2, 2), np.zeros(3))


class TestUnitaryFromAngles:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_is_unitary(self, d, rng):
        angles = rng.uniform(0, 2 * math.pi, size=d * (d - 1))
        u = unitary_from_angles(d, angles)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12

    def test_zero_angles_identity(self):
        assert np.abs(unitary_from_angles(3, np.zeros(6)) - np.eye(3)).max() < 1e-14

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_explicit_givens_product(self, d, rng):
        for _ in range(5):
            angles = rng.uniform(0, 2 * math.pi, size=d * (d - 1))
            assert np.abs(unitary_from_angles(d, angles) - givens_reference(d, angles)).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_batched_rows_match_single(self, d, rng):
        angles = rng.uniform(0, 2 * math.pi, size=(6, d * (d - 1)))
        for u, row in zip(unitaries_from_angles(d, angles), angles):
            assert np.abs(u - unitary_from_angles(d, row)).max() <= 1e-15

    @pytest.mark.parametrize("d", [2, 3])
    def test_no_rows_give_an_empty_stack(self, d):
        assert unitaries_from_angles(d, np.empty((0, d * (d - 1)))).shape == (0, d, d)

    def test_qubit_bloch_form(self):
        u = unitary_from_angles(2, [math.pi / 2, 0.0])
        # first column is the +x eigenstate up to phase
        v = u[:, 0]
        assert abs(abs(v[0]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(abs(v[1]) - 1 / math.sqrt(2)) < 1e-12


class TestMeasureState:
    def test_bell_z_dephasing(self):
        rho = bell(1).to_density()
        out = measure_state(rho, computational_measurement((2, 2)))
        assert np.abs(out.data - np.diag([0.5, 0, 0, 0.5])).max() < 1e-13

    def test_trace_preserved(self, rng):
        rho = random_density((2, 2, 2), 5, 21)
        fam = measurement_from_angles((2, 2, 2), rng.uniform(0, 6, size=6))
        out = measure_state(rho, fam)
        assert abs(np.trace(out.data) - 1) < 1e-12

    def test_partial_measurement(self):
        rho = bell(1).to_density()
        out = measure_state(rho, computational_measurement((2, 2)), parties=(0,))
        # dephasing one side of a Bell pair already kills the off-diagonals
        assert np.abs(out.data - np.diag([0.5, 0, 0, 0.5])).max() < 1e-13

    def test_idempotent_channel(self, rng):
        rho = random_density((2, 2), 4, 22)
        fam = measurement_from_angles((2, 2), rng.uniform(0, 6, size=4))
        once = measure_state(rho, fam)
        twice = measure_state(once, fam)
        assert np.abs(once.data - twice.data).max() < 1e-12

    def test_classical_state_fixed_point(self):
        rho = classical_state((2, 2), (0.4, 0.1, 0.2, 0.3))
        out = measure_state(rho, computational_measurement((2, 2)))
        assert np.abs(out.data - rho.data).max() < 1e-14

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            measure_state(bell(1).to_density(), computational_measurement((2, 3)))

    @pytest.mark.parametrize("party", [2, -1])
    def test_party_out_of_range(self, party):
        with pytest.raises(ValueError, match=f"party index {party} out of range"):
            measure_state(bell(1).to_density(), computational_measurement((2, 2)), [party])


class TestDominance:
    def test_measurement_never_raises_cmn(self, rng):
        # singular values of the correlation matrix majorize those after
        # local dephasing; every CMN is Schur concave in the squared values,
        # so the measured value cannot exceed the original
        params_list = [CmnParams(2, 1.0), CmnParams(4, math.inf), CmnParams(2, 2.0)]
        for seed in range(20):
            rho = random_density((2, 2), 4, 300 + seed)
            fam = measurement_from_angles((2, 2), rng.uniform(0, 2 * math.pi, size=4))
            after = measure_state(rho, fam)
            m0 = matricize(build(rho), PART2)
            m1 = matricize(build(after), PART2)
            for params in params_list:
                after_power = spectrum_power(singular_values(m1), params)[0]
                assert after_power <= spectrum_power(singular_values(m0), params)[0] + 1e-10


class TestCorrelationSpaceMap:
    def test_top_singular_value_is_one(self, rng):
        fam = measurement_from_angles((2,), rng.uniform(0, 6, size=2))
        m = correlation_space_map(fam, 0)
        sv = np.linalg.svd(m, compute_uv=False)
        assert abs(sv[0] - 1) < 1e-10

    def test_computational_map_is_z_projection(self):
        fam = computational_measurement((2,))
        m = correlation_space_map(fam, 0)
        # keeps identity and sigma_z coordinates, kills x and y
        assert np.abs(m - np.diag([1, 0, 0, 1])).max() < 1e-12

    def test_qubit_coordinates_match_the_givens_route(self, rng):
        # poles, negative angles and angles past 2π among random ones
        angles = np.vstack([rng.uniform(-4 * math.pi, 4 * math.pi, size=(500, 2)),
                            [[0.0, 0.0], [math.pi, 0.0], [0.0, 2.5], [math.pi, -1.0],
                             [-0.3, -2.0], [-math.pi, 7.0], [2 * math.pi + 0.4, 13.0]]])
        u = unitaries_from_angles(2, angles)
        want = discord._projector_coordinates(discord._rank1_projectors(u))
        assert np.abs(discord._qubit_coordinates(angles) - want).max() <= 1e-15


class TestCorrelationSpaceSpectrum:
    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2)])
    def test_matches_dephased_state(self, dims, rng):
        # oracle: dephase the density matrix, rebuild T, take the full spectrum
        rho = random_density(dims, 3, 900 + sum(dims))
        t = build(rho)
        for part in iter_bipartitions(len(dims)):
            for sides in (both(part), (part.side_a,), (part.side_b,)):
                measured = tuple(sorted(sum(sides, ())))
                measured_dims = tuple(dims[p] for p in measured)
                angles = rng.uniform(0, 2 * math.pi, size=(3, n_angles(measured_dims)))
                spectra = _dephased_spectra(dims, matricize(t, part), part, sides)(angles)
                for got, row in zip(spectra, angles):
                    after = measure_state(rho, family_on(dims, measured, row), measured)
                    want = singular_values(matricize(build(after), part))
                    assert got.shape == want.shape
                    assert np.abs(got - want).max() <= 1e-12


class TestLockstepSearch:
    def test_each_restart_moves_as_a_sequential_search(self, schedule):
        # a tie-free objective evaluated row by row with the same arithmetic,
        # so every comparison, value and point must agree exactly
        target = np.sin([0.7, -1.2, 2.0])

        def objective(x):
            return -((np.sin(x) - target) ** 2).sum(axis=-1)

        schedule(0.4, 1e-4)
        cfg = OptimizerCfg(restarts=5, seed=7)
        values, points, evals = _lockstep_search(objective, 3, cfg)
        rng = np.random.default_rng(cfg.seed)
        for r in range(cfg.restarts):
            x0 = rng.uniform(0, 2 * math.pi, size=3) if r else np.zeros(3)
            val, x, n = sequential_search(objective, x0)
            assert values[r] == val
            assert np.array_equal(points[r], x)
            assert evals[r] == n

    @staticmethod
    def assert_same_search(objective, n_params, cfg):
        values, points, evals = _lockstep_search(objective, n_params, cfg)
        want = one_trial_lockstep_search(objective, n_params, cfg)
        assert np.array_equal(values, want[0])
        assert np.array_equal(points, want[1])
        assert np.array_equal(evals, want[2])
        return values, points, evals

    @pytest.mark.parametrize("n_params,cfg", [
        (3, OptimizerCfg(restarts=5, seed=7)),
        (1, OptimizerCfg(restarts=5, seed=8)),
        (4, OptimizerCfg(restarts=1, seed=9)),
    ])
    def test_matches_one_trial_per_tick_oracle(self, n_params, cfg, schedule):
        schedule(0.4, 1e-4)
        target = np.sin(np.linspace(-1.2, 2.0, n_params))

        def objective(x):
            return -((np.sin(x) - target) ** 2).sum(axis=-1)

        self.assert_same_search(objective, n_params, cfg)

    def test_constant_objective_fails_every_sweep(self, schedule):
        schedule(0.4, 1e-3)
        cfg = OptimizerCfg(restarts=3, seed=4)
        values, points, evals = self.assert_same_search(lambda x: np.zeros(len(x)), 2, cfg)
        # 0.4 / 2^8 is the last step >= 1e-3: nine failed sweeps of 2 * 2 trials
        assert np.array_equal(evals, [1 + 9 * 4] * cfg.restarts)
        assert np.array_equal(points[0], np.zeros(2))

    def test_a_resweep_is_resolved_in_the_same_call(self, schedule):
        # x0 gains on every +step up to 1.2 and x1 never gains: after the first
        # move each sweep ends on x1's failed slots, and the re-sweep from the
        # same point takes the +step on x0 that the same call already scored
        calls = []

        def objective(x):
            calls.append(len(x))
            return -(x[..., 0] - 1.1) ** 2 - 10 * x[..., 1] ** 2

        schedule(0.4, 0.4)
        cfg = OptimizerCfg(restarts=1)
        values, points, evals = _lockstep_search(objective, 2, cfg)
        # the start, three moves and the failed sweep, where ending each sweep
        # in its own call takes 8 calls; the one-trial search makes 14 trials
        assert calls == [1, 4, 4, 4, 4]
        value, point, trials = sequential_search(objective, np.zeros(2))
        assert values[0] == value and np.array_equal(points[0], point)
        assert evals[0] == trials == 14

    def test_restart_counts_match_sequential_search(self, schedule):
        target = np.sin([0.3, 1.1])

        def objective(x):
            return -((np.sin(x) - target) ** 2).sum(axis=-1)

        schedule(0.4, 1e-4)
        cfg = OptimizerCfg(restarts=4, seed=3)
        counts = _lockstep_search(objective, 2, cfg)[2]
        rng = np.random.default_rng(cfg.seed)
        for r in range(cfg.restarts):
            x0 = rng.uniform(0, 2 * math.pi, size=2) if r else np.zeros(2)
            assert counts[r] == sequential_search(objective, x0)[2]


def _oracle_solves():
    """The benchmark's five solve types, a (2,2,2) global solve at p = inf, a
    (3,3) global solve and a one-sided solve on the (2,3) side of a (2,2,3)
    state; the last two have 12 and 8 angles, so they run from two restarts
    and stop at a coarser step (MIN_STEP 1e-3)."""
    h2p1, h1p2 = CmnParams(2, 1.0), CmnParams(1, 2.0)
    a_bc = Bipartition.of((0,), 3)
    bell_state, ghz3 = bell(1).to_density(), ghz(3, 2).to_density()
    cc = classical_state((2, 2), (0.4, 0.1, 0.2, 0.3))  # zoo "classical-cc"
    rand22, rand23 = random_density((2, 2), 4, 610), random_density((2, 3), 6, 611)
    rand222 = random_density((2, 2, 2), 4, 612)
    rand33, rand223 = random_density((3, 3), 3, 613), random_density((2, 2, 3), 6, 614)

    def short(solve):
        def run(opt):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(discord, "MIN_STEP", 1e-3)
                return solve(dataclasses.replace(opt, restarts=2))
        return run

    return {
        "random-33-global": short(lambda opt: global_discord_cmn(rand33, PART2, h1p2, opt)),
        "random-223-side-b": short(
            lambda opt: bipartite_discord_cmn(rand223, a_bc, "b", h2p1, opt)),
        "bell-global": lambda opt: global_discord_cmn(bell_state, PART2, h2p1, opt),
        "classical-cc-global": lambda opt: global_discord_cmn(cc, PART2, h2p1, opt),
        "ghz3-global-A|BC": lambda opt: global_discord_cmn(ghz3, a_bc, h2p1, opt),
        "random-22-side-a": lambda opt: bipartite_discord_cmn(rand22, PART2, "a", h1p2, opt),
        "random-23-side-a": lambda opt: bipartite_discord_cmn(rand23, PART2, "a", h1p2, opt),
        "random-222-global-inf": lambda opt: global_discord_cmn(
            rand222, a_bc, CmnParams(2, math.inf), opt),
    }


@pytest.mark.parametrize("name", list(_oracle_solves()))
def test_solves_match_one_trial_per_tick_oracle(name, monkeypatch):
    # the search over every measured party's angles, closed forms or not
    monkeypatch.setattr(discord, "_discord", discord._search)
    solve = _oracle_solves()[name]
    opts = [OptimizerCfg(restarts=8, seed=seed) for seed in range(5)]
    got = [solve(opt) for opt in opts]
    monkeypatch.setattr(discord, "_lockstep_search", one_trial_lockstep_search)
    for res, opt in zip(got, opts):
        want = solve(opt)
        assert res.value == want.value
        assert res.best_angles == want.best_angles
        assert res.evaluations == want.evaluations
        assert res.restart_evaluations == want.restart_evaluations
        assert res.restart_values == want.restart_values


# (evaluations, value) of the benchmark's five solves (tools/perf.py's stand-ins)
# by the search, at OptimizerCfg(restarts=8, seed=s) for s = 0 .. 3
BENCH_SOLVE_PINS = {
    "bell-global": [(1659, 1.2499999999999991), (1598, 1.2499999999999991),
                    (1636, 1.2499999999999991), (1606, 1.2499999999999991)],
    "classical-cc-global": [(1740, -4.163336342344337e-17), (1686, -4.163336342344337e-17),
                            (1661, -4.163336342344337e-17), (1629, -4.163336342344337e-17)],
    "ghz3-global-A|BC": [(2756, 1.2499999999999991), (2642, 1.2499999999999991),
                         (2638, 1.2499999999999991), (2673, 1.2499999999999991)],
    "random-22-seed22-side-a": [(907, 0.044104441794881766), (869, 0.04410444179403045),
                                (873, 0.04410444179359363), (859, 0.04410444179283085)],
    "random-23-seed23-side-a": [(835, 0.04622180069977666), (931, 0.046221800699834836),
                                (871, 0.04622180069969606), (876, 0.04622180069962051)],
}


@pytest.mark.parametrize("name", list(BENCH_SOLVE_PINS))
def test_benchmark_solves_keep_their_search_path(name, monkeypatch):
    monkeypatch.setattr(discord, "_discord", discord._search)
    h2p1, h1p2 = CmnParams(2, 1.0), CmnParams(1, 2.0)
    solve = {
        "bell-global": lambda opt: global_discord_cmn(bell(1).to_density(), PART2, h2p1, opt),
        "classical-cc-global": lambda opt: global_discord_cmn(
            classical_state((2, 2), (0.4, 0.1, 0.2, 0.3)), PART2, h2p1, opt),
        "ghz3-global-A|BC": lambda opt: global_discord_cmn(
            ghz(3).to_density(), Bipartition.of((0,), 3), h2p1, opt),
        "random-22-seed22-side-a": lambda opt: bipartite_discord_cmn(
            random_density((2, 2), 4, 22), PART2, "a", h1p2, opt),
        "random-23-seed23-side-a": lambda opt: bipartite_discord_cmn(
            random_density((2, 3), 6, 23), PART2, "a", h1p2, opt),
    }[name]
    for seed, (evaluations, value) in enumerate(BENCH_SOLVE_PINS[name]):
        res = solve(OptimizerCfg(restarts=8, seed=seed))
        assert res.evaluations == evaluations
        assert abs(res.value - value) <= 1e-15


# (dims, part, measured sides) of the solves in _oracle_solves
ORACLE_SHAPES = [
    ((3, 3), PART2, both(PART2)),
    ((2, 2, 3), Bipartition.of((0,), 3), ((1, 2),)),
    ((2, 2), PART2, both(PART2)),
    ((2, 2, 2), Bipartition.of((0,), 3), ((0,), (1, 2))),
    ((2, 2), PART2, ((0,),)),
    ((2, 3), PART2, ((0,),)),
]


# the two-column case: (2,2,2) cut AB|C, every party measured, 4×2 dephased matrices
AB_C = ((2, 2, 2), Bipartition.of((0, 1), 3), ((0, 1), (2,)))


@pytest.mark.parametrize("dims,part,measured", ORACLE_SHAPES + [AB_C])
def test_objective_needs_no_sort(dims, part, measured, monkeypatch, rng):
    # singular_values returns each spectrum sorted descending (LAPACK's order)
    # and the padding zeros come last, so the objective's clamp and S_h step
    # skip spectrum_power's sort and give its values exactly
    rho = random_density(dims, 3, 620)
    spectra = _dephased_spectra(dims, matricize(build(rho), part), part, measured)
    angles = rng.uniform(0, 2 * math.pi, size=(6, n_angles(dims[p] for s in measured for p in s)))
    # a product state's dephased matricization has rank 1, and what rounding
    # leaves of its other singular values is clamped
    product = _dephased_spectra(
        dims, matricize(build(random_fully_separable(dims, 1, 621)), part), part, measured)
    sigma = np.vstack([spectra(angles), product(angles[:1])])
    sigma = np.vstack([sigma, np.zeros(sigma.shape[1])])
    assert np.any((sigma > 0) & (sigma < SV_CLAMP * sigma[:, :1]))

    def search(objective, n_params, cfg):  # keeps the objective _discord hands over
        objectives.append(objective)
        return np.zeros(1), np.zeros((1, n_params)), np.ones(1, dtype=int)

    objectives = []
    monkeypatch.setattr(discord, "_lockstep_search", search)
    for p in (0.5, 1.0, 2.0, math.inf):
        for h in range(1, sigma.shape[1] + 1):
            params = CmnParams(h, p)
            want = spectrum_power(sigma, params)
            assert np.array_equal(_sorted_spectrum_power(sigma, params), want)
            discord._search(rho, part, params, OptimizerCfg(restarts=1), measured)
            assert np.array_equal(objectives.pop()(angles), want[:len(angles)])


class TestOptimizerCfg:
    @pytest.mark.parametrize("kwargs", [
        {"restarts": 0},
        {"restarts": -3},
        {"restarts": 2.5},
        {"restarts": math.nan},
        {"seed": 1.5},
        {"seed": math.nan},
        {"seed": -1},
        {"restarts": math.inf},
    ])
    def test_rejects_settings_that_break_the_search(self, kwargs):
        with pytest.raises(ValueError, match="|".join(kwargs)):
            OptimizerCfg(**kwargs)

    def test_accepts_boundary(self, schedule):
        schedule(0.1, 0.1)
        cfg = OptimizerCfg(restarts=1)
        res = discord._search(bell(1).to_density(), PART2, CmnParams(2, 1.0), cfg, both(PART2))
        assert res.evaluations >= 1


class TestDiscordValues:
    def test_bell_h2_p1(self, fast):
        res = global_discord_cmn(
            bell(1).to_density(), PART2, CmnParams(2, 1.0), fast
        )
        # S_2 before: six pairwise products of (1/2,1/2,1/2,1/2) = 3/2;
        # after any rank-1 product dephasing: (1/2)^2 = 1/4
        assert abs(res.value - 1.25) < 1e-6

    def test_classical_state_zero(self, fast):
        rho = classical_state((2, 2), (0.4, 0.1, 0.2, 0.3))
        res = global_discord_cmn(rho, PART2, CmnParams(2, 1.0), fast)
        assert abs(res.value) < 1e-6

    def test_maximally_mixed_zero(self, fast):
        res = global_discord_cmn(
            maximally_mixed((2, 2)), PART2, CmnParams(2, 1.0), fast
        )
        assert abs(res.value) < 1e-9

    def test_nonnegative_on_random_states(self, fast):
        for seed in range(5):
            rho = random_density((2, 2), 3, 400 + seed)
            res = global_discord_cmn(rho, PART2, CmnParams(2, 1.0), fast)
            assert res.value >= -1e-6

    def test_one_sided_vs_global_bell(self, fast):
        # a one-sided measurement already dephases the Bell state fully, so
        # the one-sided and global discord coincide here
        rho = bell(1).to_density()
        params = CmnParams(2, 1.0)
        a = bipartite_discord_cmn(rho, PART2, "a", params, fast)
        g = global_discord_cmn(rho, PART2, params, fast)
        assert abs(a.value - g.value) < 1e-6

    def test_closed_form_one_qubit_h1_p2(self):
        # Dakić-Vedral-Brukner: measuring qubit A removes tr K - λ_max(K),
        # K = T[1:,:] T[1:,:]ᵀ, from the squared Frobenius norm
        for dims in [(2, 2), (2, 3)]:
            for seed in range(5):
                rho = random_density(dims, int(np.prod(dims)), 500 + seed)
                t = matricize(build(rho), PART2)
                k = t[1:, :] @ t[1:, :].T
                oracle = np.trace(k) - np.linalg.eigvalsh(k).max()
                res = bipartite_discord_cmn(rho, PART2, "a", CmnParams(1, 2.0))
                assert abs(res.value - oracle) <= 1e-8

    def test_rounding_noise_gains_make_no_moves(self):
        # accepting every gain, restart 4 crawls through 14 689 moves, 13 542
        # of them by at most 1e-12 of its best, and the solve takes 53 001
        # evaluations; the value stays 1.2499999999999993 without them
        res = discord._search(bell(1).to_density(), PART2, CmnParams(2, 1.0),
                              OptimizerCfg(restarts=8, seed=1605328789), both(PART2))
        assert res.evaluations < 5000
        assert abs(res.value - 1.25) <= 1e-15

    def test_objective_calls_of_a_fixed_solve(self, monkeypatch):
        # the undisturbed spectrum, then the starting points and one call per
        # tick, on the stack of its 2×4 dephased matrices
        calls = []
        route = discord.singular_values
        monkeypatch.setattr(discord, "singular_values",
                            lambda m: calls.append(np.shape(m)) or route(m))
        a_bc = Bipartition.of((0,), 3)
        discord._search(ghz(3, 2).to_density(), a_bc, CmnParams(2, 1.0),
                        OptimizerCfg(restarts=8, seed=0), both(a_bc))
        # 53 ticks; scoring only the rest of each sweep took 76
        assert len(calls) == 55 and calls[0] == (4, 16)
        assert calls[1] == (8, 2, 4) and calls[2] == (8 * 12, 2, 4)

    def test_bell_full_minor_inf(self, fast):
        # every dephased spectrum has rank <= 2, so the h = 4 product of the
        # zero-padded spectrum vanishes and the whole (1/2)^4 is lost
        rho = bell(1).to_density()
        params = CmnParams(4, math.inf)
        assert abs(global_discord_cmn(rho, PART2, params, fast).value - 1 / 16) <= 1e-12
        assert abs(bipartite_discord_cmn(rho, PART2, "b", params, fast).value - 1 / 16) <= 1e-12

    def test_best_measurement_reproduces_value(self, fast):
        rho = random_density((2, 2), 3, 77)
        params = CmnParams(2, 1.0)
        res = global_discord_cmn(rho, PART2, params, fast)
        base = float(spectrum_power(singular_values(matricize(build(rho), PART2)), params)[0])
        after = measure_state(rho, res.best_measurement)
        m1 = matricize(build(after), PART2)
        after_power = float(spectrum_power(singular_values(m1), params)[0])
        assert abs(base - after_power - res.value) <= 1e-10
        same = measurement_from_angles((2, 2), res.best_angles)
        for a, b in zip(same.projectors, res.best_measurement.projectors):
            assert np.array_equal(a, b)
        assert res.restart_spread >= 0

    def test_per_restart_diagnostics(self, fast):
        rho = random_density((2, 2), 3, 77)
        params = CmnParams(2, 1.0)
        res = discord._search(rho, PART2, params, fast, both(PART2))
        assert len(res.restart_evaluations) == len(res.restart_values) == fast.restarts
        assert sum(res.restart_evaluations) == res.evaluations
        assert max(res.restart_values) - min(res.restart_values) == res.restart_spread
        base = spectrum_power(singular_values(matricize(build(rho), PART2)), params)[0]
        assert res.value == float(base - max(res.restart_values))

    def test_one_sided_measurement_keeps_the_other_party_computational(self, fast):
        comp = computational_measurement((2, 3)).projectors[1]
        for seed in range(3):
            rho = random_density((2, 3), 4, seed)
            res = bipartite_discord_cmn(rho, PART2, "a", CmnParams(2, 1.0), fast)
            measured = measurement_from_angles((2,), res.best_angles).projectors[0]
            assert np.array_equal(res.best_measurement.projectors[0], measured)
            assert np.array_equal(res.best_measurement.projectors[1], comp)

    def test_single_restart(self):
        res = discord._search(bell(1).to_density(), PART2, CmnParams(2, 1.0),
                              OptimizerCfg(restarts=1), both(PART2))
        assert res.restart_spread == 0.0
        assert not res.converged

    def test_side_validation(self, fast):
        with pytest.raises(ValueError):
            bipartite_discord_cmn(
                bell(1).to_density(), PART2, "c", CmnParams(2, 1.0), fast
            )

    def test_result_is_deterministic(self, fast):
        rho = random_density((2, 2), 3, 55)
        params = CmnParams(2, 1.0)
        r1 = global_discord_cmn(rho, PART2, params, fast)
        r2 = global_discord_cmn(rho, PART2, params, fast)
        assert r1.value == r2.value
        assert r1.evaluations == r2.evaluations

    def test_ghz_grid_crosscheck(self):
        # coarse grid over the six angles as an independent lower bound on
        # the maximum; the optimizer must do at least as well
        rho = ghz(3, 2).to_density()
        part = Bipartition.of((0,), 3)
        params = CmnParams(2, 1.0)
        m0 = matricize(build(rho), part)
        base = float(spectrum_power(singular_values(m0), params)[0])

        from cmnlab.discord import measurement_from_angles as mfa

        best = 0.0
        grid = np.linspace(0, math.pi, 4)
        for t0 in grid:
            for t1 in grid:
                for t2 in grid:
                    fam = mfa((2, 2, 2), [t0, 0, t1, 0, t2, 0])
                    after = measure_state(rho, fam)
                    m1 = matricize(build(after), part)
                    best = max(best, float(spectrum_power(singular_values(m1), params)[0]))
        res = global_discord_cmn(rho, part, params, OptimizerCfg(restarts=8))
        assert res.value <= base - best + 1e-6
        assert res.value >= -1e-6


# -- closed forms where a measured side is one qubit ----------------------------

def swapped(rho):
    """A two-party state with its parties in the other order."""
    d_a, d_b = rho.dims
    data = rho.data.reshape(d_a, d_b, d_a, d_b).transpose(1, 0, 3, 2)
    return DensityMatrix((d_b, d_a), data.reshape(rho.data.shape))


def measured_power_drop(rho, part, params, res, sides):
    """The undisturbed power less the power after ``res.best_measurement`` on
    the parties of the measured ``sides``, from the dephased density matrix."""
    def power(state):
        return float(spectrum_power(singular_values(matricize(build(state), part)), params)[0])
    return power(rho) - power(measure_state(rho, res.best_measurement, sum(sides, ())))


def assert_closed_form(rho, part, params, res, sides):
    assert res.method == "closed form"
    assert (res.evaluations, res.restart_evaluations, res.restart_values) == (0, (), ())
    assert res.restart_spread == 0.0 and res.converged
    assert len(res.best_angles) == n_angles(rho.dims[p] for s in sides for p in s)
    assert abs(measured_power_drop(rho, part, params, res, sides) - res.value) <= 1e-10


def assert_matches_search(rho, part, params, res, sides):
    # a closed form is exact and the search an upper bound, reached to its tolerance
    want = discord._search(rho, part, params, OptimizerCfg(restarts=32), sides)
    assert -CONVERGED_TOL <= res.value - want.value <= 1e-14


# (h, p) of the closed-form comparisons: h = 3 leaves a measured qubit's 2×n
# matrix nothing (F0), and h = 1 takes a closed form only at p = 2 and p = inf
CLOSED_PARAMS = [CmnParams(2, 1.0), CmnParams(2, math.inf), CmnParams(1, 2.0),
                 CmnParams(1, math.inf), CmnParams(2, 2.0), CmnParams(3, 1.0)]


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 4)])
@pytest.mark.parametrize("params", CLOSED_PARAMS, ids=str)
def test_one_sided_qubit_forms_match_the_search(dims, params):
    for seed in range(3):
        state = random_density(dims, 2, seed)
        for rho in (state, swapped(state)):
            for side in ("a", "b"):
                measured = PART2.side_a if side == "a" else PART2.side_b
                if rho.dims[measured[0]] != 2:  # a qudit side searches (h <= d)
                    continue
                res = bipartite_discord_cmn(rho, PART2, side, params)
                assert_closed_form(rho, PART2, params, res, (measured,))
                assert_matches_search(rho, PART2, params, res, (measured,))
                if (params.h, params.p) == (1, math.inf):
                    assert res.value == 0.0


@pytest.mark.parametrize("params", CLOSED_PARAMS, ids=str)
def test_two_qubit_global_forms_match_the_search(params):
    # h = 2 takes K's top singular pair and h = 3 the empty product; h = 1
    # searches, at p = 2 over B's angles alone
    for seed in range(3):
        rho = random_density((2, 2), 2, seed)
        res = global_discord_cmn(rho, PART2, params)
        if params.h == 1:
            assert res.method == "search" and res.evaluations > 0
            want = discord._search(rho, PART2, params, OptimizerCfg(), both(PART2))
            assert abs(res.value - want.value) <= CONVERGED_TOL
            continue
        assert_closed_form(rho, PART2, params, res, both(PART2))
        assert_matches_search(rho, PART2, params, res, both(PART2))


@pytest.mark.parametrize("dims,part", [((2, 3), PART2), ((2, 4), PART2), ((3, 3), PART2),
                                       ((2, 2, 2), Bipartition.of((0,), 3))])
def test_h_above_the_dephased_rank_loses_the_undisturbed_power(dims, part):
    # every dephased product holds a zero: the search's own value, bit for bit
    params = CmnParams(dims[0] + 1, 1.0)
    rho = random_density(dims, 3, 5)
    res = global_discord_cmn(rho, part, params)
    assert_closed_form(rho, part, params, res, both(part))
    assert res.best_angles == (0.0,) * n_angles(dims)
    want = discord._search(rho, part, params, OptimizerCfg(restarts=2), both(part))
    assert res.value == want.value


@pytest.mark.parametrize("dims,side,params", [
    ((2, 3), "a", CmnParams(2, 1.0)), ((2, 3), "a", CmnParams(1, 2.0)),
    ((2, 2), "b", CmnParams(2, math.inf)), ((2, 4), "a", CmnParams(2, 2.0)),
])
def test_one_sided_qubit_forms_match_a_degree_grid(dims, side, params):
    theta, phi = np.meshgrid(np.arange(181), np.arange(360), indexing="ij")
    grid = np.radians(np.stack([theta.ravel(), phi.ravel()], axis=1))
    for seed in range(2):
        rho = random_density(dims, 3, 40 + seed)
        t = build(rho)
        measured = PART2.side_a if side == "a" else PART2.side_b
        m = matricize(t, PART2)
        base = spectrum_power(singular_values(m), params)[0]
        best = spectrum_power(_dephased_spectra(dims, m, PART2, (measured,))(grid), params).max()
        res = bipartite_discord_cmn(rho, PART2, side, params)
        # the grid's best point lies within half a degree of the optimum
        assert 0 <= base - best - res.value <= 1e-4 * base


# the qubit-side search: A|BC and BC|A of three-qubit states, and (2,3)
QUBIT_SIDE_SOLVES = [
    pytest.param(state, part, id=f"{name}-{part.label()}")
    for name, state in [("ghz-3", ghz(3).to_density()), ("w-3", w_state(3).to_density()),
                        ("random-222", random_density((2, 2, 2), 3, 7))]
    for part in (Bipartition.of((0,), 3), Bipartition.of((1, 2), 3))
] + [pytest.param(random_density((2, 3), 3, 8), PART2, id="random-23-A|B")]


@pytest.mark.parametrize("rho,part", QUBIT_SIDE_SOLVES)
@pytest.mark.parametrize("params", [CmnParams(2, 1.0), CmnParams(2, math.inf), CmnParams(1, 2.0)],
                         ids=str)
def test_qubit_side_search_matches_the_full_search(rho, part, params):
    opt = OptimizerCfg(restarts=8)
    res = global_discord_cmn(rho, part, params, opt)
    assert res.method == "search" and res.evaluations > 0
    assert len(res.best_angles) == n_angles(rho.dims)
    assert sum(res.restart_evaluations) == res.evaluations
    base = spectrum_power(singular_values(matricize(build(rho), part)), params)[0]
    assert res.value == float(base - max(res.restart_values))
    assert abs(measured_power_drop(rho, part, params, res, both(part)) - res.value) <= 1e-10
    want = discord._search(rho, part, params, opt, both(part))
    assert abs(res.value - want.value) <= CONVERGED_TOL


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
@pytest.mark.parametrize("p", [0.1, 0.5, 1.0, math.inf])
def test_product_states_keep_the_search_clamp(dims, p):
    # a product state's cut matrix has rank 1, so after any measurement σ₂ is
    # rounding: SV_CLAMP zeroes it in the forms as in the search, where at
    # small p an unclamped (ε·σ₁²)ᵖ would make the discord visibly negative
    params, part = CmnParams(2, p), Bipartition.of((0,), len(dims))
    opt = OptimizerCfg(restarts=8)
    for seed in range(3):
        rho = random_fully_separable(dims, 1, seed)
        for sides in ((part.side_a,), both(part)):
            res = discord._discord(rho, part, params, opt, sides)
            want = discord._search(rho, part, params, opt, sides)
            assert res.value == want.value == 0.0


def test_qubit_side_search_matches_one_trial_per_tick_oracle(monkeypatch):
    solves = [lambda opt, part=Bipartition.of(side_a, 3): global_discord_cmn(
        ghz(3).to_density(), part, CmnParams(2, 1.0), opt) for side_a in ((0,), (1, 2))]
    opts = [OptimizerCfg(restarts=8, seed=seed) for seed in range(3)]
    got = [solve(opt) for solve in solves for opt in opts]
    monkeypatch.setattr(discord, "_lockstep_search", one_trial_lockstep_search)
    want = [solve(opt) for solve in solves for opt in opts]
    for res, ref in zip(got, want):
        assert res.value == ref.value and res.best_angles == ref.best_angles
        assert res.evaluations == ref.evaluations
        assert res.restart_evaluations == ref.restart_evaluations
        assert res.restart_values == ref.restart_values


def test_benchmark_solves_take_their_forms():
    # four of the discord workload's five solve types are exact with no trial,
    # at most 1e-14 above and CONVERGED_TOL below each pinned search value
    h2p1, h1p2 = CmnParams(2, 1.0), CmnParams(1, 2.0)
    cc = classical_state((2, 2), (0.4, 0.1, 0.2, 0.3))
    for name, rho, params, sides in [
            ("bell-global", bell(1).to_density(), h2p1, both(PART2)),
            ("classical-cc-global", cc, h2p1, both(PART2)),
            ("random-22-seed22-side-a", random_density((2, 2), 4, 22), h1p2, (PART2.side_a,)),
            ("random-23-seed23-side-a", random_density((2, 3), 6, 23), h1p2, (PART2.side_a,))]:
        res = discord._discord(rho, PART2, params, OptimizerCfg(restarts=8), sides)
        assert_closed_form(rho, PART2, params, res, sides)
        for _, value in BENCH_SOLVE_PINS[name]:
            assert -CONVERGED_TOL <= res.value - value <= 1e-14
    res = global_discord_cmn(ghz(3).to_density(), Bipartition.of((0,), 3), h2p1,
                             OptimizerCfg(restarts=8))
    assert res.method == "search" and 0 < res.evaluations
    assert abs(res.value - 1.25) <= 1e-14


# solves that measure no qubit side, which _discord hands to the full search:
# (state, cut, the measured side or None for both, restarts)
NO_QUBIT_SIDE_SOLVES = [
    pytest.param(random_density((3, 3), 9, 33), PART2, None, 2, id="random-33-global"),
    pytest.param(random_density((2, 3), 6, 23), PART2, "b", 2, id="random-23-side-b"),
    pytest.param(random_density((2, 2, 2), 8, 7), Bipartition.of((0,), 3), "b", 8,
                 id="random-222-A|BC-side-b"),
]


@pytest.mark.parametrize("rho,part,side,restarts", NO_QUBIT_SIDE_SOLVES)
def test_solves_without_a_measured_qubit_side_take_the_search(rho, part, side, restarts):
    params, opt = CmnParams(2, 1.0), OptimizerCfg(restarts=restarts)
    if side is None:
        res, sides = global_discord_cmn(rho, part, params, opt), both(part)
    else:
        res = bipartite_discord_cmn(rho, part, side, params, opt)
        sides = (part.side_a if side == "a" else part.side_b,)
    assert res.method == "search"
    want = discord._search(rho, part, params, opt, sides)
    for name in ("value", "best_angles", "evaluations", "restart_evaluations", "restart_values"):
        assert getattr(res, name) == getattr(want, name)
    assert abs(measured_power_drop(rho, part, params, res, sides) - res.value) <= 1e-12


def test_each_solve_cuts_its_matrix_once(monkeypatch):
    # a closed form (Bell's K form), the qubit-side search (GHZ-3 across A|BC)
    # and the full search (side BC of a (2,2,2) state) dephase the one
    # matricization that gives the solve its undisturbed power
    cut, calls = discord.matricize, []
    monkeypatch.setattr(discord, "matricize", lambda t, part: calls.append(part) or cut(t, part))
    h2p1, a_bc, opt = CmnParams(2, 1.0), Bipartition.of((0,), 3), OptimizerCfg(restarts=2)
    rho222 = random_density((2, 2, 2), 8, 7)
    for solve, method in [
            (lambda: global_discord_cmn(bell(1).to_density(), PART2, h2p1, opt), "closed form"),
            (lambda: global_discord_cmn(ghz(3).to_density(), a_bc, h2p1, opt), "search"),
            (lambda: bipartite_discord_cmn(rho222, a_bc, "b", h2p1, opt), "search")]:
        calls.clear()
        assert solve().method == method
        assert len(calls) == 1


def _nan_pair_stack():
    """The computational qubit basis with a NaN pair off the first
    projector's diagonal: every other entry is that of a projector."""
    stack = computational_measurement((2,)).projectors[0].copy()
    stack[0, 0, 1] = stack[0, 1, 0] = np.nan
    return stack


def _rank_two_first_stack():
    """Three 3×3 matrices summing to 1: the first Hermitian and idempotent
    but of rank 2, the other two not Hermitian."""
    n = np.zeros((3, 3))
    n[0, 1] = 1.0
    return np.stack([np.diag([1.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0]) + n, -n]).astype(complex)


@pytest.mark.parametrize("stack, message", [
    (np.full((2, 2, 2), np.nan, dtype=complex), "identity"),
    (_nan_pair_stack(), "identity"),
    # the first projector that fails a test names its first failed test
    (_rank_two_first_stack(), "rank-1"),
])
def test_non_finite_and_first_failing_projectors(stack, message):
    with pytest.raises(ValueError, match=message):
        MeasurementFamily((len(stack),), (stack,))


def family_error_oracle(stack):
    """MeasurementFamily's verdict on one party's stack, one projector at a
    time: the message of the first failed test, or None."""
    tol = discord.PROJECTOR_TOL
    if not np.abs(stack.sum(axis=0) - np.eye(len(stack))).max() <= tol:
        return "projectors do not sum to the identity"
    for p in stack:
        for name, residual in [("Hermitian", np.abs(p - p.conj().T).max()),
                               ("idempotent", np.abs(p @ p - p).max()),
                               ("rank-1", abs(np.trace(p).real - 1))]:
            if not residual <= tol:
                return f"projector is not {name}"
    return None


@pytest.mark.parametrize("seed", range(32))
def test_family_checks_match_the_one_projector_oracle(seed):
    # a qutrit basis with E added to one projector and taken from another, so
    # that the sum stays 1: E is anti-Hermitian, Hermitian or a multiple of a
    # projector (which moves the trace), at sizes around the tolerance
    rng = np.random.default_rng(seed)
    stack = measurement_from_angles((3,), rng.uniform(0, 2 * np.pi, 6)).projectors[0].copy()
    for _ in range(rng.integers(1, 3)):
        i, j = rng.choice(3, size=2, replace=False)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        e = [g - g.conj().T, g + g.conj().T, stack[i]][rng.integers(3)]
        e = e * 10.0 ** rng.uniform(-12, -8) / np.abs(e).max()
        stack[i] += e
        stack[j] -= e
    want = family_error_oracle(stack)
    if want is None:
        MeasurementFamily((3,), (stack,))
    else:
        with pytest.raises(ValueError) as err:
            MeasurementFamily((3,), (stack,))
        assert str(err.value) == want


@pytest.mark.parametrize("angles", [[math.nan, 0.0], [0.3, math.inf]])
def test_non_finite_angles_build_no_family(angles):
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="identity"):
        measurement_from_angles((2,), angles)


def test_no_solve_builds_its_witness_until_it_is_read(monkeypatch, capsys):
    from cmnlab import cli

    built = []

    def counted(dims, angles):
        built.append(dims)
        return measurement_from_angles(dims, angles)

    monkeypatch.setattr(discord, "measurement_from_angles", counted)
    h2p1, h1p2, opt = CmnParams(2, 1.0), CmnParams(1, 2.0), OptimizerCfg(restarts=2)
    rho23, ghz3 = random_density((2, 3), 6, 23), ghz(3).to_density()
    # (result, its method, the measured parties)
    solves = [
        (global_discord_cmn(bell(1).to_density(), PART2, h2p1, opt), "closed form", (0, 1)),
        (bipartite_discord_cmn(rho23, PART2, "a", h1p2, opt), "closed form", (0,)),
        (global_discord_cmn(ghz3, Bipartition.of((0,), 3), h2p1, opt), "search", (0, 1, 2)),
        (discord._search(rho23, PART2, h2p1, opt, both(PART2)), "search", (0, 1)),
    ]
    assert cli.main(["discord", "zoo:bell-phi-plus", "--restarts", "2"]) == cli.EXIT_OK
    capsys.readouterr()
    assert built == []
    for res, method, measured in solves:
        assert res.method == method
        family = res.best_measurement
        assert res.best_measurement is family and built == [family.dims]
        built.clear()
        # the measured parties' angles, 0 on the others: those are computational
        angles = np.zeros(n_angles(family.dims))
        angles[discord._columns(family.dims, measured)] = res.best_angles
        want = measurement_from_angles(family.dims, angles)
        assert all(np.array_equal(a, b) for a, b in zip(family.projectors, want.projectors))
        for p in set(range(len(family.dims))) - set(measured):
            d = family.dims[p]
            assert np.array_equal(family.projectors[p], np.eye(d)[:, :, None] * np.eye(d))
