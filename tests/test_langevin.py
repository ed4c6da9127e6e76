import json
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, optimize, stats

from infothermo import langevin
from infothermo.langevin import (
    EnsembleParams,
    PotentialSpec,
    ProtocolSchedule,
    SingleWellError,
    UnstableTimestepError,
    _fill_noise,
    _sample_initial_positions,
    basin_free_energies,
    erasure_protocol_schedule,
    jarzynski_check,
    reset_free_energy,
    schedule_from_json,
    simulate_erasure,
    symmetric_double_well,
    tune_tilt_for_ratio,
)

LN2 = np.log(2.0)


def frozen_schedule(pot: PotentialSpec, duration: float) -> ProtocolSchedule:
    """The potential held fixed for the whole duration."""
    lam = np.array(pot.coefficients)
    return ProtocolSchedule(duration, np.array([0.0, duration]), np.vstack([lam, lam]))


def quad_basin_weights(pot: PotentialSpec) -> tuple:
    """Oracle: Z_left, Z_right and their error estimates by adaptive quadrature."""
    top = pot.barrier_top()

    def density(x):
        return np.exp(-pot.value(x))

    z_left, err_left = integrate.quad(density, pot.x_min, top, epsrel=1e-10, limit=200)
    z_right, err_right = integrate.quad(density, top, pot.x_max, epsrel=1e-10, limit=200)
    return (z_left, err_left), (z_right, err_right)


def harmonic_basin_free_energy(pot: PotentialSpec, temperature: float,
                               basin: str) -> float:
    """Gaussian (deep-well) approximation -T ln sqrt(2 pi T / V'') + V(x_min)."""
    top = pot.barrier_top()
    points = pot.critical_points()
    minima = points[points != top]
    x0 = minima[minima < top][0] if basin == "left" else minima[minima > top][-1]
    curv = 12.0 * pot.coefficients[0] * x0 * x0 - 2.0 * pot.coefficients[1]
    return float(pot.value(x0) - temperature * np.log(np.sqrt(2.0 * np.pi * temperature / curv)))


def equilibrium_positions(pot: PotentialSpec, temperature: float, n_traj: int,
                          seed: int, duration: float = 5.0,
                          dt: float = 1e-3) -> np.ndarray:
    """Independent equilibrium samples: frozen protocol, one sample per trajectory."""
    eq = basin_free_energies(pot, temperature)
    params = EnsembleParams(
        n_traj=n_traj, seed=seed, dt=dt, temperature=temperature,
        initial_weights=(eq.p_eq_left, 1.0 - eq.p_eq_left))
    ensemble = simulate_erasure(pot, frozen_schedule(pot, duration), params)
    return ensemble.final_positions


def box_muller_noise(gen, n_steps: int, width: int, kick: np.float32) -> np.ndarray:
    """A chunk's kicks for all steps from one draw of (n_steps, 2, h) uniforms."""
    h = -(-width // 2)
    u = gen.random((n_steps, 2, h), dtype=np.float32)
    r = np.sqrt(np.float32(-2.0) * kick * kick * np.log(np.float32(1.0) - u[:, 0]))
    theta = np.float32(2.0 * np.pi) * u[:, 1]
    return np.hstack([r * np.cos(theta), (r * np.sin(theta))[:, :width - h]])


class EagerPool:
    """Stand-in for the kernel's one-thread pool, run on the calling thread.

    The eager pool runs each fill inside `submit`, so the fill thread takes
    every chunk; the lazy one runs it only when its result is read, after
    the main thread has taken every chunk.  A fill submitted while an
    earlier one is not yet joined fails the run.
    """

    eager = True

    def __init__(self, max_workers):
        assert max_workers == 1
        self.unjoined = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        assert self.unjoined == 0, "a fill started before the last one was joined"
        self.unjoined += 1
        if self.eager:
            fn(*args)
        return SerialFuture(self, None if self.eager else lambda: fn(*args))


class LazyPool(EagerPool):
    eager = False


class SerialFuture:
    def __init__(self, pool, deferred):
        self.pool = pool
        self.deferred = deferred

    def result(self):
        self.pool.unjoined -= 1
        if self.deferred is not None:
            self.deferred()


def assert_matches_stepwise_reference(n_traj: int, n_steps: int = 1500):
    """The blocked, threaded kernel against a plain Euler-Maruyama loop in
    the same arithmetic order, with each chunk's noise built by Box-Muller
    from its documented stream.

    The kernel runs on its own pool and on the eager pool, which
    fills block i + 1 before block i is stepped: a fill into the buffer
    being stepped, or one started before the last join, then fails for
    certain rather than by the luck of a race.
    """
    pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
    params = EnsembleParams(n_traj=n_traj, seed=5, dt=1e-3)
    sched = erasure_protocol_schedule(pot, n_steps * params.dt)
    assert round(sched.duration / params.dt) == n_steps
    runs = [simulate_erasure(pot, sched, params)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(langevin, "ThreadPoolExecutor", EagerPool)
        runs.append(simulate_erasure(pot, sched, params))

    widths = [128, n_traj - 128]
    lam = sched.coefficients_at(np.arange(n_steps + 1) * params.dt)
    seqs = [np.random.SeedSequence(params.seed, spawn_key=(k,)) for k in (0, 1)]
    gens = [np.random.Generator(np.random.SFC64(s)) for s in seqs]
    x = _sample_initial_positions(pot, 1.0, params.initial_weights, gens, n_traj)
    kick = np.float32(np.sqrt(2.0 * params.dt))
    noise = np.hstack([box_muller_noise(g, n_steps, w, kick) for g, w in zip(gens, widths)])
    works = np.zeros(n_traj)
    for j in range(n_steps):
        a, b, c = lam[j]
        x = (x * (1.0 + 2.0 * b * params.dt) + x * x * x * (-4.0 * a * params.dt)
             - c * params.dt + noise[j])
        x = np.clip(x, pot.x_min, pot.x_max)
        da, db, dc = lam[j + 1] - lam[j]
        works = works + (x * x) * (x * x) * da + (x * x) * -db + x * dc
    words = [s.generate_state(1, np.uint64)[0] for s in seqs]
    for ens in runs:
        assert np.array_equal(ens.final_positions, x)
        assert np.array_equal(ens.works, works)
        assert np.array_equal(ens.trajectory_seeds, np.repeat(words, widths))


class TestPotential:
    def test_rejects_nonpositive_quartic(self):
        with pytest.raises(ValueError):
            PotentialSpec((0.0, 1.0, 0.0))

    def test_barrier_height_symmetric(self):
        pot = symmetric_double_well(1.0, 6.5)
        # closed form b^2 / 4a for the untilted quartic
        assert pot.barrier_height() == pytest.approx(6.5 ** 2 / 4.0, abs=1e-9)
        assert pot.barrier_top() == pytest.approx(0.0, abs=1e-12)

    def test_single_well_rejected(self):
        pot = PotentialSpec((1.0, -1.0, 0.0))
        with pytest.raises(SingleWellError):
            pot.barrier_top()
        with pytest.raises(SingleWellError):
            basin_free_energies(pot, 1.0)

    def test_low_barrier_rejected(self):
        pot = symmetric_double_well(1.0, 2.0)  # barrier 1.0 << 8 T
        with pytest.raises(ValueError, match="barrier"):
            basin_free_energies(pot, 1.0)


class TestBasinFreeEnergies:
    def test_symmetric(self):
        r = basin_free_energies(symmetric_double_well(), 1.0)
        assert r.f_left == pytest.approx(r.f_right, abs=1e-10)
        assert r.delta_f == pytest.approx(0.0, abs=1e-10)
        assert r.p_eq_left == pytest.approx(0.5, abs=1e-10)

    def test_tuned_ratio_four(self):
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0, 1.0)
        r = basin_free_energies(pot, 1.0)
        assert r.p_eq_left == pytest.approx(0.8, abs=1e-9)
        assert r.delta_f == pytest.approx(0.5 * np.log(4.0), abs=1e-8)

    def test_quadrature_against_trapezoid(self):
        pot = tune_tilt_for_ratio(1.0, 6.5, 2.5, 1.0)
        r = basin_free_energies(pot, 1.0)
        xs = np.linspace(pot.x_min, r.barrier_top, 20001)
        z_left = np.trapezoid(np.exp(-pot.value(xs)), xs)
        assert np.exp(-r.f_left) == pytest.approx(z_left, rel=1e-6)

    def test_deep_well_matches_harmonic(self):
        pot = PotentialSpec((4.0, 40.0, 0.0))
        r = basin_free_energies(pot, 1.0)
        approx = harmonic_basin_free_energy(pot, 1.0, "left")
        assert abs(r.f_left - approx) / abs(approx) < 0.02

    @pytest.mark.parametrize("a, b", [(1e12, 1e7), (1e14, 2e8)])
    def test_narrow_deep_well_matches_harmonic(self, a, b):
        # wells of width ~1e-4 in a domain of width 5.7: adaptive quadrature
        # over the whole basin misses them and returns Z = 0
        pot = PotentialSpec((a, b, 0.0))
        r = basin_free_energies(pot, 1.0)
        assert np.isfinite([r.f_left, r.f_right, r.p_eq_left]).all()
        for basin, f in (("left", r.f_left), ("right", r.f_right)):
            approx = harmonic_basin_free_energy(pot, 1.0, basin)
            assert abs(f - approx) / abs(approx) < 0.02

    @pytest.mark.parametrize("a, b", [(1.0, 6.5), (1.0, 12.0), (4.0, 40.0),
                                      (1e4, 1e3), (1e6, 1e4), (1e8, 1e5)])
    def test_matches_quad_oracle(self, a, b):
        # Z_k to 1e-12 relative wherever quad reports an error below 1e-10 Z_k
        compared = 0
        for c in np.linspace(-1.5, 1.5, 13):
            pot = PotentialSpec((a, b, c))
            r = basin_free_energies(pot, 1.0, barrier_factor=0.0)
            for (z, err), f in zip(quad_basin_weights(pot), (r.f_left, r.f_right)):
                if err < 1e-10 * z:
                    assert abs(np.expm1(-f - np.log(z))) <= 1e-12
                    compared += 1
        assert compared > 0

    @pytest.mark.parametrize("ratio", [0.25, 2.0, 4.0])
    def test_tune_matches_brentq_oracle(self, ratio):
        def log_ratio(c):
            (z_left, _), (z_right, _) = quad_basin_weights(PotentialSpec((1.0, 6.5, c)))
            return np.log(z_left / z_right) - np.log(ratio)

        c_star = optimize.brentq(log_ratio, -2.0, 2.0, xtol=1e-12)
        tuned = tune_tilt_for_ratio(1.0, 6.5, ratio)
        assert abs(tuned.coefficients[2] - c_star) <= 1e-11

    def test_coarse_rule_fails_cross_check(self, monkeypatch):
        # a 4-node rule cannot resolve a basin on 4 or 8 panels: the two
        # panel counts disagree and the cross-check raises
        monkeypatch.setattr(langevin, "_GAUSS_LEGENDRE", leggauss(4))
        with pytest.raises(ArithmeticError, match="4-panel"):
            basin_free_energies(symmetric_double_well(), 1.0)

    @pytest.mark.parametrize("ratio", [0.0, -1.0, np.inf, np.nan])
    def test_tune_rejects_ratio_before_search(self, ratio):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="ratio must be positive and finite"):
                tune_tilt_for_ratio(1.0, 6.5, ratio)

    def test_reset_free_energy_symmetric(self):
        eq = basin_free_energies(symmetric_double_well())
        assert reset_free_energy(eq) == pytest.approx(LN2, abs=1e-9)


class TestSchedule:
    def test_json_round_trip(self):
        sched = erasure_protocol_schedule(symmetric_double_well(), 12.0)
        back = schedule_from_json(json.loads(json.dumps(sched.to_json())))
        assert back.duration == sched.duration
        assert np.allclose(back.knots, sched.knots)
        assert np.allclose(back.times, sched.times)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            schedule_from_json({"duration": 1.0})

    def test_endpoints_restore_potential(self):
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0, 1.0)
        sched = erasure_protocol_schedule(pot, 10.0)
        assert np.allclose(sched.knots[0], pot.coefficients)
        assert np.allclose(sched.knots[-1], pot.coefficients)


class TestEnsembleParams:
    @pytest.mark.parametrize("temperature", [-1.0, 0.0, np.nan])
    def test_rejects_nonpositive_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            EnsembleParams(n_traj=8, seed=0, temperature=temperature)


class TestSimulation:
    def test_frozen_protocol_zero_work(self):
        pot = symmetric_double_well()
        ens = simulate_erasure(pot, frozen_schedule(pot, 0.5),
                               EnsembleParams(n_traj=64, seed=3, dt=1e-3))
        assert np.array_equal(ens.works, np.zeros(64))

    def test_deterministic_work_vector(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 2.0)
        a = simulate_erasure(pot, sched, EnsembleParams(n_traj=128, seed=11, dt=1e-3))
        b = simulate_erasure(pot, sched, EnsembleParams(n_traj=128, seed=11, dt=1e-3))
        assert np.array_equal(a.works, b.works)
        assert np.array_equal(a.final_positions, b.final_positions)

    def test_matches_stepwise_reference(self):
        # 1500 steps end in a partial block, 130 trajectories in a partial
        # chunk of even width
        assert_matches_stepwise_reference(130)

    def test_matches_stepwise_reference_odd_partial_chunk(self):
        # a partial chunk of width 3: two cosine columns, one sine column
        assert_matches_stepwise_reference(131)

    @pytest.mark.parametrize("n_steps", [1, 511, 512, 513, 1024])
    def test_matches_stepwise_reference_at_block_edges(self, n_steps):
        # one step, one short of a 512-step noise block, one block, one
        # past it, and two blocks that reuse the first block's buffer
        assert_matches_stepwise_reference(130, n_steps)

    def test_chunk_independent_of_ensemble_size_and_threads(self):
        # 128 trajectories are one chunk; 300 are three, shared between the
        # fill thread and the main thread; chunk 0 must come out the same
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        sched = erasure_protocol_schedule(pot, 1.5)
        one = simulate_erasure(pot, sched, EnsembleParams(n_traj=128, seed=13))
        three = simulate_erasure(pot, sched, EnsembleParams(n_traj=300, seed=13))
        assert np.array_equal(one.works, three.works[:128])
        assert np.array_equal(one.final_positions, three.final_positions[:128])
        assert np.array_equal(one.trajectory_seeds, three.trajectory_seeds[:128])

    def test_fill_independent_of_thread_count_and_switching(self, monkeypatch):
        # the fill thread taking every chunk, the main thread taking every
        # chunk, and the two racing under a very short switch interval must
        # not change a bit: each chunk's stream writes only its own columns
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 1.1)    # blocks of 512, 512, 76
        params = EnsembleParams(n_traj=700, seed=17)   # six chunks
        base = simulate_erasure(pot, sched, params)
        runs = []
        for pool in (EagerPool, LazyPool):
            monkeypatch.setattr(langevin, "ThreadPoolExecutor", pool)
            runs.append(simulate_erasure(pot, sched, params))
        monkeypatch.undo()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs.append(simulate_erasure(pot, sched, params))
        finally:
            sys.setswitchinterval(interval)
        for run in runs:
            assert np.array_equal(base.works, run.works)
            assert np.array_equal(base.final_positions, run.final_positions)

    def test_no_thread_outlives_a_run(self, monkeypatch):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 1.6)    # four noise blocks
        params = EnsembleParams(n_traj=300, seed=19)
        before = threading.active_count()
        simulate_erasure(pot, sched, params)
        assert threading.active_count() == before

        # the second check runs after block 1 is joined and block 2's fill
        # has started, so the error leaves a fill in flight
        calls = []

        def fail_on_second_call(x, traj_seeds):
            calls.append(x)
            if len(calls) == 2:
                raise FloatingPointError("injected divergence")

        monkeypatch.setattr(langevin, "_check_finite", fail_on_second_call)
        with pytest.raises(FloatingPointError, match="injected divergence"):
            simulate_erasure(pot, sched, params)
        assert len(calls) == 2
        assert threading.active_count() == before

    def test_seed_changes_results(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 2.0)
        a = simulate_erasure(pot, sched, EnsembleParams(n_traj=64, seed=1, dt=1e-3))
        b = simulate_erasure(pot, sched, EnsembleParams(n_traj=64, seed=2, dt=1e-3))
        assert not np.array_equal(a.works, b.works)

    def test_unstable_dt_rejected(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 2.0)
        with pytest.raises(UnstableTimestepError):
            simulate_erasure(pot, sched, EnsembleParams(n_traj=8, seed=0, dt=5e-2))

    def test_unbarriered_endpoint_rejected(self):
        pot = symmetric_double_well()
        sched = frozen_schedule(PotentialSpec((1.0, 2.0, 0.0)), 1.0)
        with pytest.raises(ValueError, match="barrier"):
            simulate_erasure(pot, sched, EnsembleParams(n_traj=8, seed=0, dt=1e-3))

    def test_erasure_succeeds(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 20.0)
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=500, seed=21, dt=1e-3))
        assert ens.success_fraction >= 0.99

    def test_work_monotone_in_protocol_speed(self):
        pot = symmetric_double_well()
        means = []
        errs = []
        for tau in (4.0, 16.0, 64.0):
            sched = erasure_protocol_schedule(pot, tau)
            ens = simulate_erasure(pot, sched,
                                   EnsembleParams(n_traj=400, seed=31, dt=1e-3))
            means.append(ens.mean_work)
            errs.append(ens.stderr)
        assert means[0] >= means[1] - 3 * (errs[0] + errs[1])
        assert means[1] >= means[2] - 3 * (errs[1] + errs[2])

    def test_generalized_landauer_at_trajectory_level(self):
        # completed erasure pays at least T H - dF within sampling error
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0, 1.0)
        sched = erasure_protocol_schedule(pot, 30.0)
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=500, seed=41, dt=1e-3))
        assert ens.success_fraction >= 0.99
        bound = LN2 - basin_free_energies(pot, 1.0).delta_f
        assert ens.mean_work >= bound - 3 * ens.stderr


class TestNoiseFill:
    """The Box-Muller fill at kick 1: a standard normal law, pairwise."""

    @staticmethod
    def fill(generators, n_traj, count=1024):
        noise = np.full((count, n_traj), np.nan, dtype=np.float32)
        _fill_noise(noise, generators, iter(range(len(generators))), count,
                    np.float32(1.0))
        return noise

    def test_standard_normal_with_uncorrelated_pairs(self):
        gens = [np.random.Generator(np.random.SFC64(s))
                for s in np.random.SeedSequence(91).spawn(2)]
        noise = self.fill(gens, 256).astype(float)
        assert np.isfinite(noise).all()
        assert np.abs(noise).max() <= np.sqrt(48.0 * np.log(2.0))
        values = noise.ravel()
        assert stats.kstest(values, "norm").pvalue > 0.01
        # variance of a sample variance of n unit normals: 2 / n
        assert abs(values.var() - 1.0) < 4.0 * np.sqrt(2.0 / values.size)
        # column c carries r cos(theta), column c + 64 r sin(theta) of one pair
        chunks = noise.reshape(-1, 2, 2, 64)
        cos_half = chunks[:, :, 0].ravel()
        sin_half = chunks[:, :, 1].ravel()
        limit = 4.0 / np.sqrt(cos_half.size)
        assert abs(np.corrcoef(cos_half, sin_half)[0, 1]) < limit
        assert abs(np.corrcoef(cos_half ** 2, sin_half ** 2)[0, 1]) < limit

    def test_zero_uniforms_give_finite_noise(self):
        # u = 0 is a possible float32 uniform; 1 - u keeps the log finite
        class ZeroUniforms:
            def random(self, dtype, out):
                out[...] = 0.0

        noise = self.fill([ZeroUniforms(), ZeroUniforms()], 131, count=3)
        assert np.isfinite(noise).all()


class TestJarzynski:
    def test_frozen_protocol_trivially_zero(self):
        pot = symmetric_double_well()
        ens = simulate_erasure(pot, frozen_schedule(pot, 0.2),
                               EnsembleParams(n_traj=64, seed=5, dt=1e-3))
        report = jarzynski_check(ens, 0.0)
        assert report.estimator == 0.0
        assert not report.flagged

    def test_fast_erasure_matches_reset_free_energy(self):
        # the sampled exponential average recovers the quadrature reset cost
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 8.0)
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=3000, seed=51, dt=1e-3))
        report = jarzynski_check(ens, reset_free_energy(basin_free_energies(pot)))
        assert abs(report.z_score) <= 3.0

    def test_second_law_at_ensemble_level(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 60.0)
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=400, seed=61, dt=1e-3))
        assert ens.mean_work >= 0.0 - 3 * ens.stderr  # endpoint dF = 0

    def test_bootstrap_deterministic(self):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 4.0)
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=256, seed=71, dt=1e-3))
        r1 = jarzynski_check(ens, 0.0)
        r2 = jarzynski_check(ens, 0.0)
        assert r1 == r2

    def test_rare_event_domination_warns_not_fails(self):
        from infothermo.langevin import TrajectoryEnsemble

        works = np.zeros(100)
        works[0] = -30.0  # one trajectory carries nearly all the weight
        ens = TrajectoryEnsemble(
            params=EnsembleParams(n_traj=100, seed=1),
            works=works,
            final_positions=np.zeros(100),
            final_basins=np.zeros(100, dtype=int),
            trajectory_seeds=np.zeros(100, dtype=np.uint64),
        )
        report = jarzynski_check(ens, 0.0)
        assert report.low_ess_warning
        assert report.effective_sample_size < 10


class TestEquilibriumSampling:
    def test_histogram_matches_boltzmann(self):
        # independent end-points of frozen-protocol trajectories vs e^{-V}/Z,
        # chi-square over 50 equal-probability bins
        pot = symmetric_double_well()
        temperature = 1.0
        n = 4000
        xs = equilibrium_positions(pot, temperature, n, seed=81, duration=3.0, dt=1e-3)

        grid = np.linspace(pot.x_min, pot.x_max, 4001)
        density = np.exp(-pot.value(grid) / temperature)
        cdf = np.concatenate([[0.0], integrate.cumulative_trapezoid(density, grid)])
        cdf /= cdf[-1]
        # invert the cdf at 50 uniform quantiles for equal-probability bins
        edges = np.interp(np.linspace(0.0, 1.0, 51), cdf, grid)
        counts, _ = np.histogram(xs, bins=edges)
        assert counts.sum() == n
        _, p_value = stats.chisquare(counts)
        assert p_value > 0.01

    def test_initial_sampler_matches_boltzmann_per_basin(self):
        # the chunked rejection sampler: basin counts against the requested
        # weights, positions in each basin against e^{-V}/Z_basin by
        # chi-square over 20 equal-probability bins
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        weights = (0.3, 0.7)
        n = 20_000
        gens = [np.random.Generator(np.random.SFC64(s))
                for s in np.random.SeedSequence(83).spawn(-(-n // 128))]
        xs = _sample_initial_positions(pot, 1.0, weights, gens, n)
        top = pot.barrier_top()
        left = xs < top
        assert stats.binomtest(int(left.sum()), n, weights[0]).pvalue > 0.01
        for sample, lo, hi in ((xs[left], pot.x_min, top), (xs[~left], top, pot.x_max)):
            grid = np.linspace(lo, hi, 4001)
            density = np.exp(-pot.value(grid))
            cdf = np.concatenate([[0.0], integrate.cumulative_trapezoid(density, grid)])
            cdf /= cdf[-1]
            edges = np.interp(np.linspace(0.0, 1.0, 21), cdf, grid)
            counts, _ = np.histogram(sample, bins=edges)
            assert counts.sum() == sample.size
            _, p_value = stats.chisquare(counts)
            assert p_value > 0.01
