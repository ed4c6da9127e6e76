import contextlib
import errno
import hashlib
import itertools
import json
import os
import re
import signal
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate, linalg, optimize, special, stats

from infothermo import langevin
from infothermo.cli import main
from infothermo.langevin import (
    EnsembleParams,
    PotentialSpec,
    ProtocolSchedule,
    SingleWellError,
    UnstableTimestepError,
    _block_plan,
    _draw_block,
    _expand_tile,
    _kick_table,
    _may_leave_domain,
    _sample_initial_positions,
    basin_free_energies,
    check_timestep,
    erasure_protocol_schedule,
    jarzynski_check,
    reset_free_energy,
    schedule_from_json,
    simulate_erasure,
    symmetric_double_well,
    tune_tilt_for_ratio,
)
from infothermo.measurement import shannon_entropy
from infothermo.memory import free_energy_change

from builders import schedule_to_json

LN2 = np.log(2.0)


def frozen_schedule(pot: PotentialSpec, duration: float) -> ProtocolSchedule:
    """The potential held fixed for the whole duration."""
    lam = np.array(pot.coefficients)
    return ProtocolSchedule(duration, np.array([0.0, duration]), np.vstack([lam, lam]))


def segment_rates(schedule: ProtocolSchedule, dt: float) -> list:
    """Each segment's work rates per step, built as `simulate_erasure` does."""
    return (np.diff(schedule.knots, axis=0) / np.diff(schedule.times)[:, None]
            * dt * [1.0, -1.0, 1.0]).tolist()


def tile_edge_schedule() -> ProtocolSchedule:
    """An 800-step schedule at dt = 1e-3 whose segments meet the 128-row
    tiles of 129 to 256 trajectories and the 512-step noise blocks: knots
    on the step grid at steps 127, 128 (a tile edge) and 129, a knot inside
    step 256 (the first row of a tile), and a segment from step 257 to 699
    across the tile edge at 384, the block edge at 512 and the tile edge at
    640; a, b and c all vary."""
    knots = ((0.0, [1.0, 6.5, 0.0]), (127 * 1e-3, [0.9, 6.0, 0.3]),
             (128 * 1e-3, [0.9, 5.8, 0.2]), (129 * 1e-3, [0.85, 5.5, 0.25]),
             (0.2565, [0.9, 5.0, -0.2]), (700 * 1e-3, [0.95, 6.0, 0.1]),
             (0.8, [1.0, 6.5, 0.0]))
    return schedule_from_json({"duration": 0.8, "knots": [
        {"time": t, "coefficients": k} for t, k in knots]})


def flagged_steps(schedule: ProtocolSchedule, params: EnsembleParams) -> int:
    """Steps of a `simulate_erasure` run in the runs that the kernel's own
    `_block_plan` guards, block by block, with the kernel's kick and domain
    end."""
    n_steps = round(schedule.duration / params.dt)
    kick = np.float32(np.sqrt(2.0 * params.temperature * params.dt))
    rates = segment_rates(schedule, params.dt)
    block = langevin._NOISE_BLOCK
    flagged = 0
    for j in range(0, n_steps, block):
        _, runs = _block_plan(schedule, rates, j, min(block, n_steps - j), params.dt,
                              kick, PotentialSpec.x_max, block)
        flagged += sum(stop - start for start, stop, *_, guarded in runs if guarded)
    return flagged


def flag_cuts(schedule: ProtocolSchedule, runs: list, j: int, count: int, dt: float,
              kick: np.float32, height: int) -> list:
    """Assert that each run's flags equal every one of its steps' own, from
    the step's c dt and `_may_leave_domain`, and that a run which follows
    one of the same rates inside a tile differs from it in a flag; return
    the steps where such runs start."""
    lam = schedule.coefficients_at((j + np.arange(count + 1)) * dt)[:-1]
    own = list(zip((lam[:, 2] * dt != 0.0).tolist(),
                   _may_leave_domain(lam, dt, float(kick), PotentialSpec.x_max).tolist()))
    cuts = []
    for before, (start, stop, r, *flags) in zip([None] + runs[:-1], runs):
        assert all(own[i] == tuple(flags) for i in range(start, stop))
        if before is not None and before[2] is r and start % height:
            assert list(before[3:]) != flags
            cuts.append(j + start)
    return cuts


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


def two_point_noise(gen, n_steps: int, width: int, kick: np.float32) -> np.ndarray:
    """A chunk's kicks for all steps from one draw of raw 64-bit words.

    Increment i, row-major over (step, column), is bit i of the words read
    as little-endian bytes, most significant bit first: bit 7 - i % 8 of
    byte i // 8 % 8 of word i // 64.  Bit 0 is +kick, bit 1 is -kick.
    """
    n = n_steps * width
    words = gen.bit_generator.random_raw(-(-n // 64))
    i = np.arange(n, dtype=np.uint64)
    bits = (words[i // 64] >> (8 * (i % 64 // 8) + 7 - i % 8)) & 1
    return np.where(bits == 0, kick, -kick).astype(np.float32).reshape(n_steps, width)


def chunkwise_initial_positions(pot: PotentialSpec, temperature: float, weights,
                                 generators, n_traj: int) -> np.ndarray:
    """Oracle for the kernel's initial sampler: its rejection rounds run
    chunk by chunk, each chunk to the end before the next starts.

    Chunk k (columns [128 k, 128 k + 128), cut at n_traj) draws from its
    own stream its trajectories' basins, then rounds of candidate positions
    uniform in the basin and acceptance variates for the trajectories still
    pending, accepted with probability e^{-(V - floor)/T}, the floor the
    least V on 512 points of the basin.
    """
    top = pot.barrier_top()
    lo = np.array([pot.x_min, top])
    hi = np.array([top, pot.x_max])
    floors = np.array([pot.value(np.linspace(l, h, 512)).min() for l, h in zip(lo, hi)])
    out = np.empty(n_traj)
    for k, gen in enumerate(generators):
        pending = np.arange(128 * k, min(128 * k + 128, n_traj))
        basin = (gen.random(pending.size) >= weights[0]).astype(np.intp)
        while pending.size:
            x = gen.uniform(lo[basin], hi[basin])
            accept = gen.random(pending.size) < np.exp(
                -(pot.value(x) - floors[basin]) / temperature)
            out[pending[accept]] = x[accept]
            pending, basin = pending[~accept], basin[~accept]
    return out


def fokker_planck_erasure(pot: PotentialSpec, sched: ProtocolSchedule, weights,
                          h_t: float, n_cells: int = 300,
                          temperature: float = 1.0) -> tuple:
    """Oracle for <W> and the success fraction with no noise law at all.

    A finite-volume master equation on n_cells cells over the clamp domain
    with reflecting walls and Scharfetter-Gummel rates (T / h^2) B(+-dV / T),
    B(z) = z / (e^z - 1), between neighbouring cells, so detailed balance
    holds exactly on the grid.  It starts from the Boltzmann density within
    each basin, scaled to the basin `weights`.  Each time step h_t quenches,
    adding p . (V(lambda_{j+1}) - V(lambda_j)) to the work, then relaxes by
    one implicit-Euler step (I - h_t L) p' = p.  The error is O(h_t).
    """
    edges = np.linspace(pot.x_min, pot.x_max, n_cells + 1)
    x = 0.5 * (edges[:-1] + edges[1:])
    scale = temperature / (edges[1] - edges[0]) ** 2
    n_steps = round(sched.duration / h_t)
    lam = sched.coefficients_at(np.arange(n_steps + 1) * h_t)
    start = PotentialSpec(tuple(lam[0]))
    v = start.value(x)
    p = np.exp(-(v - v.min()) / temperature)
    left = x < start.barrier_top()
    p[left] *= weights[0] / p[left].sum()
    p[~left] *= weights[1] / p[~left].sum()
    work = 0.0
    bands = np.zeros((3, n_cells))         # the corners [0, 0] and [2, -1] stay 0
    for coefficients in lam[1:]:
        v_next = PotentialSpec(tuple(coefficients)).value(x)
        work += p @ (v_next - v)
        v = v_next
        z = np.diff(v) / temperature
        up = scale / special.exprel(z)        # rate from cell i to i + 1
        down = scale / special.exprel(-z)     # rate from cell i + 1 to i
        bands[0, 1:] = -h_t * down
        bands[2, :-1] = -h_t * up
        bands[1] = 1.0
        bands[1, :-1] += h_t * up
        bands[1, 1:] += h_t * down
        p = linalg.solve_banded((1, 1), bands, p)
    success = p[x < PotentialSpec(tuple(lam[-1])).barrier_top()].sum()
    return float(work), float(success)


def stepwise_reference(pot: PotentialSpec, sched: ProtocolSchedule,
                       params: EnsembleParams) -> dict:
    """A plain Euler-Maruyama loop in the kernel's arithmetic order, from
    the chunk-by-chunk initial sample, with each chunk's two-point noise
    read bit by bit from its documented stream.

    The drift is Horner's x (1 + 2b dt - 4a dt x^2); the clamp is np.clip on
    every step, with the positions it moves counted.  Each step's segment
    is found by a loop over the knots: inside segment s, x^4, x^2 or x go
    to running sums for the coefficients whose slope is non-zero, charged
    at slope times dt when the segment changes and at the end; a step
    across a knot is charged its own grid increments.  `per_step_works`
    charges every step its grid increments, as a Stieltjes sum should
    agree with up to rounding.
    """
    n_traj, dt = params.n_traj, params.dt
    n_steps = round(sched.duration / dt)
    widths = [min(128, n_traj - k) for k in range(0, n_traj, 128)]
    grid = np.arange(n_steps + 1) * dt
    lam = sched.coefficients_at(grid)
    times, knots = sched.times, sched.knots
    rates = [[(knots[s + 1][i] - knots[s][i]) / (times[s + 1] - times[s]) * dt * sign
              for i, sign in enumerate((1.0, -1.0, 1.0))] for s in range(len(times) - 1)]
    seqs = [np.random.SeedSequence(params.seed, spawn_key=(k,)) for k in range(len(widths))]
    gens = [np.random.Generator(np.random.SFC64(s)) for s in seqs]
    x = chunkwise_initial_positions(pot, params.temperature, params.initial_weights,
                                    gens, n_traj)
    kick = np.float32(np.sqrt(2.0 * params.temperature * dt))
    noise = np.hstack([two_point_noise(g, n_steps, w, kick) for g, w in zip(gens, widths)])
    works = np.zeros(n_traj)
    per_step_works = np.zeros(n_traj)
    sums = [np.zeros(n_traj) for _ in range(3)]
    segment = -1
    hits = 0

    def charge(works, s):
        for i in range(3):
            if rates[s][i] != 0.0:
                works = works + sums[i] * rates[s][i]
                sums[i] = np.zeros(n_traj)
        return works

    for j in range(n_steps):
        a, b, c = lam[j]
        x = x * ((x * x) * (-4.0 * a * dt) + (1.0 + 2.0 * b * dt)) - c * dt + noise[j]
        hits += np.count_nonzero((x < pot.x_min) | (x > pot.x_max))
        x = np.clip(x, pot.x_min, pot.x_max)
        terms = ((x * x) * (x * x), x * x, x)
        da, db, dc = lam[j + 1] - lam[j]
        per_step_works = per_step_works + terms[0] * da + terms[1] * -db + terms[2] * dc
        s = -1
        for k in range(len(times) - 1):
            if times[k] <= grid[j] and grid[j + 1] <= times[k + 1]:
                s = k
        if s != segment:
            if segment >= 0:
                works = charge(works, segment)
            segment = s
        if s >= 0:
            for i in range(3):
                if rates[s][i] != 0.0:
                    sums[i] = sums[i] + terms[i]
        else:
            for term, increment in zip(terms, (da, -db, dc)):
                if increment != 0.0:
                    works = works + term * increment
    if segment >= 0:
        works = charge(works, segment)
    words = [s.generate_state(1, np.uint64)[0] for s in seqs]
    return {"positions": x, "works": works, "per_step_works": per_step_works,
            "clamp_hits": hits, "seeds": np.repeat(words, widths)}


def assert_matches_stepwise_reference(n_traj: int, n_steps: int = 1500,
                                      push_tilt: float = None) -> int:
    """The blocked, tiled kernel against `stepwise_reference` on the ratio-4
    erasure, with its default push tilt or `push_tilt`; returns the
    reference's clamp hits."""
    pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
    params = EnsembleParams(n_traj=n_traj, seed=5, dt=1e-3)
    sched = erasure_protocol_schedule(pot, n_steps * params.dt, push_tilt)
    assert round(sched.duration / params.dt) == n_steps
    ens = simulate_erasure(pot, sched, params)
    ref = stepwise_reference(pot, sched, params)
    assert np.array_equal(ens.final_positions, ref["positions"])
    assert np.array_equal(ens.works, ref["works"])
    assert np.array_equal(ens.trajectory_seeds, ref["seeds"])
    assert ens.clamp_hits == ref["clamp_hits"]
    return ref["clamp_hits"]


def force_path(monkeypatch, split: bool) -> list:
    """Make `simulate_erasure` split an ensemble of two chunks or more
    between two processes when `split`, and keep it in one otherwise, on a
    host of any core count; return the list that records each fork."""
    monkeypatch.setattr(langevin, "_SPLIT_CHUNKS", 2)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if split else {0})
    forks = []
    fork = os.fork

    def recorded_fork():
        forks.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", recorded_fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail with a TimeoutError, not hang, if the block outlasts `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"no result in {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def inject_nans(monkeypatch, nans: dict, worker_offset: int):
    """Put a NaN kick into trajectory i at step `nans[i]`, whichever process
    steps it: a forked worker's tile starts at trajectory `worker_offset`."""
    parent = os.getpid()
    expanded = [0]                          # steps expanded so far, in this process

    def nan_tile(table, octets, tile):
        _expand_tile(table, octets, tile)
        first = expanded[0]
        expanded[0] += len(octets)
        offset = 0 if os.getpid() == parent else worker_offset
        for trajectory, step in nans.items():
            if first <= step < expanded[0] and 0 <= trajectory - offset < tile.shape[1]:
                tile[step - first, trajectory - offset] = np.nan

    monkeypatch.setattr(langevin, "_expand_tile", nan_tile)


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
        assert free_energy_change((r.f_left, r.f_right), (0.5, 0.5)) == pytest.approx(
            0.0, abs=1e-10)
        assert r.p_eq_left == pytest.approx(0.5, abs=1e-10)

    def test_tuned_ratio_four(self):
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0, 1.0)
        r = basin_free_energies(pot, 1.0)
        assert r.p_eq_left == pytest.approx(0.8, abs=1e-9)
        assert free_energy_change((r.f_left, r.f_right), (0.5, 0.5)) == pytest.approx(
            0.5 * np.log(4.0), abs=1e-8)

    def test_quadrature_against_trapezoid(self):
        pot = tune_tilt_for_ratio(1.0, 6.5, 2.5, 1.0)
        r = basin_free_energies(pot, 1.0)
        xs = np.linspace(pot.x_min, pot.barrier_top(), 20001)
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

    @pytest.mark.parametrize("ratio", [0.25, 2.0, 4.0])
    def test_tune_takes_few_quadratures(self, ratio, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return basin_free_energies(*args, **kwargs)

        monkeypatch.setattr(langevin, "basin_free_energies", counted)
        tune_tilt_for_ratio(1.0, 6.5, ratio)
        assert 0 < len(calls) <= 12

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

    @pytest.mark.parametrize("p_left, expected", [
        (0.2, -0.6086), (0.5, 0.0), (0.8, 0.2231), (0.95, 0.1292)])
    def test_erasure_bound_at_any_weight(self, p_left, expected):
        # T H(p) - dF(p) on the ratio-4 memory leaves Landauer's T ln 2 and
        # turns negative where the small basin holds most of the weight
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        r = basin_free_energies(pot, 1.0)
        weights = (p_left, 1.0 - p_left)
        delta_f = free_energy_change((r.f_left, r.f_right), weights)
        assert shannon_entropy(weights) - delta_f == pytest.approx(expected, abs=5e-5)
        (z_left, _), (z_right, _) = quad_basin_weights(pot)
        oracle = weights[1] * (np.log(z_left) - np.log(z_right))
        assert abs(delta_f - oracle) <= 1e-8

    @pytest.mark.parametrize("ratio", [1.0, 4.0])
    def test_equal_weight_free_energy_change_is_the_midpoint(self, ratio):
        # halving is exact, so p = 1/2 gives the bits of 0.5 (F_l + F_r) - F_l
        pot = (symmetric_double_well() if ratio == 1.0
               else tune_tilt_for_ratio(1.0, 6.5, ratio))
        r = basin_free_energies(pot, 1.0)
        assert (free_energy_change((r.f_left, r.f_right), (0.5, 0.5))
                == 0.5 * (r.f_left + r.f_right) - r.f_left)


class TestSchedule:
    def test_json_round_trip(self):
        sched = erasure_protocol_schedule(symmetric_double_well(), 12.0)
        back = schedule_from_json(json.loads(json.dumps(schedule_to_json(sched))))
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

    def test_default_protocol_is_pinned(self):
        """The default schedule's times and knots, bit for bit: the first 16 hex
        digits of the sha256 of times.tobytes() + knots.tobytes(), recorded
        with numpy 2.4.6 and Python 3.11.7.  A knot that moves by one ulp
        moves its digest; that is a declared change of the protocol and of
        every langevin output, never a reason to edit a digest quietly.
        """
        wells = {"symmetric": symmetric_double_well(),
                 "ratio-4": tune_tilt_for_ratio(1.0, 6.5, 4.0)}
        digests = {}
        for (name, pot), push, tau in itertools.product(
                wells.items(), (None, 150.0), (3.0, 20.0, 750.0)):
            s = erasure_protocol_schedule(pot, tau, push_tilt=push)
            digest = hashlib.sha256(s.times.tobytes() + s.knots.tobytes()).hexdigest()
            digests[name, push, tau] = digest[:16]
        assert digests == {
            ("symmetric", None, 3.0): "e97f53b06a0683bf",
            ("symmetric", None, 20.0): "865e6a7c81d44934",
            ("symmetric", None, 750.0): "f83d59448cc37c4f",
            ("symmetric", 150.0, 3.0): "99e21c3f1f016d34",
            ("symmetric", 150.0, 20.0): "1d863751d7797292",
            ("symmetric", 150.0, 750.0): "4b1efe3c5835a044",
            ("ratio-4", None, 3.0): "5a3a0ec65a204dac",
            ("ratio-4", None, 20.0): "21303b88d9ba3666",
            ("ratio-4", None, 750.0): "3b54eff6b2c68362",
            ("ratio-4", 150.0, 3.0): "a9a383ce6e8e8d08",
            ("ratio-4", 150.0, 20.0): "64f186d668918f6c",
            ("ratio-4", 150.0, 750.0): "3d94487c73ee5712",
        }


class TestEnsembleParams:
    @pytest.mark.parametrize("temperature", [-1.0, 0.0, np.nan])
    def test_rejects_nonpositive_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature must be positive"):
            EnsembleParams(n_traj=8, seed=0, temperature=temperature)

    @pytest.mark.parametrize("weights", [(np.nan, np.nan), (0.5, np.nan), (np.inf, -np.inf),
                                         (0.5,), (1.2, -0.2)])
    def test_rejects_weights_that_are_not_a_distribution(self, weights):
        with pytest.raises(ValueError, match="two-entry distribution"):
            EnsembleParams(n_traj=8, seed=0, initial_weights=weights)


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
        # a partial chunk of width 3: a block's rows do not start on a word
        assert_matches_stepwise_reference(131)

    @pytest.mark.parametrize("n_steps", [1, 511, 512, 513, 1024])
    def test_matches_stepwise_reference_at_block_edges(self, n_steps):
        # one step, one short of a 512-step noise block, one block, one
        # past it, and two blocks
        assert_matches_stepwise_reference(130, n_steps)

    @pytest.mark.parametrize("n_traj", [1, 127, 128, 129, 256, 263])
    def test_matches_stepwise_reference_across_tile_edges(self, n_traj):
        # a partial chunk alone, one full chunk with and without a partial
        # one, two full chunks, and two with a partial one of width 7,
        # whose tile of 256, 128 or 85 rows ends inside each 512-step block
        assert_matches_stepwise_reference(n_traj, 1200)

    def test_matches_stepwise_reference_with_the_clamp_firing(self):
        # a push tilt of 150 drives positions past the domain's left end:
        # the guard flag changes inside segments, and the clamp must fire
        assert assert_matches_stepwise_reference(130, 3000, push_tilt=150.0) > 0

    def test_clamp_guard_matches_clamping_every_step(self, monkeypatch):
        # a domain of +-1.95 cuts the wells at +-1.80 close: the clamp fires
        # often, and the guarded clamp must give np.clip's positions and count
        monkeypatch.setattr(PotentialSpec, "x_min", -1.95)
        monkeypatch.setattr(PotentialSpec, "x_max", 1.95)
        assert assert_matches_stepwise_reference(130) > 0
        # the no-escape rule guards every step of that run
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        params = EnsembleParams(n_traj=130, seed=5)
        assert flagged_steps(erasure_protocol_schedule(pot, 1.5), params) == 1500

    def test_nan_passes_the_clamp_guard_and_is_reported(self, monkeypatch):
        # a NaN kick makes max(x^2) NaN, which does not trip the guard; the
        # NaN must survive the step loop and be reported, not clamped away,
        # with the steps of the block it appeared in: the only block, the
        # last of two, the middle of three; the NaN comes through the first
        # tile a block expands, at step 3, in a full chunk's column and in
        # the partial chunk's
        expand = langevin._expand_tile
        pot = symmetric_double_well()
        for duration, block, steps in ((0.1, 0, "[0, 100)"), (0.8, 1, "[512, 800)"),
                                       (1.2, 1, "[512, 1024)")):
            for n_traj, column in ((130, 5), (133, 129)):
                tiles = []

                def nan_tile(table, octets, tile):
                    # two chunks' 256 columns take tiles of 128 rows, four a block
                    assert tile.shape == (128, 256)
                    tiles.append(octets)
                    expand(table, octets, tile)
                    if len(tiles) == 4 * block + 1:
                        tile[3, column] = np.nan

                monkeypatch.setattr(langevin, "_expand_tile", nan_tile)
                with pytest.raises(FloatingPointError, match=rf"trajectory {column} .* "
                                   r"diverged in steps " + re.escape(steps) + "$"):
                    simulate_erasure(pot, erasure_protocol_schedule(pot, duration),
                                     EnsembleParams(n_traj=n_traj, seed=0))

    def test_segment_sums_match_per_step_charges(self):
        # knots off the step grid, one on it (t = 0.5), two inside one step
        # (0.6001 and 0.6004), and segments that vary a, b and c together;
        # then knots in the adjacent steps 600 and 601 (0.6001 and 0.6012),
        # which are two one-step segments, not one; then a knot in step 512
        # (0.5125), the first step of the second noise block
        pot = symmetric_double_well()
        middles = (
            ((0.1234, [1.0, 6.5, 0.5]), (0.5, [0.8, 5.0, 0.5]),
             (0.6001, [0.8, 5.5, 0.2]), (0.6004, [0.9, 5.0, 0.0]),
             (0.7893, [0.8, 5.0, -0.3])),
            ((0.3, [0.9, 6.0, 0.4]), (0.6001, [0.8, 5.5, 0.2]),
             (0.6012, [0.9, 4.0, -0.5]), (0.9, [0.9, 6.0, 0.1])),
            ((0.5125, [0.8, 4.5, 0.6]), (0.8, [0.85, 5.0, -0.2])),
        )
        params = EnsembleParams(n_traj=300, seed=23)
        for middle in middles:
            knots = ((0.0, [1.0, 6.5, 0.0]), *middle, (1.1, [1.0, 6.5, 0.0]))
            sched = schedule_from_json({"duration": 1.1, "knots": [
                {"time": t, "coefficients": k} for t, k in knots]})
            ens = simulate_erasure(pot, sched, params)
            ref = stepwise_reference(pot, sched, params)
            assert np.array_equal(ens.final_positions, ref["positions"])
            assert np.abs(ens.works - ref["per_step_works"]).max() <= 1e-10
            assert np.array_equal(ens.works, ref["works"])

    @pytest.mark.parametrize("n_traj", [200, 256, 300])
    def test_runs_match_stepwise_reference_at_tile_and_block_edges(self, n_traj):
        # tiles of 128 rows with and without a partial chunk, and of 85
        # rows with one: a segment charged at a tile edge, or a tile not
        # refilled where a run starts on its edge, changes the bytes
        pot = symmetric_double_well()
        sched = tile_edge_schedule()
        params = EnsembleParams(n_traj=n_traj, seed=29)
        ens = simulate_erasure(pot, sched, params)
        ref = stepwise_reference(pot, sched, params)
        assert np.array_equal(ens.final_positions, ref["positions"])
        assert np.array_equal(ens.works, ref["works"])

    def test_block_plan_runs(self):
        # the runs of both blocks of `tile_edge_schedule` with 128-row tiles
        sched = tile_edge_schedule()
        dt, height = 1e-3, 128
        rates = segment_rates(sched, dt)
        kick = np.float32(np.sqrt(2.0 * dt))
        grid = np.arange(801) * dt
        starts, straddles, last = [], [], None
        for j, count in ((0, 512), (512, 288)):
            drift, runs = _block_plan(sched, rates, j, count, dt, kick, PotentialSpec.x_max,
                                      height)
            assert drift.shape == (count, 3)
            flag_cuts(sched, runs, j, count, dt, kick, height)
            # the runs cover [0, count) in order, each inside one tile
            assert [r[0] for r in runs] == [0] + [r[1] for r in runs[:-1]]
            assert runs[-1][1] == count
            for start, stop, r, *flags in runs:
                assert start < stop and start // height == (stop - 1) // height
                inside = [s for s in range(len(rates)) if sched.times[s] <= grid[j + start]
                          and grid[j + stop] <= sched.times[s + 1]]
                if inside:
                    # a run inside segment s carries rates[s] itself, and a
                    # run of the same rates before it ends on a tile edge or
                    # where a flag flips
                    assert r is rates[inside[0]]
                    if last is not None and last[2] is r:
                        assert (j + start) % height == 0 or last[3:] != tuple(flags)
                else:
                    # a step across a knot is a run of its own, with its own
                    # grid increments in a fresh tuple
                    assert stop == start + 1 and type(r) is tuple
                    lam = sched.coefficients_at(grid[j + start:j + stop + 1])
                    assert r == tuple((np.diff(lam, axis=0)[0] * [1.0, -1.0, 1.0]).tolist())
                    straddles.append(j + start)
                starts.append(j + start)
                last = (start, stop, r, *flags)
        assert straddles == [256]
        assert {127, 128, 129, 256, 257, 384, 512, 640, 700} <= set(starts)
        # the segment across step 512 stays one set of rates in both blocks
        assert 513 not in starts

    @pytest.mark.parametrize("push_tilt, cuts", [(150.0, [1381, 2234, 2830]),
                                                 (None, [1381])])
    def test_block_plan_cuts_runs_where_a_flag_flips(self, push_tilt, cuts):
        # the symmetric erasure at tau = 3 in the 85-row tiles of 300
        # trajectories: c dt turns non-zero at step 1381, inside the first
        # push segment, and a push tilt of 150 also guards steps 2234 to
        # 2829, inside one segment and across tile and block edges
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 3.0, push_tilt)
        dt, height = 1e-3, langevin._TILE // 384
        rates = segment_rates(sched, dt)
        kick = np.float32(np.sqrt(2.0 * dt))
        found, guarded = [], 0
        for j in range(0, 3000, 512):
            count = min(512, 3000 - j)
            _, runs = _block_plan(sched, rates, j, count, dt, kick, PotentialSpec.x_max,
                                  height)
            found += flag_cuts(sched, runs, j, count, dt, kick, height)
            guarded += sum(stop - start for start, stop, *_, g in runs if g)
        assert found == cuts
        assert guarded == (596 if push_tilt else 0)

    def test_chunk_independent_of_ensemble_size_and_threads(self):
        # 128 trajectories are one chunk; 300 are three, drawn one after
        # another and stepped together; chunk 0 must come out the same
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        sched = erasure_protocol_schedule(pot, 1.5)
        one = simulate_erasure(pot, sched, EnsembleParams(n_traj=128, seed=13))
        three = simulate_erasure(pot, sched, EnsembleParams(n_traj=300, seed=13))
        assert np.array_equal(one.works, three.works[:128])
        assert np.array_equal(one.final_positions, three.final_positions[:128])
        assert np.array_equal(one.trajectory_seeds, three.trajectory_seeds[:128])

    def test_no_thread_outlives_a_run(self, monkeypatch):
        # a run starts no thread at all, whether it ends or is stopped
        started = []
        start = threading.Thread.start

        def record_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", record_start)
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 1.6)    # four noise blocks
        params = EnsembleParams(n_traj=300, seed=19)
        before = threading.active_count()
        simulate_erasure(pot, sched, params)
        assert threading.active_count() == before

        # the second check runs after block 1 is stepped, two blocks early
        calls = []

        def fail_on_second_call(x, traj_seeds, offset, first, end):
            calls.append(x)
            if len(calls) == 2:
                raise FloatingPointError("injected divergence")

        monkeypatch.setattr(langevin, "_check_finite", fail_on_second_call)
        with pytest.raises(FloatingPointError, match="injected divergence"):
            simulate_erasure(pot, sched, params)
        assert len(calls) == 2
        assert threading.active_count() == before
        assert started == []

    def test_segment_keeps_its_rates_across_a_block_edge(self):
        # steps 511 and 512, the last of block 0 and the first of block 1,
        # lie in one segment of the ratio-4 erasure at tau = 1.5; the last
        # run of block 0 and the first of block 1 must carry the run's one
        # rates list, or `_step_block` would charge the segment at the block
        # edge and change the rounding
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        sched = erasure_protocol_schedule(pot, 1.5)
        kick = np.float32(np.sqrt(2.0e-3))
        rates = segment_rates(sched, 1e-3)
        _, runs0 = _block_plan(sched, rates, 0, 512, 1e-3, kick, PotentialSpec.x_max, 128)
        _, runs1 = _block_plan(sched, rates, 512, 512, 1e-3, kick, PotentialSpec.x_max, 128)
        assert runs0[-1][1] == 512 and runs1[0][0] == 0
        assert runs0[-1][2] is runs1[0][2]
        assert runs0[-1][2] is rates[np.searchsorted(sched.times, 0.512) - 1]

    @pytest.mark.parametrize("duration", [4e-4, 5e-4])
    def test_protocol_under_half_a_step_rejected(self, duration):
        # round() takes duration / dt = 0.5 to 0 steps as well
        pot = symmetric_double_well()
        with pytest.raises(ValueError, match="must round to between 1 and"):
            simulate_erasure(pot, frozen_schedule(pot, duration),
                             EnsembleParams(n_traj=8, seed=0))

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
        r = basin_free_energies(pot, 1.0)
        bound = LN2 - free_energy_change((r.f_left, r.f_right), (0.5, 0.5))
        assert ens.mean_work >= bound - 3 * ens.stderr


class TestTwoProcesses:
    """Chunks are independent, so an ensemble split between this process and
    a forked worker must give the bits of one process, raise what one
    process raises, and leave no process behind."""

    @pytest.mark.parametrize("n_traj, ratio, duration, push_tilt", [
        (263, 4.0, 1.2, None),       # three chunks, the last of width 7: the worker takes one
        (640, 4.0, 1.2, None),       # five full chunks: the worker takes two
        (300, 1.0, 3.0, 150.0),      # the clamp fires
    ])
    def test_split_matches_one_process(self, monkeypatch, n_traj, ratio, duration,
                                       push_tilt):
        pot = tune_tilt_for_ratio(1.0, 6.5, ratio)
        sched = erasure_protocol_schedule(pot, duration, push_tilt)
        params = EnsembleParams(n_traj=n_traj, seed=31)
        runs = {}
        for split in (False, True):
            forks = force_path(monkeypatch, split)
            runs[split] = simulate_erasure(pot, sched, params)
            assert forks == [os.getpid()] * split
            assert_no_child_left()
        one, two = runs[False], runs[True]
        for name in ("works", "final_positions", "final_basins", "trajectory_seeds"):
            assert np.array_equal(getattr(one, name), getattr(two, name))
        assert one.clamp_hits == two.clamp_hits
        assert (one.clamp_hits > 0) == (push_tilt is not None)

    def test_no_process_to_spare_integrates_here(self, monkeypatch):
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 0.6)
        params = EnsembleParams(n_traj=300, seed=2)
        force_path(monkeypatch, False)
        one = simulate_erasure(pot, sched, params)
        force_path(monkeypatch, True)

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fallback = simulate_erasure(pot, sched, params)
        assert np.array_equal(one.works, fallback.works)
        assert np.array_equal(one.final_positions, fallback.final_positions)
        assert_no_child_left()

    def test_a_worker_killed_midway_exits_2(self, monkeypatch, tmp_path, capsys):
        parent = os.getpid()
        check_finite = langevin._check_finite

        def die_in_the_worker(x, traj_seeds, offset, first, end):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            check_finite(x, traj_seeds, offset, first, end)

        monkeypatch.setattr(langevin, "_check_finite", die_in_the_worker)
        force_path(monkeypatch, True)
        monkeypatch.chdir(tmp_path)
        code = main(["langevin", "--seed", "0", "--n-traj", "300", "--tau", "0.6",
                     "--out", "run.csv"])
        assert_no_child_left()
        assert code == 2
        assert capsys.readouterr().err == (
            "langevin: error: the worker process ended without a result (wait status "
            f"{int(signal.SIGKILL)})\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("nans, bad, steps", [
        ({290: 3}, 290, "[0, 512)"),             # the worker's half, its partial chunk
        ({5: 700}, 5, "[512, 1024)"),             # this process's half
        ({5: 700, 290: 3}, 290, "[0, 512)"),      # the worker's comes a block earlier
        ({290: 700, 5: 3}, 5, "[0, 512)"),        # this process's comes a block earlier
        ({290: 3, 5: 400}, 5, "[0, 512)"),        # one block: the lower trajectory
    ])
    def test_divergence_is_reported_as_one_process_reports_it(self, monkeypatch, tmp_path,
                                                              capsys, nans, bad, steps):
        # three chunks: this process takes trajectories 0-255, the worker 256-299
        pot = symmetric_double_well()
        sched = erasure_protocol_schedule(pot, 1.2)
        params = EnsembleParams(n_traj=300, seed=0)
        messages = []
        for split in (False, True):
            inject_nans(monkeypatch, nans, worker_offset=256)
            force_path(monkeypatch, split)
            with pytest.raises(FloatingPointError) as raised:
                simulate_erasure(pot, sched, params)
            assert_no_child_left()
            messages.append(str(raised.value))
        assert messages[0] == messages[1]
        assert re.fullmatch(rf"trajectory {bad} \(chunk {bad // 128}, column {bad % 128}, "
                            rf"stream seed \d+\) diverged in steps " + re.escape(steps),
                            messages[1])

        # the CLI exits 1 with one line and writes no file
        inject_nans(monkeypatch, nans, worker_offset=256)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        code = main(["langevin", "--seed", "0", "--n-traj", "300", "--tau", "1.2",
                     "--out", "run.csv"])
        assert_no_child_left()
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err == f"langevin: check failed: {messages[1]}\n"
        assert list(tmp_path.iterdir()) == []

    def test_no_deadlock_on_a_result_larger_than_the_pipe(self, monkeypatch):
        # at 10^4 trajectories the worker's result, about 80 KB pickled, does
        # not fit a 64 KiB pipe buffer, so the worker waits in its write
        # until this process reads the result or kills the worker
        pot = symmetric_double_well()
        params = EnsembleParams(n_traj=10_000, seed=4)
        statuses = []
        waitpid = os.waitpid

        def recorded_waitpid(pid, options):
            reaped = waitpid(pid, options)
            statuses.append(reaped[1])
            return reaped

        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        force_path(monkeypatch, True)

        # a divergence in this process's half: the worker's result is read
        # and reaped, and this half's divergence is reported
        inject_nans(monkeypatch, {17: 3}, worker_offset=5120)
        with deadline(60), pytest.raises(FloatingPointError,
                                         match=r"^trajectory 17 .* steps \[0, 512\)$"):
            simulate_erasure(pot, erasure_protocol_schedule(pot, 0.6), params)
        assert statuses == [0]
        monkeypatch.setattr(langevin, "_expand_tile", _expand_tile)

        # any other error here kills the worker, which would step 20 000
        # steps before it wrote
        parent = os.getpid()
        check_finite = langevin._check_finite

        def fail_here(x, traj_seeds, offset, first, end):
            if os.getpid() == parent:
                raise MemoryError("injected")
            check_finite(x, traj_seeds, offset, first, end)

        monkeypatch.setattr(langevin, "_check_finite", fail_here)
        with deadline(60), pytest.raises(MemoryError, match="injected"):
            simulate_erasure(pot, erasure_protocol_schedule(pot, 20.0), params)
        assert os.WIFSIGNALED(statuses[1]) and os.WTERMSIG(statuses[1]) == signal.SIGKILL
        monkeypatch.undo()
        assert_no_child_left()


class TestNoiseFill:
    """The two-point noise: +-kick with equal odds, independent increments,
    drawn per block as bits and expanded a tile at a time."""

    kick = np.float32(np.sqrt(2.0e-3))

    def expand(self, gens, n_traj, count, height):
        """One block drawn by `_draw_block` and expanded by `_expand_tile`,
        a tile of `height` rows at a time, each row trimmed to its first
        n_traj columns, as a (count, n_traj) array."""
        table = _kick_table(self.kick)
        bits = _draw_block(gens, count, n_traj)
        tile = np.full((height, -(-n_traj // 128) * 128), np.nan)
        rows = []
        for t in range(0, count, height):
            _expand_tile(table, bits[t:t + height], tile)
            rows.append(tile[:min(height, count - t), :n_traj].copy())
        return np.vstack(rows)

    def fill(self, seed, n_traj, count=1024, height=100):
        gens = [np.random.Generator(np.random.SFC64(s))
                for s in np.random.SeedSequence(seed).spawn(-(-n_traj // 128))]
        return self.expand(gens, n_traj, count, height), gens

    def test_values_are_exactly_plus_minus_kick(self):
        noise, _ = self.fill(91, 131)
        assert noise.dtype == np.float64
        assert set(np.unique(noise)) == {np.float64(self.kick), np.float64(-self.kick)}

    def test_balanced_signs_uncorrelated_across_steps_and_columns(self):
        noise, _ = self.fill(92, 256)
        signs = noise / float(self.kick)
        assert stats.binomtest(int((signs > 0).sum()), signs.size, 0.5).pvalue > 0.01
        # a sample correlation of n independent pairs has sd 1 / sqrt(n)
        for first, second in ((signs[:-1], signs[1:]), (signs[:, :-1], signs[:, 1:])):
            limit = 4.0 / np.sqrt(first.size)
            assert abs(np.corrcoef(first.ravel(), second.ravel())[0, 1]) < limit

    @pytest.mark.parametrize("n_traj", [256, 131])
    def test_two_half_blocks_equal_one_block(self, n_traj):
        # a 256-row block takes 4 w whole words, so the stream continues
        # exactly where one 512-row block would; also for a chunk of width 3
        whole, _ = self.fill(93, n_traj, count=512)
        first, gens = self.fill(93, n_traj, count=256)
        second = self.expand(gens, n_traj, 256, 100)
        assert np.array_equal(whole, np.vstack([first, second]))

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 127, 128])
    def test_byte_table_matches_bit_reference(self, width):
        # chunk 0 is full and chunk 1 has the width under test, drawn in
        # one call, so a width under 128 is the partial chunk, re-packed
        # into its 16 bytes a step; tiles of 3, 100 and 256 rows, the first
        # two not dividing 512, and of one row
        def streams():
            return [np.random.Generator(np.random.SFC64(s))
                    for s in np.random.SeedSequence(94).spawn(2)]

        for count in (1, 7, 256, 512):
            ref = np.hstack([two_point_noise(g, count, w, self.kick)
                             for g, w in zip(streams(), (128, width))])
            for height in (1, 3, 100, 256):
                assert np.array_equal(self.expand(streams(), 128 + width, count, height), ref)


class TestNoEscapeRule:
    """`_may_leave_domain`: a step it does not flag keeps every position of
    the domain inside it, and it flags no step of the production runs."""

    def test_unflagged_steps_stay_inside_the_domain(self):
        # random rows (a, b, c), temperatures in [0.1, 4] and dt that
        # check_timestep accepts, a quarter of them at its 0.1 budget and
        # half with |c| up to 100; every unflagged step is run with the
        # kernel's arithmetic from a dense grid that includes both ends
        rng = np.random.default_rng(47)
        lo, hi = PotentialSpec.x_min, PotentialSpec.x_max
        x = np.linspace(lo, hi, 4001)
        x2 = x * x
        unflagged = 0
        for i in range(3000):
            a, b = rng.uniform(0.05, 3.0), rng.uniform(-3.0, 12.0)
            c = rng.uniform(-100.0, 100.0) if i % 2 else rng.uniform(-2.0, 2.0)
            budget = 0.1 / max(abs(12.0 * a * (hi * hi) - 2.0 * b), abs(2.0 * b))
            dt = budget if i % 4 == 3 else budget * rng.uniform(0.01, 1.0)
            temperature = rng.uniform(0.1, 4.0)
            check_timestep(frozen_schedule(PotentialSpec((a, b, c)), 1.0), dt)
            kick = np.float32(np.sqrt(2.0 * temperature * dt))
            if _may_leave_domain(np.array([[a, b, c]]), dt, float(kick), hi)[0]:
                continue
            unflagged += 1
            drifted = x * (x2 * (-4.0 * a * dt) + (1.0 + 2.0 * b * dt)) - c * dt
            for noise in (kick, -kick):            # float32, widened as in the kernel
                after = drifted + noise
                assert lo < after.min() and after.max() < hi, (a, b, c, dt, kick)
        # both outcomes are common, so the draws test the rule's edge
        assert 500 < unflagged < 2500

    @pytest.mark.parametrize("ratio, tau", [
        (1.0, 750.0), (4.0, 480.0), (4.0, 8.0),   # criterion 7's three runs
        (4.0, 20.0), (1.0, 100.0),                # the benchmark's Langevin runs
    ])
    def test_flags_no_step_of_the_production_runs(self, ratio, tau):
        pot = tune_tilt_for_ratio(1.0, 6.5, ratio) if ratio != 1.0 else symmetric_double_well()
        params = EnsembleParams(n_traj=1, seed=0)
        assert flagged_steps(erasure_protocol_schedule(pot, tau), params) == 0


class TestFokkerPlanckOracle:
    def test_equilibrium_is_stationary_on_the_grid(self):
        # Scharfetter-Gummel rates balance the Boltzmann weights cell by
        # cell: a frozen protocol from the equilibrium weights does no work
        # and keeps the basin weights
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        edges = np.linspace(pot.x_min, pot.x_max, 301)
        x = 0.5 * (edges[:-1] + edges[1:])
        boltzmann = np.exp(-pot.value(x))
        left = boltzmann[x < pot.barrier_top()].sum() / boltzmann.sum()
        work, success = fokker_planck_erasure(pot, frozen_schedule(pot, 2.0),
                                              (left, 1.0 - left), h_t=0.01)
        assert work == 0.0
        assert success == pytest.approx(left, abs=1e-12)

    def test_kernel_matches_fokker_planck(self):
        # tau = 20, ratio 4: <W> against the oracle Richardson-extrapolated
        # from h_t = 0.01 and 0.005 (first order in h_t); Euler-Maruyama's
        # own O(dt) bias is about 0.01, well inside 4 standard errors
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        sched = erasure_protocol_schedule(pot, 20.0)
        weights = (0.5, 0.5)
        coarse, _ = fokker_planck_erasure(pot, sched, weights, h_t=0.01)
        fine, fp_success = fokker_planck_erasure(pot, sched, weights, h_t=0.005)
        w_fp = 2.0 * fine - coarse
        # h_t = 0.005 and 0.0025 extrapolate to 0.8304 as well, and 600
        # cells move <W> by 4e-4
        assert w_fp == pytest.approx(0.8304, abs=1e-3)
        assert fp_success >= 0.99
        ens = simulate_erasure(pot, sched, EnsembleParams(n_traj=10_000, seed=29,
                                                          initial_weights=weights))
        assert abs(ens.mean_work - w_fp) <= 4.0 * ens.stderr
        assert ens.success_fraction >= 0.99


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
            clamp_hits=0,
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

    @pytest.mark.parametrize("temperature", [1.0, 0.3])
    @pytest.mark.parametrize("weights", [(0.5, 0.5), (0.2, 0.8), (1.0, 0.0), (0.0, 1.0)])
    def test_initial_sampler_matches_chunkwise_oracle(self, weights, temperature):
        # the kernel runs each rejection round over every chunk at once;
        # each chunk's draws, and so every position, must be those of
        # running the chunks one after another
        pot = tune_tilt_for_ratio(1.0, 6.5, 4.0)
        for n in (1, 127, 128, 131, 300, 10_000):
            def streams():
                return [np.random.Generator(np.random.SFC64(s))
                        for s in np.random.SeedSequence(85).spawn(-(-n // 128))]

            xs = _sample_initial_positions(pot, temperature, weights, streams(), n)
            ref = chunkwise_initial_positions(pot, temperature, weights, streams(), n)
            assert np.array_equal(xs, ref)
