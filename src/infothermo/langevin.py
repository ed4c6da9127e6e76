"""Overdamped Langevin dynamics of a Brownian particle in a double well.

The quartic family V(x) = a x^4 - b x^2 + c x realizes a one-bit memory:
left basin = outcome 0 (standard), right basin = outcome 1, with the linear
tilt c controlling the basin-weight asymmetry.  Erasure is a time-dependent
protocol (equalize, drop the barrier, push left, restore) integrated with
Euler-Maruyama; work is accumulated at parameter updates only.

Units: k_B = 1 and the friction coefficient is 1, so the drift is -V'(x);
the temperature defaults to 1; all works are reported in units of T.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .operators import MalformedPayloadError, temperature_value

BARRIER_MIN_FACTOR = 8.0  # minimal barrier in units of T at protocol endpoints
MAX_STEPS = 10_000_000    # Euler-Maruyama steps per run: tau = 10^4 at dt = 1e-3

# basin quadrature (`basin_free_energies`): nodes and weights on [-1, 1]
_GAUSS_LEGENDRE = leggauss(256)
_PANELS = 8
_WINDOW = 60.0


class SingleWellError(ValueError):
    """Potential has no interior maximum: not a two-state memory."""


class UnstableTimestepError(ValueError):
    """dt exceeds the overdamped stability budget for this potential."""


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well a x^4 - b x^2 + c x on the clamped domain
    [x_min, x_max]."""

    coefficients: tuple[float, float, float]
    x_min: ClassVar[float] = -2.85
    x_max: ClassVar[float] = 2.85

    def __post_init__(self):
        a, b, c = (float(v) for v in self.coefficients)
        if not a > 0:
            raise ValueError(f"quartic coefficient must be positive, got {a}")
        object.__setattr__(self, "coefficients", (a, b, c))

    def value(self, x, coefficients=None):
        a, b, c = self.coefficients if coefficients is None else coefficients
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return a * x2 * x2 - b * x2 + c * x

    def curvature_bound(self, coefficients=None) -> float:
        """max |V''| over the clamped domain."""
        a, b, _ = self.coefficients if coefficients is None else coefficients
        edge = max(self.x_min * self.x_min, self.x_max * self.x_max)
        return max(abs(12.0 * a * edge - 2.0 * b), abs(2.0 * b))

    def critical_points(self, coefficients=None) -> np.ndarray:
        a, b, c = self.coefficients if coefficients is None else coefficients
        roots = np.roots([4.0 * a, 0.0, -2.0 * b, c])
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = real[(real > self.x_min) & (real < self.x_max)]
        return np.sort(inside)

    def barrier_top(self, coefficients=None) -> float:
        """Position of the interior maximum separating the two basins."""
        a, b, c = self.coefficients if coefficients is None else coefficients
        points = self.critical_points((a, b, c))
        curv = 12.0 * a * points * points - 2.0 * b
        tops = points[curv < 0]
        if tops.size != 1:
            raise SingleWellError(
                f"potential {(a, b, c)} has no unique interior maximum")
        return float(tops[0])

    def barrier_height(self, coefficients=None) -> float:
        """min over basins of V(top) - V(basin minimum)."""
        coeffs = self.coefficients if coefficients is None else coefficients
        top = self.barrier_top(coeffs)
        points = self.critical_points(coeffs)
        minima = points[points != top]
        v_top = self.value(top, coeffs)
        depths = v_top - self.value(minima, coeffs)
        return float(depths.min())


def symmetric_double_well(a: float = 1.0, b: float = 6.5) -> PotentialSpec:
    return PotentialSpec((a, b, 0.0))


def require_barrier(pot: PotentialSpec, temperature: float,
                    coefficients=None, factor: float = BARRIER_MIN_FACTOR):
    height = pot.barrier_height(coefficients)
    if height < factor * temperature:
        raise ValueError(
            f"barrier {height:.3f} below the required {factor:.1f} * T "
            f"= {factor * temperature:.3f}")


@dataclass(frozen=True)
class BasinFreeEnergies:
    """Quadrature free energies of the two basins and the derived asymmetry."""

    f_left: float
    f_right: float
    p_eq_left: float
    delta_f: float
    barrier_top: float


def _basin_window(pot: PotentialSpec, lo: float, hi: float, points: np.ndarray,
                  temperature: float) -> tuple[float, float, float]:
    """The part [l, r] of the basin [lo, hi] where V - V_min <= 60 T, and V_min.

    V has one minimum in a basin, at a critical point or an end, and is
    monotone on either side of it, so that part is an interval; its ends
    are roots of the quartic V - V_min - 60 T, or the basin's ends.
    """
    a, b, c = pot.coefficients
    candidates = np.concatenate([[lo, hi], points[(points > lo) & (points < hi)]])
    values = pot.value(candidates)
    x0, v_min = candidates[values.argmin()], values.min()
    roots = np.roots([a, 0.0, -b, c, -(v_min + _WINDOW * temperature)])
    real = roots[np.abs(roots.imag) < 1e-9].real
    left = real[(real > lo) & (real < x0)]
    right = real[(real > x0) & (real < hi)]
    return (left.max() if left.size else lo, right.min() if right.size else hi,
            float(v_min))


def _gauss_legendre(pot: PotentialSpec, lo: float, hi: float, v_min: float,
                    temperature: float, panels: int) -> float:
    """Integral of e^{-(V - v_min)/T} over [lo, hi]: the Gauss-Legendre rule
    on each of `panels` equal panels."""
    nodes, weights = _GAUSS_LEGENDRE
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    x = 0.5 * (edges[:-1] + edges[1:])[:, None] + half * nodes
    return float(np.sum(half * weights * np.exp(-(pot.value(x) - v_min) / temperature)))


def basin_free_energies(pot: PotentialSpec, temperature: float = 1.0,
                        barrier_factor: float = BARRIER_MIN_FACTOR) -> BasinFreeEnergies:
    """F_k = -T ln Z_k, Z_k the integral of e^{-V/T} over each basin.

    Z_k comes from a composite Gauss-Legendre rule on 8 panels over the
    part of the basin where V - V_min <= 60 T, so the panels shrink with
    the well and a narrow, deep well is resolved; the cut drops only where
    the integrand is below e^{-60} of its peak.  The same rule on 4
    panels is an always-on cross-check: an ArithmeticError is raised when
    the two differ by more than 1e-8 relative.

    delta_f is the outcome-averaged free-energy change for equal outcome
    weights with the left basin as the standard state.
    """
    require_barrier(pot, temperature, factor=barrier_factor)
    top = pot.barrier_top()
    points = pot.critical_points()
    free = []
    for lo, hi in ((pot.x_min, top), (top, pot.x_max)):
        left, right, v_min = _basin_window(pot, lo, hi, points, temperature)
        z = _gauss_legendre(pot, left, right, v_min, temperature, _PANELS)
        coarse = _gauss_legendre(pot, left, right, v_min, temperature, _PANELS // 2)
        if abs(z - coarse) > 1e-8 * z:
            raise ArithmeticError("basin quadrature: the 8- and 4-panel rules differ "
                                  f"by {abs(z - coarse) / z:.1e} relative, beyond 1e-8")
        free.append(v_min - temperature * np.log(z))
    f_left, f_right = free
    delta_f = 0.5 * (f_left + f_right) - f_left
    return BasinFreeEnergies(
        f_left=float(f_left),
        f_right=float(f_right),
        # Z_left / (Z_left + Z_right), without forming either Z
        p_eq_left=float(np.exp(-np.logaddexp(0.0, (f_left - f_right) / temperature))),
        delta_f=float(delta_f),
        barrier_top=top,
    )


def reset_free_energy(eq: BasinFreeEnergies, temperature: float = 1.0) -> float:
    """Free-energy cost -T ln p_eq_left of confining equilibrium to the left
    basin, from the basin free energies `eq` computed at `temperature`.

    For an equilibrium-weighted ensemble driven through a completed reset
    protocol (success ~ 1), the exponential work average converges to this
    constrained free-energy change; the unconstrained endpoint difference is
    recovered only through exponentially rare trapped trajectories.
    """
    return float(-temperature * np.log(eq.p_eq_left))


def tune_tilt_for_ratio(a: float, b: float, ratio: float,
                        temperature: float = 1.0) -> PotentialSpec:
    """Find the tilt c in [-2, 2] giving basin weights Z_left : Z_right = ratio : 1.

    Bisection to 1e-12 on ln(Z_left / Z_right) - ln(ratio); a ValueError
    when the bracket does not change its sign.
    """
    if not (np.isfinite(ratio) and ratio > 0):
        raise ValueError(f"ratio must be positive and finite, got {ratio}")

    def above(c) -> bool:
        r = basin_free_energies(PotentialSpec((a, b, c)), temperature,
                                barrier_factor=0.0)
        return (r.f_right - r.f_left) / temperature > np.log(ratio)

    lo, hi = -2.0, 2.0
    lo_above = above(lo)
    if above(hi) == lo_above:
        raise ValueError(f"no tilt in [{lo}, {hi}] gives the basin weight ratio {ratio}")
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if above(mid) == lo_above:
            lo = mid
        else:
            hi = mid
    return PotentialSpec((a, b, 0.5 * (lo + hi)))


@dataclass(frozen=True)
class ProtocolSchedule:
    """Piecewise-linear coefficient path lambda(t) through knot values."""

    duration: float
    times: np.ndarray
    knots: np.ndarray  # (n_knots, 3)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        knots = np.asarray(self.knots, dtype=float)
        if times.ndim != 1 or knots.shape != (times.size, 3):
            raise ValueError("times and knots are inconsistent")
        if times[0] != 0.0 or abs(times[-1] - self.duration) > 1e-12:
            raise ValueError("knot times must start at 0 and end at the duration")
        if np.any(np.diff(times) <= 0):
            raise ValueError("knot times must be strictly increasing")
        times.setflags(write=False)
        knots.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "knots", knots)

    def coefficients_at(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty((t.size, 3))
        for j in range(3):
            out[:, j] = np.interp(t, self.times, self.knots[:, j])
        return out

    def to_json(self) -> dict:
        return {
            "duration": self.duration,
            "knots": [
                {"time": float(t), "coefficients": [float(v) for v in row]}
                for t, row in zip(self.times, self.knots)
            ],
        }


def schedule_from_json(payload: dict) -> ProtocolSchedule:
    try:
        duration = float(payload["duration"])
        entries = sorted(payload["knots"], key=lambda e: float(e["time"]))
        times = np.array([float(e["time"]) for e in entries])
        knots = np.array([[float(v) for v in e["coefficients"]] for e in entries])
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedPayloadError(f"malformed schedule payload: {exc}") from exc
    return ProtocolSchedule(duration=duration, times=times, knots=knots)


def erasure_protocol_schedule(pot: PotentialSpec, duration: float,
                              push_tilt: float = None) -> ProtocolSchedule:
    """Default reset-to-left protocol.

    Equalize the basins (tilt to zero) while the barrier holds, drop the
    barrier at zero tilt (the balanced weights stay in equilibrium, so no
    dissipative flow starts), push left in the ergodic single-well regime,
    then restore the barrier along the line c = c_push (1 - b/b0), which
    keeps the left minimum exactly fixed while the barrier rises, ending at
    the initial coefficients.  The default push 4 a |x_well|^3 places the
    single-well minimum at the original left-well position, minimizing the
    transported distance (overdamped drag sets the dissipation).
    """
    a, b, c0 = pot.coefficients
    if push_tilt is None:
        push_tilt = 4.0 * a * (b / (2.0 * a)) ** 1.5
    # stage ends as fractions of the duration: equalize, drop, push, restore
    f1, f2, f3, f4 = 0.04, 0.46, 0.88, 0.95
    times = [0.0, f1]
    knots = [[a, b, c0], [a, b, 0.0]]
    # barrier drop graded as b ~ (1-u)^2 so the well positions (at +-sqrt(b/2a))
    # travel at constant speed instead of collapsing singularly at the merge
    grade = np.linspace(0.0, 1.0, 9)[1:]
    for u in grade:
        times.append(f1 + (f2 - f1) * u)
        knots.append([a, b * (1.0 - u) ** 2, 0.0])
    # tilt graded as c ~ u^3 so the single-well minimum (at -(c/4a)^(1/3))
    # departs at constant speed
    for u in grade:
        times.append(f2 + (f3 - f2) * u)
        knots.append([a, 0.0, push_tilt * u ** 3])
    # barrier restore along c = push (1 - b/b0): the left minimum stays fixed
    times.extend([f4, 1.0])
    knots.extend([[a, b, 0.0], [a, b, c0]])
    return ProtocolSchedule(duration, np.array(times) * duration, np.array(knots))


@dataclass(frozen=True)
class EnsembleParams:
    """Simulation controls; initial_weights are the basin occupation odds."""

    n_traj: int
    seed: int
    dt: float = 1e-3
    temperature: float = 1.0
    initial_weights: tuple[float, float] = (0.5, 0.5)

    def __post_init__(self):
        if self.n_traj < 1:
            raise ValueError("n_traj must be >= 1")
        if not self.dt > 0:
            raise ValueError("dt must be positive")
        object.__setattr__(self, "temperature", temperature_value(self.temperature))
        w = self.initial_weights
        if len(w) != 2 or abs(w[0] + w[1] - 1.0) > 1e-12 or min(w) < 0:
            raise ValueError("initial_weights must be a two-entry distribution")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Per-trajectory works and final basins with ensemble summaries."""

    params: EnsembleParams
    works: np.ndarray
    final_positions: np.ndarray
    final_basins: np.ndarray       # 0 = left (standard), 1 = right
    trajectory_seeds: np.ndarray   # seed word of each trajectory's chunk stream

    @property
    def mean_work(self) -> float:
        return float(self.works.mean())

    @property
    def stderr(self) -> float:
        if self.works.size < 2:
            return 0.0
        return float(self.works.std(ddof=1) / np.sqrt(self.works.size))

    @property
    def success_fraction(self) -> float:
        return float((self.final_basins == 0).mean())


_NOISE_BLOCK = 512  # rows of each of the two noise buffers
_CHUNK = 128  # trajectories per random stream; part of the output's definition


def _chunk_columns(k: int, n_traj: int) -> slice:
    """Trajectories of chunk k: columns [128 k, 128 k + 128), cut at n_traj."""
    return slice(k * _CHUNK, min((k + 1) * _CHUNK, n_traj))


def _fill_noise(noise: np.ndarray, generators, chunks, count: int, kick: np.float32):
    """Fill noise[:count] with kick-scaled Gaussian increments for the chunks
    that the iterator ``chunks`` yields.

    Box-Muller in float32: chunk k of width w, h = ceil(w / 2), draws its
    (count, 2, h) uniforms from its own stream in one call, in C order, so
    each step takes h radius uniforms u, then h angle uniforms v.  With
    r = sqrt(-2 kick^2 log(1 - u)) and theta = 2 pi v, column c < h of the
    chunk gets r cos(theta) and column c + h gets r sin(theta) of the same
    pair.  1 - u lies in (0, 1], so r is finite and |r| <= kick sqrt(48 ln 2):
    float32 uniforms cut the normal off at 5.77 sigma.  A trajectory's
    increments do not depend on the block length or on any other chunk.
    Two threads may share one iterator: each takes whole chunks, writes
    only those chunks' columns and uses its own scratch buffers, so the
    result does not depend on which thread fills which chunk.
    """
    n_traj = noise.shape[1]
    radius_scale = np.float32(-2.0) * kick * kick
    two_pi = np.float32(2.0 * np.pi)
    uniforms = np.empty(count * _CHUNK, dtype=np.float32)
    radii = np.empty(count * _CHUNK // 2, dtype=np.float32)
    angles = np.empty_like(radii)
    for k in chunks:
        cols = _chunk_columns(k, n_traj)
        width = cols.stop - cols.start
        h = -(-width // 2)
        draw = uniforms[:count * 2 * h].reshape(count, 2, h)
        generators[k].random(dtype=np.float32, out=draw)
        # the two halves of each step's row go to contiguous arrays, so
        # log, sqrt, cos and sin run as one SIMD loop, not one per row
        r = radii[:count * h].reshape(count, h)
        theta = angles[:count * h].reshape(count, h)
        np.subtract(np.float32(1.0), draw[:, 0], out=r)
        np.multiply(draw[:, 1], two_pi, out=theta)
        np.log(r, out=r)
        r *= radius_scale
        np.sqrt(r, out=r)
        cos = uniforms[:count * h].reshape(count, h)   # the draw is used up
        np.cos(theta, out=cos)
        np.sin(theta, out=theta)
        out = noise[:count, cols]
        np.multiply(cos, r, out=out[:, :h])
        np.multiply(theta[:, :width - h], r[:, :width - h], out=out[:, h:])


def _sample_initial_positions(pot: PotentialSpec, temperature: float,
                              weights, generators, n_traj: int) -> np.ndarray:
    """Basin mixture, canonical within each basin, by rejection sampling.

    Chunk k draws from its own stream its trajectories' basins, then rounds
    of candidate positions and acceptance variates for the trajectories
    still pending, until all are accepted.
    """
    top = pot.barrier_top()
    lo = np.array([pot.x_min, top])
    hi = np.array([top, pot.x_max])
    floors = np.array([pot.value(np.linspace(l, h, 512)).min() for l, h in zip(lo, hi)])
    out = np.empty(n_traj)
    for k, gen in enumerate(generators):
        cols = _chunk_columns(k, n_traj)
        pending = np.arange(cols.start, cols.stop)
        basin = (gen.random(pending.size) >= weights[0]).astype(np.intp)
        while pending.size:
            x = gen.uniform(lo[basin], hi[basin])
            accept = gen.random(pending.size) < np.exp(
                -(pot.value(x) - floors[basin]) / temperature)
            out[pending[accept]] = x[accept]
            pending, basin = pending[~accept], basin[~accept]
    return out


def _check_finite(x: np.ndarray, traj_seeds: np.ndarray):
    if np.isnan(x).any():
        bad = int(np.flatnonzero(np.isnan(x))[0])
        raise FloatingPointError(
            f"trajectory {bad} (chunk {bad // _CHUNK}, column {bad % _CHUNK}, "
            f"stream seed {traj_seeds[bad]}) diverged")


def check_timestep(pot: PotentialSpec, schedule: ProtocolSchedule, dt: float):
    """Reject dt above a tenth of the stiffest relaxation time 1 / max |V''|
    on the path."""
    curv = max(pot.curvature_bound(tuple(row)) for row in schedule.knots)
    limit = 0.1 / curv
    if dt > limit:
        raise UnstableTimestepError(
            f"dt = {dt:.2e} exceeds the stability budget {limit:.2e} "
            f"(max |V''| = {curv:.1f})")


def check_protocol(pot: PotentialSpec, schedule: ProtocolSchedule,
                   params: EnsembleParams):
    """Reject a protocol that starts or ends without a memory, whose dt is
    unstable, or that takes more than MAX_STEPS steps."""
    # compared before rounding: in Python floats a huge quotient is inf
    steps = float(schedule.duration) / float(params.dt)
    if steps > MAX_STEPS:
        raise ValueError(f"duration / dt = {steps:.3g} exceeds the cap of "
                         f"{MAX_STEPS} steps")
    require_barrier(pot, params.temperature, tuple(schedule.knots[0]))
    require_barrier(pot, params.temperature, tuple(schedule.knots[-1]))
    check_timestep(pot, schedule, params.dt)


def simulate_erasure(pot: PotentialSpec, schedule: ProtocolSchedule,
                     params: EnsembleParams) -> TrajectoryEnsemble:
    """Integrate the ensemble through the protocol and account the work.

    Euler-Maruyama: x <- x - V'(x) dt + sqrt(2 T dt) xi.
    Work is charged at parameter updates only, so a frozen protocol yields
    exactly zero work on every trajectory.

    Random numbers come in chunks of 128 trajectories: trajectory i belongs
    to chunk k = i // 128, whose stream is SFC64 seeded by
    SeedSequence(seed, spawn_key=(k,)), the k-th child of
    SeedSequence(seed).spawn.  That stream draws, in order, the chunk's
    initial basins and rejection rounds (`_sample_initial_positions`), then
    its noise as float32 uniforms, step by step: for a chunk of width w and
    h = ceil(w / 2), h radius uniforms then h angle uniforms, which
    `_fill_noise` turns by Box-Muller into the kicks of columns c and c + h.
    A full chunk's trajectories thus depend only on (seed, k), not on
    n_traj or on which thread fills the chunk, and a chunk replays on its
    own; a partial last chunk also depends on its width.
    `trajectory_seeds[i]` is the first 64-bit word of chunk k's seed state,
    shared by its trajectories.

    The noise comes in blocks of 512 steps held in two alternating buffers:
    one fill thread draws block i + 1 while the main thread steps block i,
    and the main thread takes the chunks of block i + 1 the fill thread has
    not reached before it joins the fill.  The fill of block i + 2 starts
    only after that join, into block i's buffer.  The coefficients are
    evaluated per block, so memory does not grow with the step count (at
    most MAX_STEPS).  The fill thread ends before this function returns or
    raises.
    """
    check_protocol(pot, schedule, params)
    t_bath = params.temperature
    n_steps = int(round(schedule.duration / params.dt))

    n_chunks = -(-params.n_traj // _CHUNK)
    seqs = np.random.SeedSequence(params.seed).spawn(n_chunks)
    generators = [np.random.Generator(np.random.SFC64(s)) for s in seqs]
    chunk_seeds = np.array([s.generate_state(1, np.uint64)[0] for s in seqs],
                           dtype=np.uint64)
    traj_seeds = np.repeat(chunk_seeds, _CHUNK)[:params.n_traj]

    x = _sample_initial_positions(pot, t_bath, params.initial_weights, generators,
                                  params.n_traj)
    works = np.zeros(params.n_traj)
    drift = params.dt
    kick = np.float32(np.sqrt(2.0 * t_bath * params.dt))
    buffers = [np.empty((_NOISE_BLOCK, params.n_traj), dtype=np.float32) for _ in range(2)]
    x2 = np.empty_like(x)
    tmp = np.empty_like(x)

    def start_fill(pool, j):
        """Hand the block that starts at step j to the fill thread."""
        count = min(_NOISE_BLOCK, n_steps - j)
        noise = buffers[j // _NOISE_BLOCK % 2]
        # next() on a range iterator is atomic under the GIL, so the fill
        # thread and the main thread never take the same chunk
        chunks = iter(range(n_chunks))
        return noise, chunks, count, pool.submit(
            _fill_noise, noise, generators, chunks, count, kick)

    np.multiply(x, x, out=x2)              # x2 holds x * x at the top of every step
    with ThreadPoolExecutor(1) as pool:
        pending = start_fill(pool, 0) if n_steps else None
        for j in range(n_steps):
            offset = j % _NOISE_BLOCK
            if offset == 0:
                noise, chunks, count, fill = pending
                # take the chunks the fill thread has not reached, then join it
                _fill_noise(noise, generators, chunks, count, kick)
                fill.result()
                # the next block goes to the other buffer, whose block was
                # stepped in the last round, and draws each chunk's stream
                # after this block has drawn it
                if j + count < n_steps:
                    pending = start_fill(pool, j + count)
                # the block's coefficients at grid points j .. j + count, as
                # Python floats: the same doubles, cheaper to unpack and to
                # combine than numpy scalars
                lam = schedule.coefficients_at((j + np.arange(count + 1)) * params.dt)
                steps = lam[:-1].tolist()
                increments = np.diff(lam, axis=0).tolist()
                _check_finite(x, traj_seeds)
            a, b, c = steps[offset]
            np.multiply(x2, x, out=tmp)
            tmp *= -4.0 * a * drift            # -dt * 4a x^3
            x *= 1.0 + 2.0 * b * drift         # x + dt * 2b x
            x += tmp
            if c != 0.0:
                x -= c * drift
            x += noise[offset]                 # already scaled by the kick
            np.maximum(x, pot.x_min, out=x)    # clamp; cheaper than np.clip
            np.minimum(x, pot.x_max, out=x)
            np.multiply(x, x, out=x2)          # for the work below and the next drift
            da, db, dc = increments[offset]
            if da != 0.0 or db != 0.0 or dc != 0.0:
                if da != 0.0:
                    np.multiply(x2, x2, out=tmp)
                    tmp *= da
                    works += tmp
                if db != 0.0:
                    np.multiply(x2, -db, out=tmp)
                    works += tmp
                if dc != 0.0:
                    np.multiply(x, dc, out=tmp)
                    works += tmp
    _check_finite(x, traj_seeds)

    top_final = pot.barrier_top(tuple(schedule.coefficients_at(n_steps * params.dt)[0]))
    basins = (x >= top_final).astype(int)
    return TrajectoryEnsemble(
        params=params,
        works=works,
        final_positions=x,
        final_basins=basins,
        trajectory_seeds=traj_seeds,
    )


@dataclass(frozen=True)
class JarzynskiReport:
    """Exponential-average free-energy estimate vs an independent expectation."""

    estimator: float
    expected: float
    stderr: float
    z_score: float
    effective_sample_size: float
    flagged: bool            # |z| > 3
    low_ess_warning: bool    # effective sample size < 10

    def to_json(self) -> dict:
        return {
            "estimator": self.estimator,
            "expected": self.expected,
            "stderr": self.stderr,
            "z_score": self.z_score,
            "effective_sample_size": self.effective_sample_size,
            "flagged": self.flagged,
            "low_ess_warning": self.low_ess_warning,
        }


_BOOTSTRAP = 200


def _log_mean_exp(values: np.ndarray) -> float:
    m = values.max()
    return float(m + np.log(np.mean(np.exp(values - m))))


def jarzynski_check(ensemble: TrajectoryEnsemble, delta_f: float) -> JarzynskiReport:
    """Compare -T ln <e^{-W/T}> at the ensemble's temperature against an
    independently computed delta_f.

    The expectation presumes an equilibrium initial ensemble; the z-score is
    measured against a seeded bootstrap standard error of the estimator,
    from _BOOTSTRAP resamples.
    """
    t = ensemble.params.temperature
    w = ensemble.works
    scaled = -w / t
    estimator = -t * _log_mean_exp(scaled)

    rng = np.random.default_rng([ensemble.params.seed, 74])
    n = w.size
    boots = np.empty(_BOOTSTRAP)
    for i in range(_BOOTSTRAP):
        idx = rng.integers(0, n, size=n)
        boots[i] = -t * _log_mean_exp(scaled[idx])
    stderr = float(boots.std(ddof=1))

    weights = np.exp(scaled - scaled.max())
    ess = float(weights.sum() ** 2 / np.sum(weights ** 2))
    z = (estimator - delta_f) / stderr if stderr > 0 else 0.0
    return JarzynskiReport(
        estimator=float(estimator),
        expected=float(delta_f),
        stderr=stderr,
        z_score=float(z),
        effective_sample_size=ess,
        flagged=bool(abs(z) > 3.0),
        low_ess_warning=bool(ess < 10.0),
    )
