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

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from numpy.polynomial.legendre import leggauss

from .operators import MalformedPayloadError, temperature_value
from .parallel import in_two, two_cores

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
    [-x_max, x_max]."""

    coefficients: tuple[float, float, float]
    x_max: ClassVar[float] = 2.85

    def __post_init__(self):
        a, b, c = (float(v) for v in self.coefficients)
        if not a > 0:
            raise ValueError(f"quartic coefficient must be positive, got {a}")
        object.__setattr__(self, "coefficients", (a, b, c))

    def value(self, x):
        a, b, c = self.coefficients
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return a * x2 * x2 - b * x2 + c * x

    def critical_points(self) -> np.ndarray:
        a, b, c = self.coefficients
        roots = np.roots([4.0 * a, 0.0, -2.0 * b, c])
        real = roots[np.abs(roots.imag) < 1e-9].real
        inside = real[np.abs(real) < self.x_max]
        return np.sort(inside)

    def barrier_top(self) -> float:
        """Position of the interior maximum separating the two basins."""
        a, b, _ = self.coefficients
        points = self.critical_points()
        curv = 12.0 * a * points * points - 2.0 * b
        tops = points[curv < 0]
        if tops.size != 1:
            raise SingleWellError(
                f"potential {self.coefficients} has no unique interior maximum")
        return float(tops[0])

    def barrier_height(self) -> float:
        """min over basins of V(top) - V(basin minimum)."""
        top = self.barrier_top()
        points = self.critical_points()
        minima = points[points != top]
        depths = self.value(top) - self.value(minima)
        return float(depths.min())


def symmetric_double_well(a: float = 1.0, b: float = 6.5) -> PotentialSpec:
    return PotentialSpec((a, b, 0.0))


def require_barrier(pot: PotentialSpec, temperature: float,
                    factor: float = BARRIER_MIN_FACTOR):
    height = pot.barrier_height()
    if height < factor * temperature:
        raise ValueError(
            f"barrier {height:.3f} below the required {factor:.1f} * T "
            f"= {factor * temperature:.3f}")


@dataclass(frozen=True)
class BasinFreeEnergies:
    """Quadrature free energies of the two basins and the left basin's
    equilibrium weight."""

    f_left: float
    f_right: float
    p_eq_left: float


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
    with np.errstate(over="ignore"):  # an infinite Z is refused by the caller
        return float(np.sum(half * weights * np.exp(-(pot.value(x) - v_min) / temperature)))


def basin_free_energies(pot: PotentialSpec, temperature: float = 1.0,
                        barrier_factor: float = BARRIER_MIN_FACTOR) -> BasinFreeEnergies:
    """F_k = -T ln Z_k, Z_k the integral of e^{-V/T} over each basin.

    Z_k comes from a composite Gauss-Legendre rule on 8 panels over the
    part of the basin where V - V_min <= 60 T, so the panels shrink with
    the well and a narrow, deep well is resolved; the cut drops only where
    the integrand is below e^{-60} of its peak.  The same rule on 4
    panels is an always-on cross-check: an ArithmeticError is raised when
    Z_k is not positive and finite, or when the two differ by more than
    1e-8 relative.
    """
    require_barrier(pot, temperature, factor=barrier_factor)
    top = pot.barrier_top()
    points = pot.critical_points()
    free = []
    for lo, hi in ((-pot.x_max, top), (top, pot.x_max)):
        left, right, v_min = _basin_window(pot, lo, hi, points, temperature)
        z = _gauss_legendre(pot, left, right, v_min, temperature, _PANELS)
        coarse = _gauss_legendre(pot, left, right, v_min, temperature, _PANELS // 2)
        # an overflow makes z infinite, and then the comparison below is False
        if not 0.0 < z < np.inf:
            raise ArithmeticError(f"basin quadrature: Z = {z} on [{left}, {right}] "
                                  "is not positive and finite")
        if abs(z - coarse) > 1e-8 * z:
            raise ArithmeticError("basin quadrature: the 8- and 4-panel rules differ "
                                  f"by {abs(z - coarse) / z:.1e} relative, beyond 1e-8")
        free.append(v_min - temperature * np.log(z))
    f_left, f_right = free
    return BasinFreeEnergies(
        f_left=float(f_left),
        f_right=float(f_right),
        # Z_left / (Z_left + Z_right), without forming either Z
        p_eq_left=float(np.exp(-np.logaddexp(0.0, (f_left - f_right) / temperature))),
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

    The Illinois method (regula falsi that halves the function value at an
    end kept twice in a row) to a bracket of 1e-12 on
    g(c) = (F_right - F_left) / T - ln(ratio), with a bisection step
    wherever the secant point is not strictly inside the bracket; a
    ValueError when the bracket does not change its sign.
    """
    if not (np.isfinite(ratio) and ratio > 0):
        raise ValueError(f"ratio must be positive and finite, got {ratio}")

    def g(c) -> float:
        r = basin_free_energies(PotentialSpec((a, b, c)), temperature,
                                barrier_factor=0.0)
        return (r.f_right - r.f_left) / temperature - np.log(ratio)

    lo, hi = -2.0, 2.0
    g_lo, g_hi = g(lo), g(hi)
    if (g_lo > 0) == (g_hi > 0):
        raise ValueError(f"no tilt in [{lo}, {hi}] gives the basin weight ratio {ratio}")
    kept = None                            # the end kept by the last step
    while hi - lo > 1e-12:
        mid = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        if not lo < mid < hi:
            mid = 0.5 * (lo + hi)
        g_mid = g(mid)
        if g_mid == 0.0:
            return PotentialSpec((a, b, mid))
        if (g_mid > 0) == (g_hi > 0):
            hi, g_hi = mid, g_mid
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
        else:
            lo, g_lo = mid, g_mid
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
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
        if not (np.isfinite(self.duration) and np.isfinite(times).all()
                and np.isfinite(knots).all()):
            raise ValueError("schedule duration, times and coefficients must be finite")
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
    graded = np.linspace(0.0, 1.0, 9)[1:]
    # one row a stage: its end as a fraction of the duration, its grade of
    # points u in (0, 1] and its knot at u, placed at start + (end - start) u
    stages = (
        (0.04, (1.0,), lambda u: [a, b, 0.0]),                  # equalize
        # barrier drop graded as b ~ (1-u)^2 so the well positions (at
        # +-sqrt(b/2a)) travel at constant speed instead of collapsing
        # singularly at the merge
        (0.46, graded, lambda u: [a, b * (1.0 - u) ** 2, 0.0]),  # drop
        # tilt graded as c ~ u^3 so the single-well minimum (at
        # -(c/4a)^(1/3)) departs at constant speed
        (0.88, graded, lambda u: [a, 0.0, push_tilt * u ** 3]),  # push
        # barrier restore along c = push (1 - b/b0): the left minimum stays fixed
        (0.95, (1.0,), lambda u: [a, b, 0.0]),                  # restore
        (1.0, (1.0,), lambda u: [a, b, c0]),                    # re-tilt
    )
    times, knots, start = [0.0], [[a, b, c0]], 0.0
    for end, grade, knot in stages:
        for u in grade:
            times.append(start + (end - start) * u)
            knots.append(knot(u))
        start = end
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
        # a NaN or infinite weight fails the sum's test
        if len(w) != 2 or not abs(w[0] + w[1] - 1.0) <= 1e-12 or min(w) < 0:
            raise ValueError("initial_weights must be a two-entry distribution")


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Per-trajectory works and final basins with ensemble summaries."""

    params: EnsembleParams
    works: np.ndarray
    final_positions: np.ndarray
    final_basins: np.ndarray       # 0 = left (standard), 1 = right
    trajectory_seeds: np.ndarray   # seed word of each trajectory's chunk stream
    clamp_hits: int                # positions the domain clamp moved, over all steps

    @property
    def mean_work(self) -> float:
        return float(self.works.mean())

    @property
    def stderr(self) -> float:
        if self.works.size < 2:
            return 0.0
        # works near 1e154 overflow the variance to inf, which no output prints
        with np.errstate(over="ignore"):
            return float(self.works.std(ddof=1) / np.sqrt(self.works.size))

    @property
    def success_fraction(self) -> float:
        return float((self.final_basins == 0).mean())


_NOISE_BLOCK = 512  # steps drawn per block: a whole number of words per chunk
_CHUNK = 128  # trajectories per random stream; part of the output's definition
# float64 kicks per tile: 2^15 of them take 256 KiB, so the tile stays in a
# core's L2 cache from its expansion until its rows are added, one a step
_TILE = 2 ** 15
# an ensemble of this many chunks or more is integrated by two processes:
# on 2 cores a run of 2000 steps is slower split up to 1024 trajectories,
# and faster from 2048 on
_SPLIT_CHUNKS = 16


def _kick_table(kick: np.float32) -> np.ndarray:
    """The (256, 8) float64 table whose row v holds the kicks of byte v's
    bits, most significant first: bit 0 gives +kick, bit 1 gives -kick,
    each float64(+-kick) exactly."""
    bits = np.arange(256)[:, None] >> np.arange(7, -1, -1) & 1
    return np.array([kick, -kick], dtype=np.float64)[bits]


def _draw_block(generators, count: int, n_traj: int) -> np.ndarray:
    """Draw the noise of `count` steps from every chunk's stream.

    Chunk k of width w draws ceil(count w / 64) 64-bit words from its own
    stream in one `random_raw` call.  Their bytes, in little-endian order,
    give count w bits, most significant bit first, read row-major as the
    chunk's (count, w) block of increments.  A 512-step block takes exactly
    8 w words, so a trajectory's increments do not depend on the block
    length or on any other chunk.

    Returns every chunk's bits as one (count, 16 n_chunks) byte array, row
    i holding step i's bits in column order and chunk k's in its bytes
    [16k, 16k + 16).  A partial last chunk's rows, which do not start on a
    byte, are re-packed so that each does, into the first ceil(w / 8) of
    its 16 bytes; the bytes past them are left unset and never read.
    """
    bits = np.empty((count, len(generators), _CHUNK // 8), np.uint8)
    for k, generator in enumerate(generators):
        n = count * min(_CHUNK, n_traj - k * _CHUNK)
        words = generator.bit_generator.random_raw(-(-n // 64))
        octets = words.astype("<u8", copy=False).view(np.uint8)
        if n < count * _CHUNK:
            octets = np.packbits(np.unpackbits(octets, count=n).reshape(count, -1), axis=1)
        bits[:, k, :octets.size // count] = octets.reshape(count, -1)
    return bits.reshape(count, -1)


def _expand_tile(table: np.ndarray, octets: np.ndarray, tile: np.ndarray):
    """Expand at most a tile's height of steps of `_draw_block`'s bytes, a
    row a step, through `table` into the leading rows of the reused float64
    `tile`, in one `np.take`."""
    rows = tile[:octets.shape[0]]
    np.take(table, octets, 0, rows.reshape(*octets.shape, 8), "clip")


def _sample_initial_positions(pot: PotentialSpec, temperature: float,
                              weights, generators, n_traj: int) -> np.ndarray:
    """Basin mixture, canonical within each basin, by rejection sampling.

    Chunk k draws from its own stream its trajectories' basins, then rounds
    of candidate positions and acceptance variates for the trajectories
    still pending, until all are accepted.  A round draws from every chunk
    with a trajectory pending, each from its own stream with the calls of
    a chunk taken alone, and accepts for all of them at once.
    """
    top = pot.barrier_top()
    lo = np.array([-pot.x_max, top])
    hi = np.array([top, pot.x_max])
    floors = np.array([pot.value(np.linspace(l, h, 512)).min() for l, h in zip(lo, hi)])
    out = np.empty(n_traj)
    pending = np.arange(n_traj)            # in chunk order, a chunk's columns together
    widths = np.bincount(pending // _CHUNK)
    basin = np.concatenate([gen.random(w) >= weights[0]
                            for gen, w in zip(generators, widths)]).astype(np.intp)
    while pending.size:
        counts = np.bincount(pending // _CHUNK, minlength=len(generators))
        live = np.flatnonzero(counts).tolist()
        edges = np.cumsum(counts[live])[:-1]
        x = np.concatenate([generators[k].uniform(low, high) for k, low, high in zip(
            live, np.split(lo[basin], edges), np.split(hi[basin], edges))])
        u = np.concatenate([generators[k].random(counts[k]) for k in live])
        accept = u < np.exp(-(pot.value(x) - floors[basin]) / temperature)
        out[pending[accept]] = x[accept]
        pending, basin = pending[~accept], basin[~accept]
    return out


def _charge_segment(works: np.ndarray, sums: np.ndarray, rates):
    """Add a segment's work, its rates times its running sums of x^4, x^2
    and x, to ``works`` and zero the sums; a zero rate adds nothing."""
    for rate, total in zip(rates, sums):
        if rate != 0.0:
            works += total * rate
            total.fill(0.0)


def check_timestep(schedule: ProtocolSchedule, dt: float):
    """Reject dt above a tenth of the stiffest relaxation time 1 / max |V''|
    on the path: |V''| = |12 a x^2 - 2 b| peaks at a domain end or at x = 0."""
    a, b = schedule.knots[:, 0], schedule.knots[:, 1]
    edge = PotentialSpec.x_max * PotentialSpec.x_max
    curv = float(np.max(np.maximum(np.abs(12.0 * a * edge - 2.0 * b), np.abs(2.0 * b))))
    limit = 0.1 / curv
    if dt > limit:
        raise UnstableTimestepError(
            f"dt = {dt:.2e} exceeds the stability budget {limit:.2e} "
            f"(max |V''| = {curv:.1f})")


def _may_leave_domain(rows: np.ndarray, dt: float, kick: float,
                      x_max: float) -> np.ndarray:
    """Flag each step, given by its coefficient row (a, b, c), that could
    take a position of [-x_max, x_max] out of it.

    `check_timestep` keeps dt |V''| <= 0.1 on the domain along the whole
    path (|V''| is convex in the coefficients, so its knots bound it), so
    the drift map x (1 + 2b dt - 4a dt x^2) - c dt is increasing there and
    no step from the domain reaches beyond
    x_max (1 + 2b dt - 4a dt x_max^2) + |c| dt + kick.  A step whose reach
    stays 1e-9 inside x_max cannot leave the domain, since rounding moves
    a step by a few ulp; every other is flagged.  `_segment_plan` passes knots.
    """
    a, b, c = rows.T
    reach = (x_max * (1.0 + 2.0 * b * dt - 4.0 * a * dt * (x_max * x_max))
             + np.abs(c) * dt + kick)
    return ~(reach < x_max - 1e-9)


def check_protocol(schedule: ProtocolSchedule, params: EnsembleParams):
    """Reject a protocol that starts or ends without a memory, whose dt is
    unstable, or that takes no step or more than MAX_STEPS steps."""
    # compared before rounding, since in Python floats a huge quotient is
    # inf; round() takes a half to 0, so a run takes a step when steps > 0.5
    steps = float(schedule.duration) / float(params.dt)
    if not 0.5 < steps <= MAX_STEPS:
        raise ValueError(f"duration / dt = {steps:.3g} must round to between 1 and "
                         f"{MAX_STEPS} steps")
    for knot in (schedule.knots[0], schedule.knots[-1]):
        require_barrier(PotentialSpec(tuple(knot)), params.temperature)
    check_timestep(schedule, params.dt)


def _segment_plan(schedule: ProtocolSchedule, dt: float, kick: float, x_max: float):
    """Each segment's work rates and step flags, built once per call of
    `_integrate`: `_step_block` tells segments apart by their rates' identity.

    rates[s] is the work per step per unit of x^4, x^2 and x, the slope of
    (a, -b, c) times dt, since dV/d(a, b, c) = (x^4, -x^2, x).  flags[s] =
    (shifted, guarded) is set where c is non-zero, or `_may_leave_domain`
    flags the row, at either knot: the reach is affine in a and b and convex
    in c, so no step of s reaches past both knots' beyond the 1e-9 margin.
    """
    rates = (np.diff(schedule.knots, axis=0) / np.diff(schedule.times)[:, None]
             * dt * [1.0, -1.0, 1.0]).tolist()
    held = np.stack([schedule.knots[:, 2] != 0.0,       # each knot's flags
                     _may_leave_domain(schedule.knots, dt, kick, x_max)], axis=1)
    return rates, (held[:-1] | held[1:]).tolist()


def _block_plan(schedule: ProtocolSchedule, rates: list, flags: list, j: int,
                count: int, dt: float, height: int) -> tuple[np.ndarray, list]:
    """The coefficients of the `count` steps from step j, from the schedule
    at grid points j .. j + count.

    `drift` holds each step's drift factors -4a dt, 1 + 2b dt and c dt in a
    row.  `runs` cuts [0, count) in order into runs
    (start, stop, rates, shifted, guarded).  Step i lies in segment s when
    T_s <= t_i and t_{i+1} <= T_{s+1}; a run of segment s is a longest
    stretch of its steps inside one tile of `height` steps from the block's
    start, with rates[s] and flags[s] (`_segment_plan`), so a segment that
    crosses a tile or block edge stays open across it.  A step across a
    knot is a run of its own, with a fresh tuple of its increments of
    lambda(t) on the step grid and the flags of its start's segment.
    """
    grid = (j + np.arange(count + 1)) * dt
    lam = schedule.coefficients_at(grid)
    a, b, c = lam[:-1].T
    drift = np.stack([-4.0 * a * dt, 1.0 + 2.0 * b * dt, c * dt], axis=1)
    first = np.searchsorted(schedule.times, grid[:-1], side="right") - 1
    last = np.searchsorted(schedule.times, grid[1:], side="left") - 1
    segment = np.where(first == last, first, -1)     # -1 for a step across a knot
    edges = (segment < 0) | (np.diff(segment, prepend=-1) != 0)
    edges[::height] = True
    starts = np.flatnonzero(edges)
    runs = [(start, stop, rates[s] if s >= 0 else
             tuple(((lam[start + 1] - lam[start]) * [1.0, -1.0, 1.0]).tolist()), *flags[f])
            for start, stop, s, f in zip(starts.tolist(), [*starts[1:].tolist(), count],
                                         segment[starts].tolist(), first[starts].tolist())]
    return drift, runs


def _step_block(x, works, sums, factors, runs, table, bits, tile, rows, open_rates,
                x_max):
    """Step x in place through one noise block; return the rates of the
    segment left open and the number of positions the clamp moved.

    Euler-Maruyama: x <- x - V'(x) dt + sqrt(2 T dt) xi with xi = +-1, the
    drift step x (1 + 2b dt - 4a dt x^2) in Horner form, then x clamped to
    [-x_max, x_max].  The block goes run by run (`_block_plan`); a run that
    starts on a tile edge first expands the next tile of `bits`
    (`_expand_tile`).  Step i reads its drift factors through `factors[i]`,
    0-d views of the caller's copy of `_block_plan`'s drift, and adds a row
    of `tile`, viewed through `rows` as its first n_traj columns, to x in
    place; adding float64(+-kick) is what adding the float32 kick to x
    computes.  Only a step of a guarded run clamps, and only where
    max x^2 >= x_max^2, which any position outside the domain trips; no step
    of an unguarded segment can leave the domain (`_segment_plan`), so the
    positions are those of clamping every step.

    A step inside one linear segment of the schedule adds x^4, x^2 or x to
    the running `sums`, for each coefficient the segment varies; the sums
    are charged to `works` at the segment's rates before a run of other
    rates than `open_rates`, so a segment that crosses a tile or block edge
    is charged once, by a later run, block or the caller.
    """
    height = tile.shape[0]
    bound = x_max * x_max
    x2 = np.square(x)                      # the same product the last step left
    tmp = np.empty_like(x)
    sum4, sum2, sum1 = sums
    clamp_hits = 0
    # only an overflow is silenced: an x^2 that overflows belongs to a
    # position past the domain's edge, which the guarded clamp moves and
    # squares again
    with np.errstate(over="ignore"):
        for start, stop, r, shifted, guarded in runs:
            if r is not open_rates:
                _charge_segment(works, sums, open_rates)
                open_rates = r
            add4, add2, add1 = (rate != 0.0 for rate in r)
            offset = start % height
            if not offset:
                _expand_tile(table, bits[start:start + height], tile)
            for (quartic, linear, shift), row in zip(factors[start:stop],
                                                     rows[offset:offset + stop - start]):
                np.multiply(x2, quartic, tmp)
                tmp += linear
                x *= tmp                       # x + dt (2b x - 4a x^3), by Horner
                if shifted:
                    x -= shift
                x += row                       # already scaled by the kick
                np.square(x, x2)               # for the work below and the next drift
                # only a guarded step can leave the domain; every |x| > x_max
                # has x^2 >= x_max^2 after rounding, so the clamp moves no
                # position unless this trips; a NaN does not trip it
                if guarded and np.maximum.reduce(x2) >= bound:
                    clamp_hits += np.count_nonzero((x < -x_max) | (x > x_max))
                    # numpy 2.4 deprecates a positional out for these two
                    np.maximum(x, -x_max, out=x)
                    np.minimum(x, x_max, out=x)
                    np.square(x, x2)
                if add4:
                    np.square(x2, tmp)
                    sum4 += tmp
                if add2:
                    sum2 += x2
                if add1:
                    sum1 += x
    return open_rates, clamp_hits


def _integrate(pot: PotentialSpec, schedule: ProtocolSchedule, params: EnsembleParams,
               generators: list, offset: int) -> tuple:
    """Sample and step the trajectories of the chunks of `generators`, those
    of the ensemble from `offset` on; return their final positions, their
    works, the number of positions the clamp moved and `diverged`: None, or
    the steps (first, end) of the first block that left a position NaN, the
    block the positions and works stopped after."""
    dt = params.dt
    n_steps = int(round(schedule.duration / dt))
    n_traj = min(len(generators) * _CHUNK, params.n_traj - offset)
    x = _sample_initial_positions(pot, params.temperature, params.initial_weights,
                                  generators, n_traj)
    works = np.zeros(n_traj)
    kick = np.float32(np.sqrt(2.0 * params.temperature * dt))
    table = _kick_table(kick)
    # every chunk's 128 columns, in rows of about _TILE kicks: 128 rows at
    # 256 trajectories, 3 at 10^4, and one row past 2^15 columns
    width = len(generators) * _CHUNK
    tile = np.empty((max(1, _TILE // width), width))
    # views made once, of the tile rows' first n_traj columns and of each
    # step's drift factors in `drift`: numpy reads a 0-d array faster than
    # it converts a float
    rows = [row[:n_traj] for row in tile]
    drift = np.empty((_NOISE_BLOCK, 3))
    factors = [tuple(drift[i, k, ...] for k in range(3)) for i in range(_NOISE_BLOCK)]
    clamp_hits = 0
    rates, flags = _segment_plan(schedule, dt, float(kick), pot.x_max)
    sums = np.zeros((3, n_traj))           # running sums of x^4, x^2, x in a segment
    open_rates = ()                        # the rates of the segment whose sums are open
    for j in range(0, n_steps, _NOISE_BLOCK):
        count = min(_NOISE_BLOCK, n_steps - j)
        bits = _draw_block(generators, count, n_traj)
        drift[:count], runs = _block_plan(schedule, rates, flags, j, count, dt,
                                          tile.shape[0])
        open_rates, hits = _step_block(x, works, sums, factors, runs, table, bits, tile,
                                       rows, open_rates, pot.x_max)
        clamp_hits += hits
        if np.isnan(x).any():
            return x, works, clamp_hits, (j, j + count)
    _charge_segment(works, sums, open_rates)
    return x, works, clamp_hits, None


def _integrate_parts(pot: PotentialSpec, schedule: ProtocolSchedule,
                     params: EnsembleParams, generators: list) -> list:
    """`_integrate` over every chunk, as a list of its parts in chunk order.

    An ensemble of `_SPLIT_CHUNKS` chunks or more, in a process allowed to
    run on two cores or more, comes in two parts: a forked worker process
    integrates the upper half of the chunks and this one the lower half
    (`parallel.in_two`, which raises the worker's exception here; where no
    process can be started, it integrates both halves here, the lower
    first).  Otherwise, and on a host without `os.sched_getaffinity`, the
    ensemble is one part, integrated here: one full-width part is faster
    than two halves in a row.
    """
    if not (len(generators) >= _SPLIT_CHUNKS and two_cores()):
        return [_integrate(pot, schedule, params, generators, 0)]
    half = -(-len(generators) // 2)
    return list(in_two(
        lambda: _integrate(pot, schedule, params, generators[:half], 0),
        lambda: _integrate(pot, schedule, params, generators[half:], half * _CHUNK)))


def simulate_erasure(pot: PotentialSpec, schedule: ProtocolSchedule,
                     params: EnsembleParams) -> TrajectoryEnsemble:
    """Integrate the ensemble through the protocol and account the work.

    Each step is Euler-Maruyama with the domain clamp (`_step_block`).
    Work is charged at parameter updates only, as the Stieltjes sum
    W = sum_j dV/dlambda(x_{j+1}) . (lambda_{j+1} - lambda_j), so a frozen
    protocol yields exactly zero work on every trajectory.  The sums of a
    linear segment [T_s, T_{s+1}] of the schedule are charged at the
    segment's slope times dt when the segment ends.  A step that straddles
    a knot is a one-step segment of its own, whose rates are its increments
    of lambda(t) on the step grid (`_block_plan`).

    Random numbers come in chunks of 128 trajectories: trajectory i belongs
    to chunk k = i // 128, whose stream is SFC64 seeded by
    SeedSequence(seed, spawn_key=(k,)), the k-th child of
    SeedSequence(seed).spawn.  That stream draws, in order, the chunk's
    initial basins and rejection rounds (`_sample_initial_positions`), then
    its noise as raw 64-bit words, one bit per increment: `_draw_block`
    reads each block's bits row-major, step by step and column by column
    within the chunk, and bit 0 gives +kick and bit 1 gives -kick, with
    kick = sqrt(2 T dt) in float32.  This two-point law, xi = +-1 with
    probability 1/2 each, is the simplified weak Euler scheme (Kloeden &
    Platen, Numerical Solution of SDEs, 14.1): xi has a unit normal's
    first three moments, and ensemble averages keep weak order 1.  A full
    chunk's trajectories thus depend only on (seed, k), not on n_traj, and
    a chunk replays on its own; a partial last chunk also depends on its
    width.  `trajectory_seeds[i]` is the first 64-bit word of chunk k's
    seed state, shared by its trajectories.

    Trajectories never interact, so a range of chunks can be integrated
    anywhere (`_integrate`).  An ensemble of 16 chunks or more, in a process
    allowed to run on two cores or more, is split in two: one forked worker
    process takes the upper half of the chunks and this one the lower half
    (`_integrate_parts`, through the fork helper `parallel.in_two`), and the
    results are the same bits.  Otherwise, and on a host without
    `os.sched_getaffinity`, every chunk is integrated in this process.  No
    thread is started.  Each part decides each segment's work rates and
    step flags once (`_segment_plan`) and takes its steps in blocks of 512:
    it draws a block's bits (`_draw_block`, 64 bytes a trajectory in whole
    16-byte chunks), plans its runs of one segment within one tile
    (`_block_plan`) and steps it run by run (`_step_block`), expanding its
    bits a tile at a time through a 256-row table of each byte's kicks into
    one reused float64 tile of about 2^15 kicks (`_expand_tile`), and stops
    after the first block that leaves a position NaN.  The coefficients are
    evaluated per block, so memory does not grow with the step count.

    A divergence raises one FloatingPointError, whatever the number of
    parts.  It names the earliest block after which a part stopped and,
    among the parts that stopped after it, the lowest trajectory index with
    a NaN position, with its chunk, column and stream seed.
    """
    check_protocol(schedule, params)
    n_chunks = -(-params.n_traj // _CHUNK)
    seqs = np.random.SeedSequence(params.seed).spawn(n_chunks)
    generators = [np.random.Generator(np.random.SFC64(s)) for s in seqs]
    chunk_seeds = np.array([s.generate_state(1, np.uint64)[0] for s in seqs],
                           dtype=np.uint64)
    traj_seeds = np.repeat(chunk_seeds, _CHUNK)[:params.n_traj]

    positions, works, hits, blocks = zip(*_integrate_parts(pot, schedule, params,
                                                           generators))
    starts = np.cumsum([0, *map(len, positions)])
    diverged = [(block, int(start + np.flatnonzero(np.isnan(x))[0]))
                for x, block, start in zip(positions, blocks, starts) if block]
    if diverged:
        (first, end), bad = min(diverged)
        raise FloatingPointError(
            f"trajectory {bad} (chunk {bad // _CHUNK}, column {bad % _CHUNK}, "
            f"stream seed {traj_seeds[bad]}) diverged in steps [{first}, {end})")
    x = np.concatenate(positions)

    n_steps = int(round(schedule.duration / params.dt))
    final = PotentialSpec(tuple(schedule.coefficients_at(n_steps * params.dt)[0]))
    basins = (x >= final.barrier_top()).astype(int)
    return TrajectoryEnsemble(
        params=params,
        works=np.concatenate(works),
        final_positions=x,
        final_basins=basins,
        trajectory_seeds=traj_seeds,
        clamp_hits=sum(hits),
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
    with np.errstate(over="ignore"):       # an infinite spread is refused on output
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
