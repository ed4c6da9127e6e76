"""Quench-and-relax protocol engine with work/heat accounting.

Measurement and erasure processes on a multi-branch memory are realized as
sequences of stages.  A stage walks a path of level-energy rows; at each row
the levels are quenched to it and the memory then relaxes:

* the quench leaves the distribution untouched; the work ledger receives
  sum_s p(s) [E_new(s) - E_old(s)];
* the relaxation moves the distribution to the canonical one, either within
  each branch (barrier in place) or across all branches (barrier removed);
  the heat ledger receives sum_s [p_new(s) - p_old(s)] E(s).

Every row of every stage goes through the same array evaluation.

Level energies are capped at E_CAP_FACTOR * T during raise schedules; the
population beyond the cap is below e^-50 and is accounted for as the erasure
residual, which may be at most EPS_RESIDUAL.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .measurement import MeasurementModel, qc_mutual_information, shannon_entropy
from .memory import (
    ERASURE_BOUND,
    MEASUREMENT_BOUND,
    RECONCILIATION_BOUND,
    SUM_BOUND,
    BoundReport,
    MemoryLayout,
    free_energy_change,
    random_layout,
    twobox_layout,
)
from .numerics import POLICY
from .operators import DensityOperator, temperature_value

E_CAP_FACTOR = 50.0
EPS_RESIDUAL = 1e-6  # weight a schedule may leave outside its target branch
SZILARD_STEPS = 10_000  # ramp steps of the Szilard engine's memory protocols

WITHIN = "within"
ACROSS = "across"


# the engine's own check failures: an ArithmeticError is a failed check
# (CLI exit 1), never bad input
class NotAnErasureError(ArithmeticError):
    """Schedule left more than the allowed residual outside the standard branch."""


class InvalidScheduleError(ArithmeticError):
    """Conditional schedule does not realize the requested branch state."""


@contextmanager
def _replay_label(suite: str, seed: int, index: int):
    """Name the suite instance a failed check came from, as `<suite>
    seed=<s> index=<i>` after its message; the exception keeps its class."""
    try:
        yield
    except ArithmeticError as exc:
        exc.args = (f"{exc} ({suite} seed={seed} index={index})",)
        raise


@dataclass(frozen=True)
class Stage:
    """Quench the levels to each row of ``path`` in turn, relaxing after each.

    ``path`` is an (m, n_levels) array of branch-major level energies; a 1-D
    vector is one row.  After each quench the memory relaxes across all
    branches (ACROSS) or within each branch (WITHIN).  A WITHIN stage keeps
    the branch weights it entered with: every row relaxes each branch to the
    canonical distribution of its levels at that entry weight.
    """

    path: np.ndarray
    scope: str = WITHIN

    def __post_init__(self):
        path = np.array(self.path, dtype=float, ndmin=2)
        if path.ndim != 2 or path.shape[0] == 0:
            raise ValueError("stage path needs at least one row of level energies")
        if self.scope not in (WITHIN, ACROSS):
            raise ValueError(f"unknown stage scope {self.scope!r}")
        path.setflags(write=False)
        object.__setattr__(self, "path", path)


@dataclass(frozen=True)
class ProtocolRecord:
    """Executed protocol with its energy bookkeeping.

    The first law holds exactly: final_energy - initial_energy = work + heat
    up to float accumulation.  Aggregated (outcome-averaged) records have no
    ``final_energies``.
    """

    layout: MemoryLayout
    temperature: float
    work: float
    heat: float
    initial_energy: float
    final_energy: float
    initial_distribution: np.ndarray
    final_distribution: np.ndarray
    final_energies: np.ndarray | None = None

    def first_law_residual(self) -> float:
        return (self.final_energy - self.initial_energy) - (self.work + self.heat)

    def branch_weights(self, which: str = "final") -> np.ndarray:
        dist = self.final_distribution if which == "final" else self.initial_distribution
        return np.array([dist[s].sum() for s in self.layout.branch_slices()])


def _gibbs(energies: np.ndarray, t: float) -> np.ndarray:
    """Canonical distribution of the last axis (one per row of a path)."""
    w = np.exp(-(energies - energies.min(axis=-1, keepdims=True)) / t)
    return w / w.sum(axis=-1, keepdims=True)


def _gibbs_within(slices: list[slice], energies: np.ndarray, t: float,
                  weights) -> np.ndarray:
    """Canonical within each branch slice at the given branch weights (per row)."""
    dist = np.empty_like(energies)
    for w, s in zip(weights, slices):
        dist[..., s] = w * _gibbs(energies[..., s], t)
    return dist


def branch_canonical_distribution(layout: MemoryLayout, temperature,
                                  branch_weights) -> np.ndarray:
    """Level populations: canonical within each branch, given branch weights."""
    t = temperature_value(temperature)
    p = np.asarray(branch_weights, dtype=float)
    if p.size != layout.outcome_count:
        raise ValueError("branch weight vector length must match the outcome count")
    return _gibbs_within(layout.branch_slices(), layout.level_energies(), t, p)


def run_schedule(layout: MemoryLayout, temperature, initial_distribution,
                 steps) -> ProtocolRecord:
    """Execute a sequence of stages and return the full work/heat record."""
    t = temperature_value(temperature)
    dist = np.asarray(initial_distribution, dtype=float).copy()
    if dist.size != layout.total_dim:
        raise ValueError("distribution length must match the layout dimension")
    energies = layout.level_energies().copy()
    slices = layout.branch_slices()

    initial_energy = float(dist @ energies)
    work = 0.0
    heat = 0.0
    for stage in steps:
        path = stage.path
        if path.shape[1] != energies.size:
            raise ValueError("stage path rows have the wrong length")
        if stage.scope == ACROSS:
            probs = _gibbs(path, t)
        else:
            probs = _gibbs_within(slices, path, t, [dist[s].sum() for s in slices])
        before_e = np.concatenate((energies[None], path[:-1]))
        before_p = np.concatenate((dist[None], probs[:-1]))
        # one term per row; with the running ledger folded into the first,
        # accumulate adds them in path order, as a loop would
        dw = np.vecdot(before_p, path - before_e)
        dq = np.vecdot(probs - before_p, path)
        dw[0] += work
        dq[0] += heat
        work = float(np.add.accumulate(dw)[-1])
        heat = float(np.add.accumulate(dq)[-1])
        energies, dist = path[-1].copy(), probs[-1].copy()
    final_energy = float(dist @ energies)
    return ProtocolRecord(
        layout=layout,
        temperature=t,
        work=work,
        heat=heat,
        initial_energy=initial_energy,
        final_energy=final_energy,
        initial_distribution=np.asarray(initial_distribution, dtype=float).copy(),
        final_distribution=dist,
        final_energies=energies,
    )


def _ramp_fractions(n_steps: int) -> np.ndarray:
    """Geometric energy ramp: fine steps at low energy, coarse near the cap."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    j = np.arange(1, n_steps + 1) / n_steps
    ratio = E_CAP_FACTOR  # cap expressed in units of T
    return (np.power(1.0 + ratio, j) - 1.0) / ratio


def _ramp(start: np.ndarray, end: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Rows (1 - f) start + f end of a linear energy path, one per fraction."""
    f = fractions[:, None]
    return start * (1.0 - f) + end * f


def _alignment_shifts(layout: MemoryLayout, t: float, p: np.ndarray,
                      e_max: float) -> np.ndarray:
    """Per-branch uniform shifts making the global Gibbs weights equal p.

    Branch 0 is the reference (shift 0).  Empty branches are parked at the
    cap directly.
    """
    f = layout.branch_free_energies(t)
    shifts = np.zeros(layout.outcome_count)
    for k in range(1, layout.outcome_count):
        if p[k] <= 1e-15:
            shifts[k] = e_max - layout.energies[k].min()
        else:
            shifts[k] = t * np.log(p[0] / p[k]) - f[k] + f[0]
    return shifts


def erasure_schedule(layout: MemoryLayout, temperature, branch_weights,
                     n_steps: int) -> list[Stage]:
    """Standard reset-to-branch-0 schedule saturating the erasure bound as n grows.

    Align the non-standard branches so the barrier can come out reversibly,
    raise them to the cap under across-branch thermalization, re-insert the
    barrier, and restore the original energies.
    """
    t = temperature_value(temperature)
    p = np.asarray(branch_weights, dtype=float)
    e_max = E_CAP_FACTOR * t
    base = layout.level_energies()
    branch = layout.branch_of_level()
    shifts = _alignment_shifts(layout, t, p, e_max)

    aligned = base + shifts[branch]
    target = np.where(branch != 0, e_max, aligned)
    path = np.vstack((aligned, _ramp(aligned, target, _ramp_fractions(n_steps))))
    return [Stage(path, ACROSS),
            Stage(path[-1]),  # barrier back in
            Stage(base)]      # restore the memory Hamiltonian


def run_erasure_protocol(layout: MemoryLayout, temperature, branch_weights,
                         schedule) -> tuple[ProtocolRecord, BoundReport]:
    """Run an erasure schedule and verify the work against T H(p) - dF.

    The initial state is canonical within each branch with the supplied
    branch weights.  A schedule leaving more than EPS_RESIDUAL outside the
    standard branch is rejected.
    """
    t = temperature_value(temperature)
    p = np.asarray(branch_weights, dtype=float)
    initial = branch_canonical_distribution(layout, t, p)
    record = run_schedule(layout, t, initial, schedule)

    if np.max(np.abs(record.final_energies - layout.level_energies())) > POLICY.validation:
        raise InvalidScheduleError("schedule must restore the original level energies")
    residual = 1.0 - record.branch_weights("final")[0]
    if residual > EPS_RESIDUAL:
        raise NotAnErasureError(
            f"residual probability {residual:.3e} outside the standard branch "
            f"exceeds {EPS_RESIDUAL:.1e}")

    rhs = t * shannon_entropy(p) - free_energy_change(layout.branch_free_energies(t), p)
    return record, BoundReport(ERASURE_BOUND, record.work, rhs)


def measurement_transport_schedule(layout: MemoryLayout, temperature, outcome: int,
                                   n_steps: int) -> list[Stage]:
    """Conditional schedule moving the memory from branch 0 to ``outcome``.

    Two ramps of n_steps each: the target branch descends from the cap to its
    levels (steps refined near the populated low-energy end), then the
    standard branch rises to the cap; both keep the population flow in the
    finely-stepped regime, so the dissipation stays O(1/n).
    """
    e_max = E_CAP_FACTOR * temperature_value(temperature)
    if outcome == 0:
        return []
    base = layout.level_energies()
    branch = layout.branch_of_level()
    up = _ramp_fractions(n_steps)
    down = 1.0 - np.concatenate(([0.0], up))[-2::-1]  # fine increments at the end

    parked = np.where(branch == 0, base, e_max)  # empty branches parked at the cap
    descended = np.where(branch == outcome, base, parked)
    path = np.vstack((parked, _ramp(parked, descended, down),
                      _ramp(descended, np.where(branch == 0, e_max, descended), up)))
    return [Stage(path, ACROSS), Stage(path[-1]), Stage(base)]


def run_measurement_process(layout: MemoryLayout, temperature,
                            model: MeasurementModel, rho_s: DensityOperator,
                            n_steps: int = 10_000
                            ) -> tuple[ProtocolRecord, BoundReport, float]:
    """Outcome-averaged work of storing a measurement result in the memory.

    The memory starts canonical in the standard branch; for outcome k the
    conditional schedule `measurement_transport_schedule(..., k, n_steps)`
    transports it to branch k, leaving at most EPS_RESIDUAL outside it.
    System-memory energy flows are charged to work, so the averaged ledger
    work is compared against -T (H - I) + dF.  Returns the averaged record,
    that bound's report, and the QC-mutual information I it used.
    """
    t = temperature_value(temperature)
    if model.outcome_count != layout.outcome_count:
        raise ValueError("measurement outcomes must match the memory branches")
    if not rho_s.is_diagonal():
        raise ValueError("classical mode requires a diagonal system state")
    probs = np.array([np.trace(e @ rho_s.entries).real for e in model.effects])
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()

    start = branch_canonical_distribution(
        layout, t, np.eye(layout.outcome_count)[0])
    components = []
    for k in range(layout.outcome_count):
        rec = run_schedule(layout, t, start,
                           measurement_transport_schedule(layout, t, k, n_steps))
        if probs[k] > 1e-15:
            landed = rec.branch_weights("final")[k]
            if 1.0 - landed > EPS_RESIDUAL:
                raise InvalidScheduleError(
                    f"conditional schedule {k} leaves weight {1.0 - landed:.3e} "
                    f"outside branch {k}")
        components.append(rec)

    work = float(sum(p * r.work for p, r in zip(probs, components)))
    heat = float(sum(p * r.heat for p, r in zip(probs, components)))
    record = ProtocolRecord(
        layout=layout,
        temperature=t,
        work=work,
        heat=heat,
        initial_energy=float(sum(p * r.initial_energy for p, r in zip(probs, components))),
        final_energy=float(sum(p * r.final_energy for p, r in zip(probs, components))),
        initial_distribution=start,
        final_distribution=sum(p * r.final_distribution for p, r in zip(probs, components)),
    )

    h = shannon_entropy(probs)
    info = qc_mutual_information(rho_s, model)
    rhs = -t * (h - info) + free_energy_change(layout.branch_free_energies(t), probs)
    return record, BoundReport(MEASUREMENT_BOUND, record.work, rhs), info


def verify_sum_bound(meas: ProtocolRecord, eras: ProtocolRecord, info: float,
                     temperature) -> BoundReport:
    """Combined bound: W_meas + W_eras >= T * I for a consistent record pair."""
    t = temperature_value(temperature)
    if abs(meas.temperature - t) > POLICY.validation or abs(eras.temperature - t) > POLICY.validation:
        raise ValueError("records were not computed at the requested temperature")
    if meas.layout.branch_dims != eras.layout.branch_dims or any(
        np.max(np.abs(a - b)) > POLICY.validation
        for a, b in zip(meas.layout.energies, eras.layout.energies)
    ):
        raise ValueError("records use different memory layouts")
    p_meas = meas.branch_weights("final")
    p_eras = eras.branch_weights("initial")
    if np.max(np.abs(p_meas - p_eras)) > 1e-6:
        raise ValueError("erasure initial weights differ from measurement outcome weights")
    return BoundReport(SUM_BOUND, meas.work + eras.work, t * info)


def reconcile_demon(w_extracted: float, delta_f_system: float,
                    meas: ProtocolRecord, eras: ProtocolRecord) -> BoundReport:
    """Second-law consistency of the full engine + memory cycle.

    lhs = W_ext^S - W_meas - W_eras must not exceed rhs = -dF^S.
    """
    lhs = w_extracted - meas.work - eras.work
    return BoundReport(RECONCILIATION_BOUND, lhs, -delta_f_system)


# ---------------------------------------------------------------------------
# Convergence diagnostics and randomized verification suites

def erasure_convergence(layout: MemoryLayout, temperature, branch_weights,
                        step_grid) -> list[dict]:
    """Rows (n_steps, W, bound, margin) for quasi-static convergence plots."""
    rows = []
    for n in step_grid:
        sched = erasure_schedule(layout, temperature, branch_weights, int(n))
        record, report = run_erasure_protocol(layout, temperature, branch_weights, sched)
        rows.append({
            "n_steps": int(n),
            "W": record.work,
            "bound": report.rhs,
            "margin": report.margin,
        })
    return rows


def _random_weights(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.ones(n))


def fuzzed_erasure_schedule(rng: np.random.Generator, layout: MemoryLayout,
                            temperature, branch_weights) -> list[Stage]:
    """Random but valid erasure: arbitrary detours, then a terminal reset push."""
    t = temperature_value(temperature)
    base = layout.level_energies()
    steps: list[Stage] = []
    for _ in range(int(rng.integers(0, 6))):
        detour = base + rng.uniform(-1.0, 3.0, size=base.size) * t
        steps.append(Stage(detour, ACROSS if rng.random() < 0.5 else WITHIN))
    steps.append(Stage(base))  # rejoin the nominal path before the reset tail
    steps.extend(erasure_schedule(layout, t, branch_weights,
                                  n_steps=int(rng.integers(2, 60))))
    return steps


def erasure_bound_suite(seed: int, n_instances: int, n_steps: int = None,
                        fuzz: bool = False, temperature: float = 1.0) -> list[dict]:
    """Randomized erasure-bound margins; each instance replayable by (seed, index)."""
    results = []
    for i in range(n_instances):
        with _replay_label("fuzz" if fuzz else "erasure", seed, i):
            rng = np.random.default_rng([seed, i])
            layout = random_layout(rng)
            p = _random_weights(rng, layout.outcome_count)
            if fuzz:
                sched = fuzzed_erasure_schedule(rng, layout, temperature, p)
            else:
                n = int(rng.choice([2, 10, 100])) if n_steps is None else n_steps
                sched = erasure_schedule(layout, temperature, p, n)
            record, report = run_erasure_protocol(layout, temperature, p, sched)
        results.append({
            "index": i,
            "seed": seed,
            "margin": report.margin,
            "work": record.work,
            "bound": report.rhs,
            "satisfied": report.satisfied,
        })
    return results


def measurement_bound_suite(seed: int, n_instances: int, n_steps: int = None,
                            temperature: float = 1.0) -> list[dict]:
    """Randomized classical measurement-bound margins (and the paired sum bound)."""
    from .measurement import random_classical_model

    results = []
    for i in range(n_instances):
        with _replay_label("measurement", seed, i):
            rng = np.random.default_rng([seed, i])
            layout = random_layout(rng)
            dim_s = int(rng.integers(2, 5))
            model = random_classical_model(rng, dim_s, layout.outcome_count)
            rho_s = DensityOperator(np.diag(_random_weights(rng, dim_s)).astype(complex))
            n = int(rng.choice([2, 10, 100])) if n_steps is None else n_steps
            meas_record, meas_report, info = run_measurement_process(
                layout, temperature, model, rho_s, n_steps=n)
            p = meas_record.branch_weights("final")
            eras_sched = erasure_schedule(layout, temperature, p, n)
            eras_record, eras_report = run_erasure_protocol(layout, temperature, p,
                                                            eras_sched)
            sum_report = verify_sum_bound(meas_record, eras_record, info, temperature)
        results.append({
            "index": i,
            "seed": seed,
            "measurement_margin": meas_report.margin,
            "erasure_margin": eras_report.margin,
            "sum_margin": sum_report.margin,
            "w_meas": meas_record.work,
            "w_eras": eras_record.work,
            "information": info,
        })
    return results


def szilard_reconciliation(t: float, temperature: float = 1.0) -> BoundReport:
    """Second-law check for a one-bit feedback engine backed by a two-box memory.

    The engine extracts T ln 2 per cycle at zero system free-energy change;
    the memory runs its error-free measurement and erasure protocols at
    asymmetry t, each with SZILARD_STEPS steps per ramp.
    """
    temp = temperature_value(temperature)
    layout = twobox_layout(t, temp)
    model = MeasurementModel((
        (np.diag([1.0, 0.0]).astype(complex),),
        (np.diag([0.0, 1.0]).astype(complex),),
    ))
    rho_s = DensityOperator(np.diag([0.5, 0.5]).astype(complex))
    meas_record, _, _ = run_measurement_process(layout, temp, model, rho_s,
                                                n_steps=SZILARD_STEPS)
    p = meas_record.branch_weights("final")
    eras_record, _ = run_erasure_protocol(
        layout, temp, p, erasure_schedule(layout, temp, p, SZILARD_STEPS))
    w_extracted = temp * np.log(2.0)
    return reconcile_demon(w_extracted, 0.0, meas_record, eras_record)
