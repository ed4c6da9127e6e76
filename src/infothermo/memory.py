"""Multi-branch memory layouts, per-outcome free energies, and bound reports.

A memory stores outcome k in the k-th orthogonal level block; branch 0 is the
standard (reset) state.  Free energies per branch drive the work bounds for
measurement and erasure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measurement import shannon_entropy
from .numerics import POLICY
from .operators import temperature_value


@dataclass(frozen=True)
class MemoryLayout:
    """Orthogonal-subspace memory: one diagonal energy block per outcome.

    ``energies[k]`` holds the level energies of branch k; branch 0 is the
    standard state the memory is reset to.
    """

    energies: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.energies) < 1:
            raise ValueError("memory needs at least one branch")
        blocks = []
        for k, e in enumerate(self.energies):
            arr = np.asarray(e, dtype=float).ravel()
            if arr.size < 1:
                raise ValueError(f"branch {k} has no levels")
            arr = arr.copy()
            arr.setflags(write=False)
            blocks.append(arr)
        object.__setattr__(self, "energies", tuple(blocks))

    @property
    def outcome_count(self) -> int:
        return len(self.energies)

    @property
    def branch_dims(self) -> tuple[int, ...]:
        return tuple(e.size for e in self.energies)

    @property
    def total_dim(self) -> int:
        return sum(self.branch_dims)

    def level_energies(self) -> np.ndarray:
        """All level energies, branch-major."""
        return np.concatenate(self.energies)

    def branch_of_level(self) -> np.ndarray:
        """Branch index of each level, branch-major."""
        return np.repeat(np.arange(self.outcome_count), self.branch_dims)

    def branch_slices(self) -> list[slice]:
        offsets = np.cumsum((0,) + self.branch_dims)
        return [slice(offsets[k], offsets[k + 1]) for k in range(self.outcome_count)]

    def branch_free_energies(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Branch partition functions Z_k and free energies F_k = -t ln Z_k
        at a validated temperature t."""
        z = np.array([np.sum(np.exp(-e / t)) for e in self.energies])
        return z, -t * np.log(z)


def two_branch_layout(energy_gap: float, d0: int = 1, d1: int = 1) -> MemoryLayout:
    """Two-outcome memory: branch 0 at zero energy, branch 1 shifted by energy_gap."""
    return MemoryLayout((np.zeros(d0), np.full(d1, float(energy_gap))))


def twobox_layout(t: float, temperature=1.0) -> MemoryLayout:
    """Memory whose branch partition functions stand in ratio t : 1-t.

    Single level per branch with the branch-1 level at T ln(t/(1-t)), so the
    standard branch plays the larger-volume box for t > 1/2.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    temp = temperature_value(temperature)
    return two_branch_layout(temp * np.log(t / (1.0 - t)))


def random_layout(rng: np.random.Generator) -> MemoryLayout:
    """Seeded random memory layout for bound-verification suites: 2 or 3
    branches of 1 to 3 levels, each energy uniform in [0, 2)."""
    n = int(rng.integers(2, 4))
    blocks = []
    for _ in range(n):
        d = int(rng.integers(1, 4))
        blocks.append(rng.uniform(0.0, 2.0, size=d))
    return MemoryLayout(tuple(blocks))


@dataclass(frozen=True)
class FreeEnergyReport:
    """Partition functions, branch free energies and the outcome-averaged change.

    delta_f = sum_k p_k F_k - F_0 for the supplied outcome probabilities.
    """

    temperature: float
    partition_functions: np.ndarray
    free_energies: np.ndarray
    probabilities: np.ndarray
    delta_f: float

    def __post_init__(self):
        t = self.temperature
        dev = np.max(np.abs(self.free_energies + t * np.log(self.partition_functions)))
        if dev > POLICY.validation:
            raise ValueError(f"free energies inconsistent with ln Z: deviation {dev:.3e}")


def free_energies(layout: MemoryLayout, temperature, probabilities) -> FreeEnergyReport:
    """Branch partition functions Z_k, F_k = -T ln Z_k, and delta_f."""
    t = temperature_value(temperature)
    p = np.asarray(probabilities, dtype=float)
    if p.size != layout.outcome_count:
        raise ValueError("probability vector length must match the outcome count")
    shannon_entropy(p)  # validates the distribution
    z, f = layout.branch_free_energies(t)
    delta = float(p @ f - f[0])
    return FreeEnergyReport(t, z, f, p.copy(), delta)


# ---------------------------------------------------------------------------
# Bound reports

MEASUREMENT_BOUND = "measurement"
ERASURE_BOUND = "erasure"
SUM_BOUND = "sum"
RECONCILIATION_BOUND = "reconciliation"

_TAGS = (MEASUREMENT_BOUND, ERASURE_BOUND, SUM_BOUND, RECONCILIATION_BOUND)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs, rhs, satisfaction margin and flag.

    margin is the satisfaction slack: lhs - rhs for the three >=-type bounds
    (measurement, erasure, sum), rhs - lhs for the reconciliation bound,
    which is of <=-type.  satisfied <=> margin >= -1e-8 in all cases.
    """

    tag: str
    lhs: float
    rhs: float
    margin: float
    satisfied: bool

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown bound tag {self.tag!r}")
        expected = self.margin >= -POLICY.bound
        if self.satisfied != expected:
            raise ValueError("satisfied flag inconsistent with margin")

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "margin": self.margin,
            "satisfied": self.satisfied,
        }


def bound_report(tag: str, lhs: float, rhs: float) -> BoundReport:
    slack = (rhs - lhs) if tag == RECONCILIATION_BOUND else (lhs - rhs)
    return BoundReport(tag=tag, lhs=float(lhs), rhs=float(rhs),
                       margin=float(slack), satisfied=bool(slack >= -POLICY.bound))
