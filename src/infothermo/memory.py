"""Multi-branch memory layouts, per-outcome free energies, and bound reports.

A memory stores outcome k in the k-th orthogonal level block; branch 0 is the
standard (reset) state.  Free energies per branch drive the work bounds for
measurement and erasure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

    def branch_free_energies(self, t: float) -> np.ndarray:
        """Branch free energies F_k = -t ln Z_k, Z_k the branch partition
        function, at a validated temperature t."""
        z = np.array([np.sum(np.exp(-e / t)) for e in self.energies])
        return -t * np.log(z)


def two_branch_layout(energy_gap: float) -> MemoryLayout:
    """Two-outcome memory, one level per branch: branch 0 at zero energy,
    branch 1 at energy_gap."""
    return MemoryLayout((np.zeros(1), np.full(1, float(energy_gap))))


def twobox_layout(t: float, temperature=1.0) -> MemoryLayout:
    """Memory whose branch partition functions stand in ratio t : 1-t.

    Single level per branch with the branch-1 level at T ln(t/(1-t)), so the
    standard branch plays the larger-volume box for t > 1/2.
    """
    if not 0.0 < t < 1.0:
        raise ValueError(f"t must lie strictly inside (0, 1), got {t}")
    temp = temperature_value(temperature)
    return two_branch_layout(temp * np.log(t / (1.0 - t)))


def random_layout(rng: np.random.Generator, temperature) -> MemoryLayout:
    """Seeded random memory layout for bound-verification suites at
    `temperature`: 2 or 3 branches of 1 to 3 levels, each energy uniform in
    [0, 2 T), so the layout scales with T against the 50 T cap."""
    high = 2.0 * temperature_value(temperature)
    n = int(rng.integers(2, 4))
    blocks = []
    for _ in range(n):
        d = int(rng.integers(1, 4))
        blocks.append(rng.uniform(0.0, high, size=d))
    return MemoryLayout(tuple(blocks))


def free_energy_change(free_energies, probabilities) -> float:
    """Outcome-averaged free-energy change sum_k p_k F_k - F_0 of a memory
    whose outcome k has the branch (or basin) free energy F_k; outcome 0 is
    the standard state."""
    f = np.asarray(free_energies, dtype=float)
    p = np.asarray(probabilities, dtype=float)
    if p.size != f.size:
        raise ValueError("probability vector length must match the outcome count")
    shannon_entropy(p)  # validates the distribution
    return float(p @ f - f[0])


# ---------------------------------------------------------------------------
# Bound reports

MEASUREMENT_BOUND = "measurement"
ERASURE_BOUND = "erasure"
SUM_BOUND = "sum"
RECONCILIATION_BOUND = "reconciliation"

_TAGS = (MEASUREMENT_BOUND, ERASURE_BOUND, SUM_BOUND, RECONCILIATION_BOUND)


@dataclass(frozen=True)
class BoundReport:
    """One verified inequality: lhs, rhs, and the margin and flag derived
    from them.

    margin is the satisfaction slack: lhs - rhs for the three >=-type bounds
    (measurement, erasure, sum), rhs - lhs for the reconciliation bound,
    which is of <=-type.  satisfied <=> margin >= -1e-8 in all cases.
    """

    tag: str
    lhs: float
    rhs: float
    margin: float = field(init=False)
    satisfied: bool = field(init=False)

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown bound tag {self.tag!r}")
        lhs, rhs = float(self.lhs), float(self.rhs)
        margin = (rhs - lhs) if self.tag == RECONCILIATION_BOUND else (lhs - rhs)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "margin", margin)
        object.__setattr__(self, "satisfied", margin >= -POLICY.bound)
