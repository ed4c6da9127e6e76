"""Information-thermodynamics verification toolkit.

Computes information measures (Shannon, quantum-classical mutual
information) and thermodynamic work quantities of measurement and erasure,
verifies the measurement/erasure work bounds on constructed and randomized
instances, and reproduces the two-box single-molecule memory both in closed
form and by overdamped Langevin simulation.
"""

__version__ = "0.1.0"

from .measurement import (
    MeasurementModel,
    OutcomeStatistics,
    classical_decompose,
    outcome_statistics,
    qc_mutual_information,
    shannon_entropy,
)
from .memory import (
    BoundReport,
    MemoryLayout,
    free_energy_change,
    two_branch_layout,
    twobox_layout,
)
from .operators import (
    DensityOperator,
    von_neumann_entropy,
)
from .protocols import (
    ProtocolRecord,
    Stage,
    erasure_schedule,
    reconcile_demon,
    run_erasure_protocol,
    run_measurement_process,
    run_schedule,
    verify_sum_bound,
)
from .twobox import (
    TwoBoxParams,
    entropy_balance,
    erasure_works,
    measurement_works,
    sweep,
)
from .langevin import (
    EnsembleParams,
    PotentialSpec,
    ProtocolSchedule,
    TrajectoryEnsemble,
    basin_free_energies,
    jarzynski_check,
    simulate_erasure,
)

__all__ = [
    "__version__",
    "BoundReport",
    "DensityOperator",
    "EnsembleParams",
    "MeasurementModel",
    "MemoryLayout",
    "OutcomeStatistics",
    "PotentialSpec",
    "ProtocolRecord",
    "ProtocolSchedule",
    "Stage",
    "TrajectoryEnsemble",
    "TwoBoxParams",
    "basin_free_energies",
    "classical_decompose",
    "entropy_balance",
    "erasure_schedule",
    "erasure_works",
    "free_energy_change",
    "jarzynski_check",
    "measurement_works",
    "outcome_statistics",
    "qc_mutual_information",
    "reconcile_demon",
    "run_erasure_protocol",
    "run_measurement_process",
    "run_schedule",
    "shannon_entropy",
    "simulate_erasure",
    "sweep",
    "twobox_layout",
    "two_branch_layout",
    "verify_sum_bound",
    "von_neumann_entropy",
]
