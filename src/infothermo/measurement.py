"""Quantum measurement statistics and information measures.

POVM measurement models grouped by outcome, Shannon entropy of the outcome
distribution, the quantum-classical mutual information of a measurement, and
the construction of measurement operators from a classical (permutation)
system-memory interaction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import POLICY
from .operators import (
    DensityOperator,
    MalformedPayloadError,
    _entropy_from_eigenvalues,
    entropy_of_matrix,
    matrix_from_json,
    von_neumann_entropy,
)


class InvalidMeasurementError(ValueError):
    """Measurement operators do not form a valid POVM."""


class ReconstructionError(ValueError):
    """Classical decomposition failed to reproduce the post-measurement state."""


def shannon_entropy(probabilities) -> float:
    """-sum(p ln p) in nats over a probability vector, 0 ln 0 = 0."""
    p = np.asarray(probabilities, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("expected a 1-d probability vector")
    if p.min() < -POLICY.support:
        raise ValueError(f"negative probability {p.min():.3e}")
    total = p.sum()
    # a NaN or infinite entry makes the sum NaN or infinite, which fails this
    if not abs(total - 1.0) <= POLICY.povm:
        raise ValueError(f"probabilities sum to {float(total)!r}, not 1")
    return _entropy_from_eigenvalues(p)


def _hermitian_sqrt(effect: np.ndarray) -> np.ndarray:
    """Square root of a PSD Hermitian matrix; negative roundoff clamped to 0."""
    vals, vecs = np.linalg.eigh(effect)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


@dataclass(frozen=True)
class MeasurementModel:
    """Measurement operators grouped by outcome, with derived effects.

    ``operators[k]`` is the tuple of operators whose adjoint products sum to
    the effect of outcome k; an outcome may carry an empty tuple (zero
    effect).  The effects must be positive semidefinite and sum to the
    identity.
    """

    operators: tuple[tuple[np.ndarray, ...], ...]
    effects: tuple[np.ndarray, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if not self.operators:
            raise InvalidMeasurementError("measurement model has no outcomes")
        dim = None
        groups = []
        for group in self.operators:
            ops = []
            for op in group:
                m = np.asarray(op, dtype=complex)
                if m.ndim != 2 or m.shape[0] != m.shape[1]:
                    raise InvalidMeasurementError(f"operator has shape {m.shape}")
                if dim is None:
                    dim = m.shape[0]
                elif m.shape[0] != dim:
                    raise InvalidMeasurementError("operators have mixed dimensions")
                m.setflags(write=False)
                ops.append(m)
            groups.append(tuple(ops))
        if dim is None:
            raise InvalidMeasurementError("measurement model has no operators")
        effects = []
        for ops in groups:
            e = np.zeros((dim, dim), dtype=complex)
            for m in ops:
                e += m.conj().T @ m
            if np.linalg.eigvalsh(e).min() < -POLICY.validation:
                raise InvalidMeasurementError("effect has a negative eigenvalue")
            e.setflags(write=False)
            effects.append(e)
        total = sum(effects)
        dev = np.max(np.abs(total - np.eye(dim)))
        if dev > POLICY.povm:
            raise InvalidMeasurementError(
                f"effects do not sum to identity: max deviation {dev:.3e}")
        object.__setattr__(self, "operators", tuple(groups))
        object.__setattr__(self, "effects", tuple(effects))

    @property
    def dim(self) -> int:
        return self.effects[0].shape[0]

    @property
    def outcome_count(self) -> int:
        return len(self.operators)


def random_classical_model(rng: np.random.Generator, dim: int,
                           n_outcomes: int) -> MeasurementModel:
    """Random diagonal POVM: per basis state, a random response distribution."""
    response = rng.dirichlet(np.ones(n_outcomes), size=dim)  # (dim, n_outcomes)
    groups = tuple((np.diag(np.sqrt(response[:, k])).astype(complex),)
                   for k in range(n_outcomes))
    return MeasurementModel(groups)


@dataclass(frozen=True)
class OutcomeStatistics:
    """Outcome probabilities and unnormalized conditional states of a measurement.

    sigma[k] = sqrt(E_k) rho sqrt(E_k) carries trace p_k.
    """

    probabilities: np.ndarray
    sigma: tuple[np.ndarray, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if abs(p.sum() - 1.0) > POLICY.povm:
            raise ValueError(f"outcome probabilities sum to {float(p.sum())!r}")
        for k, pk in enumerate(p):
            tr = np.trace(self.sigma[k]).real
            if abs(tr - pk) > POLICY.povm:
                raise ValueError(f"outcome {k}: tr(sigma) {float(tr)!r} != p {float(pk)!r}")


def outcome_statistics(rho: DensityOperator, model: MeasurementModel) -> OutcomeStatistics:
    """Probabilities p_k and conditional sigma_k for rho."""
    if rho.dim != model.dim:
        raise ValueError("state and measurement dimensions differ")
    probs = []
    sigmas = []
    for effect in model.effects:
        root = _hermitian_sqrt(effect)
        sigmas.append(root @ rho.entries @ root)
        probs.append(max(np.trace(effect @ rho.entries).real, 0.0))
    return OutcomeStatistics(np.array(probs), tuple(sigmas))


def qc_mutual_information(rho: DensityOperator, model: MeasurementModel) -> float:
    """Information gained about rho by the measurement, in nats.

    Computed from the defining expression
        S(rho) + H(p) + sum_k tr[sigma_k ln sigma_k],  sigma_k = sqrt(E_k) rho sqrt(E_k),
    and cross-checked against the equivalent conditional-entropy form
        S(rho) - sum_k p_k S(sigma_k / p_k).
    The two routes use independent matrix-function paths; disagreement beyond
    tolerance raises, catching matrix-function bugs.
    """
    stats = outcome_statistics(rho, model)
    s_rho = von_neumann_entropy(rho)
    h = shannon_entropy(stats.probabilities)
    sigma_entropy = sum(entropy_of_matrix(s) for s in stats.sigma)
    info = s_rho + h - sigma_entropy

    conditional = 0.0
    for pk, sigma in zip(stats.probabilities, stats.sigma):
        if pk > POLICY.eig_clamp:
            conditional += pk * entropy_of_matrix(sigma / pk)
    alt = s_rho - conditional
    if abs(info - alt) > POLICY.identity:
        raise ArithmeticError(
            f"mutual-information routes disagree: {float(info)!r} vs {float(alt)!r}")
    return info


# ---------------------------------------------------------------------------
# Classical decomposition of a permutation interaction

def _permutation_map(unitary: np.ndarray) -> np.ndarray:
    """dest[j] for a 0/1 permutation matrix U with U[dest, src] = 1."""
    u = np.asarray(unitary)
    dim = u.shape[0]
    if u.shape != (dim, dim):
        raise ValueError("interaction must be a square matrix")
    if np.max(np.abs(u - np.rint(u.real))) > POLICY.validation or np.max(np.abs(u.imag)) > POLICY.validation:
        raise ValueError("interaction is not a permutation matrix (non 0/1 entries)")
    b = np.rint(u.real).astype(int)
    if not ((b.sum(axis=0) == 1).all() and (b.sum(axis=1) == 1).all() and ((b == 0) | (b == 1)).all()):
        raise ValueError("interaction is not a permutation matrix")
    return b.argmax(axis=0)


def _require_diagonal(state: DensityOperator, name: str) -> np.ndarray:
    if not state.is_diagonal():
        raise ValueError(f"{name} must be diagonal in the computational basis")
    return state.diagonal()


@dataclass(frozen=True)
class ClassicalDecomposition:
    """Result of decomposing a permutation interaction into measurement operators."""

    model: MeasurementModel
    mb_destinations: tuple[int, ...]  # MB basis label of each operator, outcome-major
    max_deviation: float              # of the product form from the projected state


def classical_decompose(unitary: np.ndarray, rho_s: DensityOperator,
                        rho_mb: DensityOperator, branch_of_mb) -> ClassicalDecomposition:
    """Measurement operators realizing a classical memory-system interaction.

    Parameters
    ----------
    unitary:
        Permutation matrix on the joint S (x) MB space (S-major ordering).
    rho_s, rho_mb:
        Diagonal initial states of the system and of memory+bath.
    branch_of_mb:
        Integer array mapping each MB basis index to its outcome branch
        (memory subspace label); defines the outcome grouping.

    One operator is emitted per (occupied MB source, MB destination) pair;
    each is a scaled partial permutation on S, so the operators M_i with
    their MB destinations d_i reproduce the post-projection state exactly.
    The check is always on: `product_form_deviation` evolves
    rho_S (x) rho_MB through the unitary itself and compares the projected
    state with sum_i M_i rho_S M_i+ (x) |d_i><d_i|; a deviation beyond
    POLICY.povm raises ReconstructionError.
    """
    _require_diagonal(rho_s, "rho_s")
    r = _require_diagonal(rho_mb, "rho_mb")
    branch = np.asarray(branch_of_mb, dtype=int)
    dim_s = rho_s.dim
    dim_mb = rho_mb.dim
    if branch.shape != (dim_mb,):
        raise ValueError("branch map length must match the MB dimension")
    dest = _permutation_map(unitary)
    if dest.size != dim_s * dim_mb:
        raise ValueError("interaction dimension must equal dim_S * dim_MB")
    n_outcomes = int(branch.max()) + 1

    # operators keyed by (MB destination, MB source); entries sqrt(r_source)
    ops: dict[tuple[int, int], np.ndarray] = {}
    for src_s in range(dim_s):
        for src_mb in range(dim_mb):
            if r[src_mb] <= POLICY.eig_clamp:
                continue
            d = dest[src_s * dim_mb + src_mb]
            dst_s, dst_mb = divmod(d, dim_mb)
            key = (dst_mb, src_mb)
            if key not in ops:
                ops[key] = np.zeros((dim_s, dim_s), dtype=complex)
            ops[key][dst_s, src_s] = np.sqrt(r[src_mb])

    groups: list[list[np.ndarray]] = [[] for _ in range(n_outcomes)]
    labels: list[list[int]] = [[] for _ in range(n_outcomes)]
    for (dst_mb, _src_mb), m in sorted(ops.items()):
        k = branch[dst_mb]
        groups[k].append(m)
        labels[k].append(dst_mb)
    model = MeasurementModel(tuple(tuple(g) for g in groups))

    destinations = tuple(d for group in labels for d in group)
    basis = np.eye(dim_mb)
    deviation = product_form_deviation(
        unitary, rho_s, rho_mb, branch, [m for group in model.operators for m in group],
        [np.diag(basis[d]) for d in destinations])
    if deviation > POLICY.povm:
        raise ReconstructionError(
            f"post-measurement reconstruction failed: max deviation {deviation:.3e}")
    return ClassicalDecomposition(model, destinations, deviation)


def product_form_deviation(unitary: np.ndarray, rho_s: DensityOperator,
                           rho_mb: DensityOperator, branch_of_mb,
                           operators, mb_states) -> float:
    """Max deviation of a proposed product-form decomposition from the truth.

    Checks whether sum_i M_i rho_S M_i+ (x) tau_i reproduces the
    post-projection state sum_k (1 (x) P_k) U (rho_S (x) rho_MB) U+ (1 (x) P_k)
    for an arbitrary (not necessarily classical) interaction unitary.  The
    caller supplies the candidate operator/MB-state pairs; whether a given
    quantum instance admits such a form is not characterized here, only
    measured.
    """
    branch = np.asarray(branch_of_mb, dtype=int)
    dim_s, dim_mb = rho_s.dim, rho_mb.dim
    u = np.asarray(unitary, dtype=complex)
    if u.shape != (dim_s * dim_mb, dim_s * dim_mb):
        raise ValueError("interaction dimension must equal dim_S * dim_MB")
    joint = np.kron(rho_s.entries, rho_mb.entries)
    evolved = u @ joint @ u.conj().T
    target = np.zeros_like(evolved)
    for k in range(int(branch.max()) + 1):
        proj = np.kron(np.eye(dim_s), np.diag((branch == k).astype(float)))
        target += proj @ evolved @ proj
    recon = np.zeros_like(evolved)
    for m, tau in zip(operators, mb_states, strict=True):
        recon += np.kron(np.asarray(m, dtype=complex) @ rho_s.entries
                         @ np.asarray(m, dtype=complex).conj().T,
                         np.asarray(tau, dtype=complex))
    return float(np.max(np.abs(recon - target)))


# ---------------------------------------------------------------------------
# JSON wire format: {"outcomes": [{"k": 0, "operators": [matrix, ...]}, ...]}

def model_from_json(payload: dict) -> MeasurementModel:
    try:
        outcomes = payload["outcomes"]
        entries = sorted(outcomes, key=lambda item: int(item["k"]))
        groups = tuple(
            tuple(matrix_from_json(m) for m in item["operators"]) for item in entries
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedPayloadError(f"malformed measurement-model payload: {exc}") from exc
    return MeasurementModel(groups)
