"""Inputs and oracles that only the tests use.

Seeded random states, unitaries, permutations and measurement models;
diagonal states; the projective and the outcome-independent measurement;
the writers of the JSON matrix, measurement-model and protocol-schedule wire
formats, whose readers are `infothermo.operators.matrix_from_json`,
`infothermo.measurement.model_from_json` and
`infothermo.langevin.schedule_from_json`; and the classical mutual
information, an oracle for `qc_mutual_information` on diagonal instances.
Hooks for the two-process paths: a pretended core count that records each
fork, a check that no child process is left, and a deadline on a block.
"""

import contextlib
import os
import signal

import numpy as np
import pytest

from infothermo.langevin import ProtocolSchedule
from infothermo.measurement import InvalidMeasurementError, MeasurementModel, _hermitian_sqrt
from infothermo.numerics import POLICY
from infothermo.operators import DensityOperator


def diagonal_state(populations) -> DensityOperator:
    """A classical (diagonal) state from level populations."""
    p = np.asarray(populations, dtype=float)
    return DensityOperator(np.diag(p).astype(complex))


def random_instance(seed: int, dim: int, kind: str):
    """Deterministic random operator; kind selects the ensemble.

    kind = "state": full-rank density operator (normalized Ginibre G G+).
    kind = "unitary": Haar-distributed unitary (ndarray).
    kind = "permutation": 0/1 permutation matrix (ndarray).
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "state":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        return DensityOperator(m / np.trace(m).real)
    if kind == "unitary":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, r = np.linalg.qr(g)
        phases = np.diag(r) / np.abs(np.diag(r))
        return q * phases
    if kind == "permutation":
        perm = rng.permutation(dim)
        m = np.zeros((dim, dim))
        m[perm, np.arange(dim)] = 1.0
        return m
    raise ValueError(f"unknown kind {kind!r}")


def random_model(rng: np.random.Generator, dim: int, n_outcomes: int,
                 ops_per_outcome: int = 1) -> MeasurementModel:
    """Random POVM, optionally split into several operators per outcome."""
    raw = []
    for _ in range(n_outcomes):
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        raw.append(g @ g.conj().T)
    total = sum(raw)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.conj().T
    groups = []
    for a in raw:
        effect = inv_sqrt @ a @ inv_sqrt
        root = _hermitian_sqrt(effect)
        if ops_per_outcome == 1:
            groups.append((root,))
            continue
        shares = rng.dirichlet(np.ones(ops_per_outcome))
        ops = []
        for c in shares:
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            q, r = np.linalg.qr(g)
            u = q * (np.diag(r) / np.abs(np.diag(r)))
            ops.append(np.sqrt(c) * u @ root)
        groups.append(tuple(ops))
    return MeasurementModel(tuple(groups))


def projective_model(dim: int) -> MeasurementModel:
    """Rank-1 projective measurement in the computational basis."""
    eye = np.eye(dim, dtype=complex)
    return MeasurementModel(tuple((np.outer(eye[k], eye[k]),) for k in range(dim)))


def trivial_model(weights, dim: int) -> MeasurementModel:
    """Outcome-independent POVM E_k = q_k * identity (no information gained)."""
    q = np.asarray(weights, dtype=float)
    if abs(q.sum() - 1.0) > POLICY.povm or q.min() < 0:
        raise InvalidMeasurementError("weights must form a probability vector")
    eye = np.eye(dim, dtype=complex)
    return MeasurementModel(tuple((np.sqrt(qk) * eye,) for qk in q))


def matrix_to_json(matrix: np.ndarray) -> dict:
    """A matrix in the wire format {"dim": n, "re": [[...]], "im": [[...]]}."""
    m = np.asarray(matrix, dtype=complex)
    return {
        "dim": int(m.shape[0]),
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def model_to_json(model: MeasurementModel) -> dict:
    """A model in the wire format {"outcomes": [{"k": 0, "operators": [matrix, ...]}, ...]}."""
    return {
        "outcomes": [
            {"k": k, "operators": [matrix_to_json(m) for m in ops]}
            for k, ops in enumerate(model.operators)
        ]
    }


def schedule_to_json(schedule: ProtocolSchedule) -> dict:
    """A schedule in the wire format
    {"duration": tau, "knots": [{"time": t, "coefficients": [a, b, c]}, ...]}."""
    return {
        "duration": schedule.duration,
        "knots": [
            {"time": float(t), "coefficients": [float(v) for v in row]}
            for t, row in zip(schedule.times, schedule.knots)
        ],
    }


def classical_mutual_information(rho: DensityOperator, model: MeasurementModel) -> float:
    """Mutual information of the joint (outcome, basis-state) distribution.

    Meaningful for diagonal states and diagonal effects, where it must agree
    with qc_mutual_information.
    """
    q = rho.diagonal()
    joint = np.array([np.diag(e).real * q for e in model.effects])  # (k, s)
    joint = np.clip(joint, 0.0, None)
    pk = joint.sum(axis=1)
    ps = joint.sum(axis=0)
    total = 0.0
    for k in range(joint.shape[0]):
        for s in range(joint.shape[1]):
            pks = joint[k, s]
            if pks > POLICY.eig_clamp:
                total += pks * np.log(pks / (pk[k] * ps[s]))
    return float(total)


def allow_cores(monkeypatch, cores: int) -> list:
    """Let this process run on `cores` cores, whatever the host allows;
    return the list that records each fork, by the pid that made it."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
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
