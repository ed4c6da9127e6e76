"""Finite-dimensional quantum states.

Density operators with validated invariants, the von Neumann entropy, the
bath temperature's validation, and the reader of the JSON matrix wire
format.  All entropies are in nats, energies in units of k_B*T unless an
explicit temperature is supplied, and k_B = 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import POLICY


class MalformedPayloadError(ValueError):
    """A JSON payload does not have the structure of its wire format."""


def temperature_value(temperature) -> float:
    """The bath temperature (k_B = 1) as a float; it must be positive."""
    t = float(temperature)
    if not t > 0:
        raise ValueError(f"temperature must be positive, got {t}")
    return t


@dataclass(frozen=True)
class DensityOperator:
    """A valid quantum state: Hermitian, positive semidefinite, unit trace."""

    entries: np.ndarray
    _spectrum: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        dev = np.max(np.abs(m - m.conj().T))
        if dev > POLICY.validation:
            raise ValueError(f"state is not Hermitian: max deviation {dev:.3e}")
        m = (m + m.conj().T) / 2
        tr = np.trace(m).real
        if abs(tr - 1.0) > POLICY.validation:
            raise ValueError(f"state trace {float(tr)!r} differs from 1 beyond tolerance")
        vals, vecs = np.linalg.eigh(m)
        if vals.min() < -POLICY.validation:
            raise ValueError(f"state has negative eigenvalue {vals.min():.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_spectrum", (vals, vecs))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues (ascending) and eigenvectors, cached at validation."""
        return self._spectrum

    def diagonal(self) -> np.ndarray:
        return np.diag(self.entries).real.copy()

    def is_diagonal(self) -> bool:
        """No off-diagonal entry beyond the validation tolerance."""
        off = self.entries - np.diag(np.diag(self.entries))
        return np.max(np.abs(off)) <= POLICY.validation


def _entropy_from_eigenvalues(vals: np.ndarray) -> float:
    lam = vals[vals > POLICY.eig_clamp]
    # exact-zero clamp: pure states may land at -1e-16 from roundoff
    return max(float(-np.sum(lam * np.log(lam))), 0.0)


def von_neumann_entropy(rho: DensityOperator) -> float:
    """-tr(rho ln rho) in nats, with 0 ln 0 = 0; lies in [0, ln dim]."""
    vals, _ = rho.spectrum()
    return _entropy_from_eigenvalues(vals)


def entropy_of_matrix(sigma: np.ndarray) -> float:
    """Entropy -sum(lam ln lam) of an (unnormalized) PSD Hermitian matrix."""
    return _entropy_from_eigenvalues(np.linalg.eigvalsh(sigma))


# ---------------------------------------------------------------------------
# JSON wire format for matrices: {"dim": n, "re": [[...]], "im": [[...]]}

def matrix_from_json(payload: dict) -> np.ndarray:
    """Parse the matrix wire format, validating shape consistency and that
    every entry is finite (Python's json reads NaN and Infinity)."""
    try:
        dim = int(payload["dim"])
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedPayloadError(f"malformed matrix payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise MalformedPayloadError(
            f"matrix payload shape mismatch: dim={dim}, re {re.shape}, im {im.shape}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise MalformedPayloadError("matrix payload has a non-finite entry")
    return re + 1j * im
