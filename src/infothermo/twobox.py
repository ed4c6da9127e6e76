"""Closed-form results for the two-box single-molecule memory.

A single-molecule gas in a box split at volume fraction t stores one bit:
particle left = outcome 0, particle right = outcome 1, with equal outcome
probabilities.  Quasi-static isothermal stage works for erasure (move the
partition to the center, remove it, compress back to the standard side) and
for measurement (conditional expansion and compression) follow from the
single-particle work convention: compressing the accessible volume from a to
b costs -T ln(b/a), free expansion costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import temperature_value


@dataclass(frozen=True)
class TwoBoxParams:
    """Box asymmetry t in (0,1), total volume V > 0, temperature."""

    t: float
    volume: float = 1.0
    temperature: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.t < 1.0:
            raise ValueError(f"t must lie strictly inside (0, 1), got {self.t}")
        if not self.volume > 0:
            raise ValueError(f"volume must be positive, got {self.volume}")
        object.__setattr__(self, "temperature", temperature_value(self.temperature))


def _stage_report(stages: dict, w_eras: float, w_meas: float) -> dict:
    """Per-stage works and the totals W_eras, W_meas and their sum."""
    return {"stages": stages, "W_eras": w_eras, "W_meas": w_meas, "sum": w_eras + w_meas}


def delta_free_energy(params: TwoBoxParams) -> float:
    """Outcome-averaged memory free-energy change (T/2) ln(t/(1-t)).

    Follows from branch partition functions proportional to the box volumes.
    """
    t, temp = params.t, params.temperature
    return 0.5 * temp * np.log(t / (1.0 - t))


def erasure_works(params: TwoBoxParams) -> dict:
    """Stage works of quasi-static erasure back to the standard (left) side.

    Partition move to the center: (T/2)[ln 2t + ln 2(1-t)]; removal: free
    expansion, 0; compression to the left volume: -T ln t.
    """
    t, temp = params.t, params.temperature
    move = 0.5 * temp * (np.log(2.0 * t) + np.log(2.0 * (1.0 - t)))
    removal = 0.0
    compression = -temp * np.log(t)
    total = move + removal + compression
    return _stage_report({
        "partition_move": float(move),
        "partition_removal": removal,
        "compression": float(compression),
    }, float(total), 0.0)


def measurement_works(params: TwoBoxParams) -> dict:
    """Conditional stage works of the quasi-static measurement.

    Outcome 0 leaves the memory unchanged.  Outcome 1 expands the left box to
    the full volume (-T ln(1/t)) and compresses from the left until the right
    box regains its volume (T ln(1/(1-t))); the outcome average uses equal
    probabilities.
    """
    t, temp = params.t, params.temperature
    expansion = -temp * np.log(1.0 / t)
    compression = temp * np.log(1.0 / (1.0 - t))
    outcome_one = expansion + compression
    average = 0.5 * outcome_one
    return _stage_report({
        "outcome0": 0.0,
        "outcome1_expansion": float(expansion),
        "outcome1_compression": float(compression),
        "outcome1_total": float(outcome_one),
    }, 0.0, float(average))


def entropy_balance(params: TwoBoxParams) -> dict:
    """Physical + Shannon entropy before and after erasure, and their change.

    The physical entropies are those of a single-molecule gas in the
    respective volume; the volume cancels in the total change.
    """
    t, v = params.t, params.volume
    s_initial = 0.5 * (np.log(t * v) + np.log((1.0 - t) * v))
    s_final = np.log(t * v)
    h_initial = np.log(2.0)
    h_final = 0.0
    return {
        "S_phys_initial": float(s_initial),
        "S_phys_final": float(s_final),
        "H_initial": float(h_initial),
        "H_final": float(h_final),
        "delta_S_total": float((s_final + h_final) - (s_initial + h_initial)),
    }


def sweep(t_grid, temperature=1.0) -> list[dict]:
    """Work/bound table over an asymmetry grid.

    Each row carries both work totals, their sum, the free-energy change, and
    the saturation margins of the erasure and measurement bounds (identically
    zero for this model, where H = I = ln 2).
    """
    temp = temperature_value(temperature)
    rows = []
    for t in np.asarray(t_grid, dtype=float):
        params = TwoBoxParams(float(t), temperature=temp)
        w_eras = erasure_works(params)["W_eras"]
        w_meas = measurement_works(params)["W_meas"]
        df = delta_free_energy(params)
        h = info = np.log(2.0)
        rows.append({
            "t": float(t),
            "W_eras": float(w_eras),
            "W_meas": float(w_meas),
            "sum": float(w_eras + w_meas),
            "dF": float(df),
            "eq3_margin": float(w_eras - (temp * h - df)),
            "eq2_margin": float(w_meas - (-temp * (h - info) + df)),
        })
    return rows


SWEEP_COLUMNS = ("t", "W_eras", "W_meas", "sum", "dF", "eq3_margin", "eq2_margin")


def point_report(params: TwoBoxParams) -> dict:
    """Single-asymmetry JSON report combining stage works and entropy balance."""
    eras = erasure_works(params)
    meas = measurement_works(params)
    return {
        "t": params.t,
        "volume": params.volume,
        "temperature": params.temperature,
        "erasure": eras,
        "measurement": meas,
        "W_eras": eras["W_eras"],
        "W_meas": meas["W_meas"],
        "sum": eras["W_eras"] + meas["W_meas"],
        "dF": delta_free_energy(params),
        "entropy_balance": entropy_balance(params),
    }
