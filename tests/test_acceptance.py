"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The Langevin criterion is
the slow one (a few minutes of ensemble integration); everything else
completes in seconds.
"""

import json
import os
import time

import numpy as np
import pytest

from infothermo.cli import main
from infothermo.langevin import (
    EnsembleParams,
    basin_free_energies,
    erasure_protocol_schedule,
    jarzynski_check,
    reset_free_energy,
    simulate_erasure,
    symmetric_double_well,
    tune_tilt_for_ratio,
)
from infothermo.measurement import (
    classical_decompose,
    outcome_statistics,
    qc_mutual_information,
    shannon_entropy,
)
from infothermo.memory import two_branch_layout
from infothermo.protocols import (
    erasure_bound_suite,
    erasure_convergence,
    measurement_bound_suite,
    szilard_reconciliation,
)
from infothermo.twobox import sweep

from builders import (
    diagonal_state, projective_model, random_instance, random_model, trivial_model,
)

LN2 = np.log(2.0)


def report(number: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, detail


def rel_err(value, expected):
    return abs(value - expected) / max(1.0, abs(expected))


def test_criterion_1_twobox_anchors(tmp_path):
    t0 = time.time()
    out = tmp_path / "tb.json"
    assert main(["twobox", "--t", "0.5", "--out", str(out)]) == 0
    half = json.loads(out.read_text())
    assert main(["twobox", "--t", "0.8", "--out", str(out)]) == 0
    four_fifths = json.loads(out.read_text())

    ok = rel_err(half["W_eras"], LN2) < 1e-12
    ok &= rel_err(four_fifths["W_eras"], 0.0) < 1e-12
    ok &= rel_err(four_fifths["W_meas"], LN2) < 1e-12

    grid = np.linspace(0.01, 0.99, 99)
    rows = sweep(grid)
    worst = 0.0
    for t, row in zip(grid, rows):
        expected_eras = LN2 - 0.5 * np.log(t / (1.0 - t))
        worst = max(worst,
                    rel_err(row["W_eras"], expected_eras),
                    rel_err(row["sum"], LN2))
    ok &= worst < 1e-12
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    report(1, ok, f"two-box anchors and 99-point grid, worst relative error "
                  f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_entropy_balance(tmp_path):
    t0 = time.time()
    out = tmp_path / "tb.json"
    deltas = {}
    for t in (0.5, 0.8):
        volumes = []
        for v in (0.1, 1.0, 42.0):
            assert main(["twobox", "--t", str(t), "--volume", str(v),
                         "--out", str(out)]) == 0
            volumes.append(json.loads(out.read_text())["entropy_balance"]["delta_S_total"])
        assert max(volumes) - min(volumes) < 1e-12
        deltas[t] = volumes[0]
    ok = abs(deltas[0.5] - (-LN2)) < 1e-12 and abs(deltas[0.8]) < 1e-12
    report(2, ok, f"entropy balance dS(1/2) = {deltas[0.5]:.15f}, "
                  f"dS(4/5) = {deltas[0.8]:.2e}, volume-independent at 3 volumes "
                  f"[{time.time() - t0:.2f}s]")


def test_criterion_3_bound_saturation():
    t0 = time.time()
    layout = two_branch_layout(0.0)
    rows = erasure_convergence(layout, 1.0, (0.5, 0.5), (100, 1000, 10_000))
    work_final = rows[-1]["W"]
    error = abs(work_final - LN2) / LN2
    ratios = [rows[0]["margin"] / rows[1]["margin"],
              rows[1]["margin"] / rows[2]["margin"]]
    elapsed = time.time() - t0
    ok = error < 0.01
    ok &= all(5.0 < r < 20.0 for r in ratios)  # O(1/n), not O(1/sqrt n) or O(1/n^2)
    ok &= all(r["margin"] > 0 for r in rows)
    ok &= elapsed < 10.0
    report(3, ok, f"quasi-static erasure W(1e4) = {work_final:.6f} "
                  f"(error {error:.2%}), 1/n ratios {ratios[0]:.1f}, {ratios[1]:.1f} "
                  f"[{elapsed:.2f}s]")


def test_criterion_4_inequality_suites():
    t0 = time.time()
    meas_rows = measurement_bound_suite(2001, 100)
    eras_rows = erasure_bound_suite(2002, 100)
    margins = {
        "measurement": min(r["measurement_margin"] for r in meas_rows),
        "erasure_paired": min(r["erasure_margin"] for r in meas_rows),
        "erasure": min(r["margin"] for r in eras_rows),
        "sum": min(r["sum_margin"] for r in meas_rows),
    }
    szilard = {t: szilard_reconciliation(t) for t in (0.5, 0.8)}
    elapsed = time.time() - t0
    ok = all(m >= -1e-6 for m in margins.values())
    ok &= all(r.lhs <= 1e-9 for r in szilard.values())
    ok &= elapsed < 60.0
    detail = ", ".join(f"{k} min {v:.2e}" for k, v in margins.items())
    report(4, ok, f"{detail}; Szilard lhs {szilard[0.5].lhs:.2e} (t=0.5), "
                  f"{szilard[0.8].lhs:.2e} (t=0.8) [{elapsed:.1f}s]")


def test_criterion_5_qc_mutual_information():
    t0 = time.time()
    # error-free projective classical instances
    ok = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(dim))
        rho = diagonal_state(p)
        info = qc_mutual_information(rho, projective_model(dim))
        ok &= abs(info - shannon_entropy(p)) < 1e-8
    # trivial POVMs
    for seed in range(20):
        rng = np.random.default_rng(100 + seed)
        dim = int(rng.integers(2, 5))
        rho = random_instance(seed, dim, "state")
        model = trivial_model(rng.dirichlet(np.ones(3)), dim)
        ok &= abs(qc_mutual_information(rho, model)) < 1e-9
    # 1000 random quantum instances; the dual-formula agreement at 1e-8 is
    # enforced inside qc_mutual_information on every call
    worst_low, worst_high = 0.0, 0.0
    for seed in range(1000):
        rng = np.random.default_rng(10_000 + seed)
        dim = int(rng.integers(2, 5))
        rho = random_instance(seed, dim, "state")
        model = random_model(rng, dim, int(rng.integers(2, 4)),
                             ops_per_outcome=int(rng.integers(1, 3)))
        info = qc_mutual_information(rho, model)
        h = shannon_entropy(outcome_statistics(rho, model).probabilities)
        worst_low = min(worst_low, info)
        worst_high = max(worst_high, info - h)
    elapsed = time.time() - t0
    ok &= worst_low >= -1e-9 and worst_high <= 1e-9
    ok &= elapsed < 30.0
    report(5, ok, f"I = H (projective), I = 0 (trivial), 0 <= I <= H on 1000 "
                  f"instances (min I {worst_low:.1e}, max I-H {worst_high:.1e}), "
                  f"dual-formula check always on [{elapsed:.1f}s]")


def test_criterion_6_classical_decomposition():
    t0 = time.time()
    worst = 0.0
    povm_ok = True
    for seed in range(100):
        rng = np.random.default_rng(seed)
        dim_s = int(rng.integers(2, 5))
        n_branches = int(rng.integers(2, 5))
        bath = int(rng.integers(1, 5))
        dim_mb = n_branches * bath
        branch = np.repeat(np.arange(n_branches), bath)
        u = random_instance(seed + 60_000, dim_s * dim_mb, "permutation")
        rho_s = diagonal_state(rng.dirichlet(np.ones(dim_s)))
        if seed % 2 == 0:
            # memory prepared in the standard branch, random bath
            weights = np.zeros(dim_mb)
            weights[:bath] = rng.dirichlet(np.ones(bath))
        else:
            weights = rng.dirichlet(np.ones(dim_mb))
        rho_mb = diagonal_state(weights)
        details = classical_decompose(u, rho_s, rho_mb, branch)
        worst = max(worst, details.max_deviation)
        povm_ok &= np.max(np.abs(sum(details.model.effects) - np.eye(dim_s))) < 1e-9
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and povm_ok
    report(6, ok, f"100 permutation instances up to 4x4x4 reconstructed, "
                  f"max deviation {worst:.2e}, effects sum to identity "
                  f"[{elapsed:.1f}s]")


def test_criterion_7_langevin_reproduction():
    t0 = time.time()
    cpu0 = sum(os.times()[:4])
    temperature = 1.0
    pot_sym = symmetric_double_well()
    sym = simulate_erasure(
        pot_sym, erasure_protocol_schedule(pot_sym, 750.0),
        EnsembleParams(n_traj=10_000, seed=20250810, dt=1e-3))
    jz_sym = jarzynski_check(
        sym, reset_free_energy(basin_free_energies(pot_sym, temperature), temperature))

    pot_asym = tune_tilt_for_ratio(1.0, 6.5, 4.0, temperature)
    asym = simulate_erasure(
        pot_asym, erasure_protocol_schedule(pot_asym, 480.0),
        EnsembleParams(n_traj=10_000, seed=20250811, dt=1e-3))

    # work-ledger audit: fast reset from equilibrium weights, where the
    # exponential average is sampleable against the quadrature reset cost
    eq = basin_free_energies(pot_asym, temperature)
    audit = simulate_erasure(
        pot_asym, erasure_protocol_schedule(pot_asym, 8.0),
        EnsembleParams(n_traj=10_000, seed=12, dt=1e-3,
                       initial_weights=(eq.p_eq_left, 1.0 - eq.p_eq_left)))
    jz_audit = jarzynski_check(audit, reset_free_energy(eq, temperature))

    elapsed = time.time() - t0
    # CPU seconds of this process and of the worker processes it waited
    # for (`simulate_erasure` steps half of a wide ensemble in one): unlike
    # the elapsed time, they do not grow while other programs hold the cores
    cpu = sum(os.times()[:4]) - cpu0
    # 10^4 trajectories through tau = 750, 480 and 8 at dt = 1e-3
    particle_steps = 10_000 * (750_000 + 480_000 + 8_000)
    ratio = sym.mean_work / LN2
    ok = 0.95 <= ratio <= 1.05
    ok &= abs(asym.mean_work) <= 0.05
    ok &= abs(jz_sym.z_score) <= 3.0 and abs(jz_audit.z_score) <= 3.0
    ok &= sym.success_fraction >= 0.99 and asym.success_fraction >= 0.99
    # second law at ensemble level (cyclic protocol, endpoint dF = 0)
    ok &= sym.mean_work >= -3 * sym.stderr and asym.mean_work >= -3 * asym.stderr
    ok &= elapsed < 300.0
    report(7, ok,
           f"symmetric <W> = {sym.mean_work:.4f} = {ratio:.4f} ln2 "
           f"(success {sym.success_fraction:.4f}, z = {jz_sym.z_score:+.2f}); "
           f"asymmetric <W> = {asym.mean_work:.4f} "
           f"(success {asym.success_fraction:.4f}); "
           f"audit z = {jz_audit.z_score:+.2f}; clamp hits {sym.clamp_hits}, "
           f"{asym.clamp_hits}, {audit.clamp_hits} "
           f"[{elapsed:.0f}s, {cpu:.0f}s CPU, "
           f"{particle_steps / elapsed:.3g} particle-steps/s]")
