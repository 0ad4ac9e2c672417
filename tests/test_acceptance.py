"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
"""

import itertools
import math
import time

import numpy as np

from wcavity.cli import main as cli_main
from wcavity.dynamics import (
    build_hamiltonian,
    evolve_closed_form,
    propagate_numeric,
)
from wcavity.entanglement import (
    concurrence,
    ghz_state,
    partial_trace,
    success_probability,
    w_state,
)
from wcavity.fock import StateVector, initial_state
from wcavity.protocol import coupling_disorder_sweep, optimal_time, timing_error_sweep
from wcavity.validation import measure_rabi_period

from codes import excitations
from qubit_space import qubit_basis, qubit_hamiltonian


def verdict(number: int, ok: bool, description: str, detail: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} {description} ({detail})")


def test_criterion_1_deterministic_w_generation():
    start = time.perf_counter()
    n, eps = 3, 1.0
    t_star = math.pi / (2.0 * math.sqrt(3.0) * eps)
    couplings = (eps,) * n
    closed = evolve_closed_form(couplings, t_star)
    basis = closed.basis

    excited_amp = closed.amplitude(1 << n)  # |e;0...0>
    # |g;1_i> for each mode i
    photon_moduli = [abs(closed.amplitude(1 << n - i)) for i in range(1, n + 1)]

    closed_ok = (
        abs(excited_amp) <= 1e-12
        and all(abs(m - 1.0 / math.sqrt(3.0)) <= 1e-12 for m in photon_moduli)
        and abs(success_probability(closed) - 1.0) <= 1e-12
    )
    H = build_hamiltonian(couplings=couplings, detunings=(0.0,) * n)
    numeric = propagate_numeric(H, initial_state(basis), t_star)
    gap = float(np.max(np.abs(closed.amplitudes - numeric.amplitudes)))
    elapsed = time.perf_counter() - start

    ok = closed_ok and gap <= 1e-9 and elapsed < 1.0
    verdict(1, ok, "deterministic W generation at n=3",
            f"gap={gap:.2e}, runtime={elapsed:.3f}s < 1s")
    assert closed_ok
    assert gap <= 1e-9
    assert elapsed < 1.0


def test_criterion_2_general_n_claim():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 9):
        eps = 1.0
        t_star = optimal_time(n, eps)
        couplings = (eps,) * n
        closed = evolve_closed_form(couplings, t_star)
        basis = closed.basis
        target = w_state(basis)
        H = build_hamiltonian(couplings=couplings, detunings=(0.0,) * n)
        numeric = propagate_numeric(H, initial_state(basis), t_star)
        for psi in (closed, numeric):
            f = abs(np.vdot(target.amplitudes, psi.amplitudes)) ** 2
            worst = max(worst, abs(f - 1.0))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-9 and elapsed < 5.0
    verdict(2, ok, "unit fidelity for every n in 1..8",
            f"max |1-F|={worst:.2e}, runtime={elapsed:.3f}s < 5s")
    assert worst <= 1e-9
    assert elapsed < 5.0


def test_criterion_3_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(160309)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        eps = float(rng.uniform(0.1, 10.0))
        t = float(rng.uniform(0.0, 4.0 * math.pi / eps))
        couplings = (eps,) * n
        closed = evolve_closed_form(couplings, t)
        H = build_hamiltonian(couplings=couplings, detunings=(0.0,) * n)
        numeric = propagate_numeric(H, initial_state(closed.basis), t)
        worst = max(worst, float(np.max(np.abs(closed.amplitudes - numeric.amplitudes))))
    elapsed = time.perf_counter() - start

    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(3, ok, "closed form vs numeric propagator on 100 random draws",
            f"max amplitude gap={worst:.2e}, runtime={elapsed:.3f}s < 10s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_4_collective_rabi_enhancement():
    worst = 0.0
    for n in range(1, 7):
        eps = 1.0
        expected = 2.0 * math.pi / (math.sqrt(n) * eps)
        measured = measure_rabi_period(n, eps)
        worst = max(worst, abs(measured - expected) / expected)

    ok = worst <= 1e-6
    verdict(4, ok, "measured Rabi period equals 2*pi/(sqrt(n) eps) for n in 1..6",
            f"max relative error={worst:.2e}")
    assert worst <= 1e-6


def test_criterion_5_conservation_unitarity_suite():
    rng = np.random.default_rng(50505)
    herm = comm = drift = comp = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5))
        detunings = tuple(float(d) for d in rng.uniform(-5.0, 5.0, size=n))
        couplings = tuple(float(c) for c in rng.uniform(0.1, 3.0, size=n))
        H = qubit_hamiltonian(couplings=couplings, detunings=detunings)
        basis = H.basis
        herm = max(herm, float(np.max(np.abs(H.matrix - H.matrix.conj().T))))
        N = np.diag(excitations(basis))
        comm = max(comm, float(np.max(np.abs(H.matrix @ N - N @ H.matrix))))
        raw = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)
        psi = StateVector(basis, raw / np.linalg.norm(raw))
        t1 = float(rng.uniform(-5.0, 5.0))
        t2 = float(rng.uniform(-5.0, 5.0))
        stepped = propagate_numeric(H, psi, t1)
        drift = max(drift, abs(stepped.norm() - 1.0))
        two = propagate_numeric(H, stepped, t2)
        one = propagate_numeric(H, psi, t1 + t2)
        comp = max(comp, float(np.max(np.abs(two.amplitudes - one.amplitudes))))

    ok = herm <= 1e-12 and comm <= 1e-13 and drift <= 1e-10 and comp <= 1e-9
    verdict(5, ok, "conservation and unitarity on 50 random draws",
            f"hermiticity={herm:.2e}, commutator={comm:.2e}, "
            f"drift={drift:.2e}, composition={comp:.2e}")
    assert herm <= 1e-12
    assert comm <= 1e-13
    assert drift <= 1e-10
    assert comp <= 1e-9


def test_criterion_6_robustness_claim_quantitative():
    worst_w = 0.0
    worst_ghz = 0.0
    for n in range(3, 9):
        basis = qubit_basis(n)
        w = w_state(basis)
        ghz = ghz_state(basis)
        for i, j in itertools.combinations(range(1, n + 1), 2):
            c_w = concurrence(partial_trace(w, {i, j}))
            c_ghz = concurrence(partial_trace(ghz, {i, j}))
            worst_w = max(worst_w, abs(c_w - 2.0 / n))
            worst_ghz = max(worst_ghz, c_ghz)

    ok = worst_w <= 1e-9 and worst_ghz <= 1e-12
    verdict(6, ok, "pairwise concurrence 2/n for W, 0 for GHZ, n in 3..8",
            f"max |C_W - 2/n|={worst_w:.2e}, max C_GHZ={worst_ghz:.2e}")
    assert worst_w <= 1e-9
    assert worst_ghz <= 1e-12


def test_criterion_7_timing_error_law():
    n, eps = 3, 1.0
    t_star = optimal_time(n, eps)
    grid = tuple(np.linspace(-t_star / 2.0, t_star / 2.0, 41) * eps)
    result = timing_error_sweep(n, eps, grid)
    worst = max(
        abs(row.fidelity_mean - math.cos(math.sqrt(n) * row.x) ** 2)
        for row in result
    )

    ok = worst <= 1e-8
    verdict(7, ok, "timing sweep matches cos^2(sqrt(n) eps delta) on 41 points",
            f"max deviation={worst:.2e}")
    assert worst <= 1e-8


def test_criterion_8_sweep_determinism(tmp_path):
    args = (3, 1.0, (0.0, 0.03, 0.08), 50, 42)
    direct = coupling_disorder_sweep(*args)
    rerun = coupling_disorder_sweep(*args)

    out = tmp_path / "sweep.csv"
    args = [
        "sweep", "--n", "3", "--parameter", "coupling-disorder",
        "--grid", "0,0.03,0.08", "--trials", "50", "--seed", "42",
        "--out", str(out),
    ]
    assert cli_main(args) == 0
    first = out.read_bytes()
    assert cli_main(args) == 0
    second = out.read_bytes()

    ok = direct == rerun and first == second
    verdict(8, ok, "identical seed and config give byte-identical sweep CSV",
            f"library rerun equal={direct == rerun}, CLI rerun equal={first == second}")
    assert direct == rerun
    assert first == second
