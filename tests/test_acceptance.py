"""End-to-end acceptance gate.

One test per release criterion; each prints a single pass/fail line with
the worst observed residual and its bound, and asserts both the numeric
tolerance and the runtime budget.
"""

import math
import time

import numpy as np

from iopsim import linalg
from iopsim.cli import main as cli_main
from iopsim.condensation import CondensationStructure, label_probabilities
from iopsim.dynamics import UnitaryOp, evolve
from iopsim.iop import (
    contract,
    contraction_from_max,
    contraction_from_mixture,
    decompose,
    entropy,
    max_iop,
    validate,
)
from iopsim.measurement import (
    MeasurementSystem,
    estimate_probabilities,
    expectation,
    observable,
    outcome_probabilities,
)
from iopsim.scenarios import spin_one_example, stern_gerlach, two_slit

from conftest import projectors, random_iop, random_pure, random_unitary


def _report(name, passed, detail):
    line = f"criterion {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert passed, line


class TestAcceptance:
    def test_criterion_1_deflection_measurement_exactness(self):
        start = time.perf_counter()
        report = stern_gerlach(p_up_prior=0.5, mc_samples=1000, seed=0)
        elapsed = time.perf_counter() - start
        by_name = {c.description.split(" ")[0]: c for c in report.checks}
        final = by_name["final_operator"]
        unitary = by_name["interaction_unitary"]
        weights = by_name["branch_weights"]
        worst = max(final.residual, unitary.residual, weights.residual)
        _report(
            "1 deflection-measurement exactness",
            worst <= 1e-12 and report.all_pass() and elapsed < 1.0,
            f"worst residual {worst:.2e} <= 1e-12, runtime {elapsed:.2f}s < 1s")

    def test_criterion_2_spin_one_multiple_description(self):
        start = time.perf_counter()
        rho_plus = validate(np.diag([1.0, 0.0, 0.0]))
        rho_minus = validate(np.diag([0.0, 0.0, 1.0]))
        rho_prime = validate(np.diag([0.5, 0.0, 0.5]))
        r1 = linalg.frobenius_dist(
            contract(max_iop(3), contraction_from_max(rho_prime)).matrix,
            rho_prime.matrix)
        r2 = max(
            linalg.frobenius_dist(
                contract(rho_prime,
                         contraction_from_mixture(rho_prime, part)).matrix,
                part.matrix)
            for part in (rho_plus, rho_minus))
        report = spin_one_example()
        weights = report.outputs["decompose_weights"]
        weights_exact = weights == [0.5, 0.5]
        flagged = any("transposed" in note for note in report.notes)
        e_ok = (abs(report.outputs["entropy_mixture"] - math.log(2)) <= 1e-12
                and abs(report.outputs["entropy_max"] - math.log(3)) <= 1e-12)
        elapsed = time.perf_counter() - start
        _report(
            "2 spin-1 multiple description",
            max(r1, r2) <= 1e-9 and weights_exact and flagged and e_ok
            and report.all_pass() and elapsed < 1.0,
            f"contraction residuals {max(r1, r2):.2e} <= 1e-9, weights exact, "
            f"entropies log2/log3 with transposition note, "
            f"runtime {elapsed:.2f}s < 1s")

    def test_criterion_3_randomized_invariant_suites(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20260823)
        worst = {"validity": 0.0, "entropy": 0.0, "round_trip_max": 0.0,
                 "round_trip_mixture": 0.0, "normalization": 0.0,
                 "expectation": 0.0}
        for d in (2, 3, 4, 8):
            basis_u = random_unitary(rng, d)
            ms = MeasurementSystem.projective(
                {str(j): np.outer(basis_u.matrix[:, j],
                                  basis_u.matrix[:, j].conj())
                 for j in range(d)},
                f={str(j): float(rng.normal()) for j in range(d)})
            obs = observable(ms)
            for _ in range(1000):
                rho = random_iop(rng, d)
                u = random_unitary(rng, d)
                evolved = evolve(rho, u)  # raises unless the result is valid
                w = np.linalg.eigvalsh(evolved.matrix)
                worst["validity"] = max(
                    worst["validity"],
                    abs(float(np.trace(evolved.matrix).real) - 1.0),
                    max(0.0, -float(w[0])))
                worst["entropy"] = max(
                    worst["entropy"], abs(entropy(evolved) - entropy(rho)))
                worst["round_trip_max"] = max(
                    worst["round_trip_max"],
                    linalg.frobenius_dist(
                        contract(max_iop(d), contraction_from_max(rho)).matrix,
                        rho.matrix))
                other = random_iop(rng, d)
                whole = validate(0.5 * rho.matrix + 0.5 * other.matrix)
                worst["round_trip_mixture"] = max(
                    worst["round_trip_mixture"],
                    linalg.frobenius_dist(
                        contract(whole,
                                 contraction_from_mixture(whole, rho)).matrix,
                        rho.matrix))
                probs = dict(outcome_probabilities(ms, rho))
                worst["normalization"] = max(
                    worst["normalization"], abs(sum(probs.values()) - 1.0))
                weighted = sum(ms.f[m] * probs[m] for m in probs)
                worst["expectation"] = max(
                    worst["expectation"],
                    abs(weighted - expectation(obs, rho)))
        elapsed = time.perf_counter() - start
        bounds = {"validity": 1e-9, "entropy": 1e-9, "round_trip_max": 1e-8,
                  "round_trip_mixture": 1e-8, "normalization": 1e-9,
                  "expectation": 1e-9}
        ok = all(worst[k] <= bounds[k] for k in bounds)
        detail = ", ".join(f"{k} {worst[k]:.2e}<={bounds[k]:.0e}"
                           for k in bounds)
        _report("3 randomized invariant suites (4000 operators)",
                ok and elapsed < 60.0,
                f"{detail}, runtime {elapsed:.1f}s < 60s")

    def test_criterion_4_condensation_invariance(self):
        start = time.perf_counter()
        rng = np.random.default_rng(7)
        structure = CondensationStructure.from_index_blocks(
            4, {"+": [0, 1], "-": [2, 3]})
        worst = 0.0
        for _ in range(1000):
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2] = random_unitary(rng, 2).matrix
            u[2:, 2:] = random_unitary(rng, 2).matrix
            rho = random_iop(rng, 4).matrix
            p0 = np.array([float(np.trace(p @ rho @ p).real)
                           for p in projectors(structure)])
            for _ in range(100):
                rho = u @ rho @ u.conj().T
            p1 = np.array([float(np.trace(p @ rho @ p).real)
                           for p in projectors(structure)])
            worst = max(worst, float(np.max(np.abs(p1 - p0))))
            # spot-check the public API agrees with the raw-matrix loop
        check = random_iop(rng, 4)
        api = dict(label_probabilities(check, structure))
        raw = {m: float(np.trace(p @ check.matrix @ p).real)
               for m, p in zip(structure.labels, projectors(structure))}
        assert all(abs(api[m] - raw[m]) <= 1e-12 for m in raw)
        elapsed = time.perf_counter() - start
        _report("4 condensation invariance (1000 unitaries x 100 steps)",
                worst <= 1e-9 and elapsed < 30.0,
                f"worst drift {worst:.2e} <= 1e-9, runtime {elapsed:.1f}s < 30s")

    def test_criterion_5_monte_carlo_consistency(self):
        start = time.perf_counter()
        rng = np.random.default_rng(99)
        ms = MeasurementSystem.projective(
            {"up": np.diag([1.0, 0.0]), "down": np.diag([0.0, 1.0])},
            f={"up": 0.5, "down": -0.5})
        n = 100_000
        worst_excess = -1.0
        targets = [max_iop(2)] + [random_pure(rng, 2) for _ in range(3)]
        for i, rho in enumerate(targets):
            exact = dict(outcome_probabilities(ms, rho))
            freq = dict(estimate_probabilities(ms, rho, n, seed=1000 + i))
            for m, p in exact.items():
                bound = 4 * math.sqrt(max(p * (1 - p), 0.0) / n)
                worst_excess = max(worst_excess, abs(freq[m] - p) - bound)
        elapsed = time.perf_counter() - start
        _report("5 Monte-Carlo consistency (n=1e5)",
                worst_excess <= 0.0 and elapsed < 10.0,
                f"worst excess over 4-sigma bound {worst_excess:.2e} <= 0, "
                f"runtime {elapsed:.1f}s < 10s")

    def test_criterion_6_two_slit_interference(self):
        start = time.perf_counter()
        report = two_slit(grid_n=128)
        ca = report.outputs["contrast_coherent"]
        cb = report.outputs["contrast_incoherent"]
        one = next(c for c in report.checks
                   if c.description.startswith("one_slit_control"))
        elapsed = time.perf_counter() - start
        _report("6 two-slit interference",
                ca > cb and one.residual <= 1e-9 and report.all_pass()
                and elapsed < 10.0,
                f"contrast {ca:.4f} > {cb:.4f}, one-slit cross-check "
                f"{one.residual:.2e} <= 1e-9, runtime {elapsed:.1f}s < 10s")

    def test_criterion_7_byte_identical_reports(self, tmp_path):
        files = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.json"
            code = cli_main(["run", "stern-gerlach", "--seed", "314",
                             "--mc-samples", "10000", "--out", str(path)])
            assert code == 0
            files.append(path.read_bytes())
        same = files[0] == files[1]
        _report("7 byte-identical reports for identical config+seed", same,
                f"{len(files[0])} bytes, identical={same}")
