"""End-to-end acceptance checks for the estimation pipeline.

Each test prints one labeled PASS/FAIL line straight to the terminal
(bypassing pytest capture) so a full run doubles as a checklist.  The
large-scale checks share one n=8 calibration/tomography pair collected
at a million shots under the chain-crosstalk channel.
"""

import itertools
import math

import numpy as np
import pytest
from cli_runner import invoke
from oracles import (
    MeasurementSetting,
    bit,
    dense_mitigated_shadow,
    dense_shadow,
    mitigated_shade,
    support_shades,
    transition_row,
    xi_by_label,
)

from xshadow.bitspace import BitString, walsh_transform
from xshadow.noise import ChainCrosstalkModel, IndependentFlipModel
from xshadow.protocols import (
    calibration_sample_bound,
    estimate_correlators,
    g_hat,
    independent_g,
    random_correlators,
    run_calibration,
    run_tomography,
    tomography_sample_bound,
)
from xshadow.qsim import (
    Correlator,
    exact_expectation,
    pauli_directions,
    pauli_operator,
    random_circuit_state,
)
from xshadow.storage import read_calibration, read_tomography, write_calibration, write_tomography

NOISE_P10 = 0.07
NOISE_P01 = 0.05
GAMMA = 0.5

BIG_N = 8
BIG_SHOTS = 10**6
CIRCUIT_SEED = 3
CIRCUIT_DEPTH = 20
CAL_SEED = 11
TOMO_SEED = 12
CORRELATOR_SEED = 2026


@pytest.fixture
def announce(capsys):
    def emit(label, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[{label}] {status} {detail}".rstrip())

    return emit


@pytest.fixture(scope="module")
def pauli_xi():
    return xi_by_label(pauli_directions())


@pytest.fixture(scope="module")
def big_model():
    return ChainCrosstalkModel(BIG_N, NOISE_P10, NOISE_P01, GAMMA)


@pytest.fixture(scope="module")
def big_cal(big_model):
    return run_calibration(big_model, BIG_SHOTS, seed=CAL_SEED)


@pytest.fixture(scope="module")
def big_state():
    return random_circuit_state(BIG_N, CIRCUIT_DEPTH, seed=CIRCUIT_SEED)


@pytest.fixture(scope="module")
def big_tomo(big_state, big_model):
    return run_tomography(big_state, pauli_directions(), big_model, BIG_SHOTS, seed=TOMO_SEED)


def _twirled_table_by_enumeration(model):
    """Independent route to the twirled channel: average the full
    transition table over simultaneous translations."""
    size = 1 << model.n
    table = np.zeros(size)
    for t in range(size):
        row = transition_row(model, t)
        for d in range(size):
            table[d] += row[t ^ d]
    return table / size


def _local_projector(directions, outcome_value, n):
    """Test-local kron of single-qubit effects (identity + (-1)^s d.sigma)/2."""
    op = np.ones((1, 1), dtype=complex)
    for qubit in range(n - 1, -1, -1):
        sign = 1 - 2 * ((outcome_value >> qubit) & 1)
        op = np.kron(op, (np.eye(2) + sign * pauli_operator(directions[qubit])) / 2)
    return op


def _correlator_matrix(correlator):
    op = np.ones((1, 1), dtype=complex)
    for qubit in range(correlator.n - 1, -1, -1):
        if bit(correlator.pattern, qubit):
            factor = pauli_operator(correlator.observables[qubit])
        else:
            factor = np.eye(2)
        op = np.kron(op, factor)
    return op


class TestShadowUnbiasedness:
    def test_reconstruction_under_three_channels(self, announce, pauli_xi):
        """Exhaustive outcome averages of plain and mitigated shadows
        rebuild the state under identity, independent, and crosstalk noise."""
        worst_plain = 0.0
        worst_mitigated = 0.0
        dirs = pauli_directions()
        for n in (2, 3):
            size = 1 << n
            settings = list(itertools.product(dirs, repeat=n))
            models = [
                IndependentFlipModel(n, 0.0, 0.0),
                IndependentFlipModel(n, NOISE_P10, NOISE_P01),
                ChainCrosstalkModel(n, NOISE_P10, NOISE_P01, GAMMA),
            ]
            projectors = {}
            plain_shadows = {}
            for si, setting in enumerate(settings):
                for s in range(size):
                    projectors[si, s] = _local_projector(setting, s, n)
                    plain_shadows[si, s] = dense_shadow(
                        pauli_xi, MeasurementSetting(setting), BitString(n, s)
                    )
            mitigated_shadows = {}
            tables = {}
            for mi, model in enumerate(models):
                table = _twirled_table_by_enumeration(model)
                tables[mi] = table
                for si, setting in enumerate(settings):
                    for s in range(size):
                        mitigated_shadows[mi, si, s] = dense_mitigated_shadow(
                            pauli_xi, MeasurementSetting(setting), BitString(n, s), table
                        )
            for rep in range(20):
                state = random_circuit_state(n, 12, seed=100 * n + rep)
                psi = state.amplitudes
                rho = np.outer(psi, psi.conj())
                born = {
                    si: np.array(
                        [np.real(psi.conj() @ projectors[si, s] @ psi) for s in range(size)]
                    )
                    for si in range(len(settings))
                }
                recon_plain = np.zeros((size, size), dtype=complex)
                for si in range(len(settings)):
                    for s in range(size):
                        recon_plain += born[si][s] * plain_shadows[si, s]
                recon_plain /= len(settings)
                worst_plain = max(worst_plain, np.max(np.abs(recon_plain - rho)))
                for mi in range(len(models)):
                    table = tables[mi]
                    recon = np.zeros((size, size), dtype=complex)
                    for si in range(len(settings)):
                        noisy = np.array(
                            [
                                sum(born[si][sp] * table[s ^ sp] for sp in range(size))
                                for s in range(size)
                            ]
                        )
                        for s in range(size):
                            recon += noisy[s] * mitigated_shadows[mi, si, s]
                    recon /= len(settings)
                    worst_mitigated = max(worst_mitigated, np.max(np.abs(recon - rho)))
        ok = worst_plain < 1e-8 and worst_mitigated < 1e-8
        announce(
            "A1 shadow-unbiasedness",
            ok,
            f"max plain err {worst_plain:.2e}, max mitigated err {worst_mitigated:.2e} "
            "(20 states, n=2 and 3, three channels, tol 1e-8)",
        )
        assert ok


class TestFourierShortcut:
    def test_factorized_equals_dense_route(self, announce, pauli_xi):
        """Per-shot mitigated shades agree with the brute-force
        matrix-inverse route on random tuples."""
        n = 3
        rng = np.random.default_rng(2)
        dirs = pauli_directions()
        model = ChainCrosstalkModel(n, NOISE_P10, NOISE_P01, GAMMA)
        table = model.twirled_table()
        g = walsh_transform(table)
        worst = 0.0
        for _ in range(100):
            setting = MeasurementSetting(tuple(dirs[i] for i in rng.integers(0, 3, n)))
            outcome = BitString(n, int(rng.integers(0, 1 << n)))
            pattern = BitString(n, int(rng.integers(1, 1 << n)))
            correlator = Correlator(
                pattern, {q: dirs[rng.integers(0, 3)] for q in pattern.support()}
            )
            fast = mitigated_shade(
                pauli_xi, setting, outcome, correlator, g[pattern.value]
            )
            dense = np.trace(
                dense_mitigated_shadow(pauli_xi, setting, outcome, table)
                @ _correlator_matrix(correlator)
            ).real
            worst = max(worst, abs(fast - dense))
        ok = worst < 1e-8
        announce(
            "A2 fourier-shortcut",
            ok,
            f"max |factorized - dense| {worst:.2e} over 100 tuples at n=3 (tol 1e-8)",
        )
        assert ok


class TestClosedFormSpectrum:
    def test_symmetric_flip_spectrum(self, announce):
        """Symmetric independent flips give components (1-2 eta)^|w|."""
        n = 6
        worst = 0.0
        for eta in (0.05, 0.1, 0.2):
            g = walsh_transform(IndependentFlipModel(n, eta, eta).twirled_table())
            for w in range(1 << n):
                expected = (1.0 - 2.0 * eta) ** bin(w).count("1")
                worst = max(worst, abs(g[w] - expected))
        ok = worst < 1e-10
        announce(
            "A3 closed-form-spectrum",
            ok,
            f"max deviation {worst:.2e} at n=6, eta in {{0.05, 0.1, 0.2}} (tol 1e-10)",
        )
        assert ok


class TestComponentConvergence:
    def test_inverse_component_rms_scaling(self, announce, big_cal, big_model):
        """RMS error of 1/ghat(w) falls like one over root size, and grows
        with the weight of w at fixed size.

        Pooled over every wavevector of each weight: under the chain
        channel, adjacent supports get correlation-boosted components, so
        individual weight-2 curves can undercut weight-1 curves; the
        ordering claim is about the weight class as a whole.
        """
        rng = np.random.default_rng(404)
        g_true = walsh_transform(big_model.twirled_table())
        sizes = np.unique(
            np.round(np.logspace(3, np.log10(BIG_SHOTS // 10), 8)).astype(int)
        )
        resamples = 50
        weights = (1, 2, 3)
        rms = {}
        for weight in weights:
            combos = list(itertools.combinations(range(BIG_N), weight))
            square_errors = np.zeros((len(sizes), len(combos) * resamples))
            for pi, support in enumerate(combos):
                w = BitString(BIG_N, sum(1 << q for q in support))
                parity = np.bitwise_xor.reduce(big_cal.outcomes[:, list(support)], axis=1)
                inv_true = 1.0 / g_true[w.value]
                for i, size in enumerate(sizes):
                    for b in range(resamples):
                        # mean of (-1)^parity over the drawn records: the sum of
                        # +-1.0 is an exact integer, so this is that mean bit for bit
                        ones = np.count_nonzero(parity[rng.integers(0, BIG_SHOTS, size)])
                        mean = (size - 2 * ones) / size
                        square_errors[i, pi * resamples + b] = (1.0 / mean - inv_true) ** 2
            rms[weight] = np.sqrt(square_errors.mean(axis=1))
        slopes = {
            weight: float(np.polyfit(np.log(sizes), np.log(rms[weight]), 1)[0])
            for weight in weights
        }
        slopes_ok = all(-0.6 <= slopes[w] <= -0.4 for w in weights)
        ordering_ok = all(
            rms[weights[i]][k] <= rms[weights[i + 1]][k]
            for i in range(len(weights) - 1)
            for k in range(len(sizes))
        )
        ok = slopes_ok and ordering_ok
        announce(
            "A4 component-convergence",
            ok,
            "slopes "
            + ", ".join(f"|w|={w}: {slopes[w]:+.3f}" for w in weights)
            + f", ordering non-decreasing in |w|: {ordering_ok} "
            "(band [-0.6, -0.4], n=8, million-record base)",
        )
        assert ok


class TestSpectrumDecay:
    def test_mean_component_decreases_with_weight(self, announce, big_model):
        """Crosstalk spectrum: the average component over fixed weight
        strictly decreases for weights 1 through 6."""
        g = walsh_transform(big_model.twirled_table())
        weights = np.array([bin(w).count("1") for w in range(1 << BIG_N)])
        means = [float(np.mean(g[weights == k])) for k in range(1, 7)]
        ok = all(means[i] > means[i + 1] for i in range(len(means) - 1))
        announce(
            "A5 spectrum-decay",
            ok,
            "means " + ", ".join(f"{m:.4f}" for m in means) + " strictly decreasing",
        )
        assert ok
        assert means[0] == pytest.approx(0.7899, abs=5e-4)


class TestBiasRemoval:
    def test_three_estimators_on_crosstalk_data(
        self, announce, big_state, big_cal, big_tomo
    ):
        """Mitigation is unbiased at four-sigma resolution; the raw and
        wrong-model estimators are provably biased on a strong correlator."""
        correlators = random_correlators(
            BIG_N, [1, 2, 3, 4], 3, seed=CORRELATOR_SEED, directions=pauli_directions()
        )
        truths = [exact_expectation(big_state, c) for c in correlators]
        divisors = [
            (
                g_hat(big_cal, correlator.pattern),
                1.0,
                independent_g(correlator, NOISE_P10, NOISE_P01),
            )
            for correlator in correlators
        ]
        estimates = estimate_correlators(big_tomo, correlators, divisors, resamples=200, seed=0)
        reports = [
            (correlator, truth, mit, unm, ind)
            for correlator, truth, (mit, unm, ind) in zip(correlators, truths, estimates)
        ]
        within = sum(abs(mit.estimate - truth) <= 4 * mit.stderr for _, truth, mit, _, _ in reports)

        # a strong correlator: degree >= 2 and a truth value well away from zero
        qualifying = [r for r in reports if r[0].degree >= 2 and abs(r[1]) > 0.2]
        assert qualifying

        unm_sigmas = max(
            abs(r[3].estimate - r[1]) / r[3].stderr for r in qualifying
        )
        ind_sigmas = max(
            abs(r[4].estimate - r[1]) / r[4].stderr for r in qualifying
        )
        mitigation_ok = within >= 11
        raw_biased = unm_sigmas > 4.0
        indep_biased = ind_sigmas > 4.0
        ok = mitigation_ok and raw_biased and indep_biased
        announce(
            "A6 bias-removal",
            ok,
            f"mitigated within 4se: {within}/12; raw bias {unm_sigmas:.1f} sigma, "
            f"independent-model bias {ind_sigmas:.1f} sigma on strong correlators "
            f"({len(qualifying)} qualifying)",
        )
        assert ok


class TestEstimatorConvergence:
    def test_mitigated_rms_scaling_by_degree(
        self, announce, pauli_xi, big_state, big_cal, big_tomo
    ):
        """Mitigated-estimator RMS falls like one over root size for every
        degree, and grows with degree at fixed size."""
        degrees = (1, 2, 3, 4)
        correlators = random_correlators(
            BIG_N, list(degrees), 5, seed=303, directions=pauli_directions()
        )
        rng = np.random.default_rng(707)
        sizes = np.unique(
            np.round(np.logspace(3, np.log10(BIG_SHOTS // 10), 8)).astype(int)
        )
        resamples = 200
        spectrum = big_cal.spectrum
        curves = []
        for correlator in correlators:
            g_v = spectrum[correlator.pattern.value]
            shades = support_shades(big_tomo, correlator, pauli_xi) / g_v
            # the shades take a few distinct values (products of per-qubit
            # overlaps), found on their bit patterns so that 0.0 and -0.0
            # stay apart: looking up the gathered uint8 codes gives
            # shades[idx] bit for bit, and so the same means
            patterns, codes = np.unique(shades.view(np.int64), return_inverse=True)
            assert len(patterns) <= 256
            values, codes = patterns.view(np.float64), codes.astype(np.uint8)
            truth = exact_expectation(big_state, correlator)
            errors = np.empty((len(sizes), resamples))
            for i, size in enumerate(sizes):
                for b in range(resamples):
                    mean = values.take(codes.take(rng.integers(0, BIG_SHOTS, size))).mean()
                    errors[i, b] = (mean - truth) ** 2
            curves.append((correlator.degree, np.sqrt(errors.mean(axis=1))))
        rms = {
            degree: np.mean([curve for d, curve in curves if d == degree], axis=0)
            for degree in degrees
        }
        slopes = {
            degree: float(np.polyfit(np.log(sizes), np.log(rms[degree]), 1)[0])
            for degree in degrees
        }
        slopes_ok = all(-0.6 <= slopes[d] <= -0.4 for d in degrees)
        ordering_ok = all(
            rms[degrees[i]][k] <= rms[degrees[i + 1]][k]
            for i in range(len(degrees) - 1)
            for k in range(len(sizes))
        )
        ok = slopes_ok and ordering_ok
        announce(
            "A7 estimator-convergence",
            ok,
            "slopes "
            + ", ".join(f"d={d}: {slopes[d]:+.3f}" for d in degrees)
            + f", ordering non-decreasing in degree: {ordering_ok} "
            "(band [-0.6, -0.4], 5 correlators per degree)",
        )
        assert ok


class TestSampleBounds:
    def test_bound_values_and_coverage(self, announce):
        """Bound calculators match one-line arithmetic; collecting the
        prescribed shot counts achieves the promised failure rate."""
        epsilon, delta = 0.1, 0.05
        cal_direct = math.floor(-32.0 * math.log(delta / 2.0) / epsilon**2) + 1
        tomo_direct = math.floor(-2.0 * math.log(delta / 2.0) / epsilon**2 * 3.0**4) + 1
        values_ok = (
            calibration_sample_bound(epsilon, delta) == cal_direct == 11805
            and tomography_sample_bound(epsilon, delta, 3.0, 2) == tomo_direct == 59760
        )

        n = 2
        eta = 0.05
        model = IndependentFlipModel(n, eta, eta)
        state = random_circuit_state(n, 8, seed=42)
        z = pauli_directions()[2]
        correlator = Correlator(BitString(n, 0b11), {0: z, 1: z})
        truth = exact_expectation(state, correlator)
        g_pattern = walsh_transform(model.twirled_table())[correlator.pattern.value]
        cal_shots = calibration_sample_bound(epsilon, delta, g_pattern)
        tomo_shots = tomography_sample_bound(epsilon, delta, 3.0, 2, g_pattern)
        failures = 0
        reps = 200
        for rep in range(reps):
            cal = run_calibration(model, cal_shots, seed=1000 + rep)
            tomo = run_tomography(
                state, pauli_directions(), model, tomo_shots, seed=5000 + rep
            )
            g_v = g_hat(cal, correlator.pattern)
            ((est,),) = estimate_correlators(tomo, [correlator], [(g_v,)], resamples=2, seed=0)
            if abs(est.estimate - truth) > epsilon:
                failures += 1
        coverage_ok = failures / reps <= delta
        ok = values_ok and coverage_ok
        announce(
            "A8 sample-bounds",
            ok,
            f"calibration bound {calibration_sample_bound(epsilon, delta)}, "
            f"tomography bound {tomography_sample_bound(epsilon, delta, 3.0, 2)}, "
            f"empirical failure rate {failures}/{reps} (allowed {delta})",
        )
        assert ok


class TestDeterminismPersistence:
    def test_byte_identity_and_round_trip(self, announce, tmp_path):
        """Same seed, same bytes; parsing then rewriting changes nothing."""
        config = tmp_path / "cfg.yaml"
        config.write_text(
            "n: 3\ndepth: 6\n"
            "noise:\n  model: chain_crosstalk\n  p10: 0.07\n  p01: 0.05\n  gamma: 0.5\n"
            "calibration_shots: 100000\ntomography_shots: 100000\n",
            encoding="utf-8",
        )
        pairs = {}
        for name, command in (("cal", "calibrate"), ("tomo", "tomography")):
            files = []
            for attempt in range(2):
                out = tmp_path / f"{name}{attempt}.txt"
                result = invoke(
                    [command, "--config", str(config), "--out", str(out)]
                )
                assert result.exit_code == 0, result.output
                files.append(out.read_bytes())
            pairs[name] = files
        identical = all(files[0] == files[1] for files in pairs.values())

        cal = read_calibration(str(tmp_path / "cal0.txt"))
        tomo = read_tomography(str(tmp_path / "tomo0.txt"))
        rewrite_cal = tmp_path / "cal_rw.txt"
        rewrite_tomo = tmp_path / "tomo_rw.txt"
        write_calibration(str(rewrite_cal), cal)
        write_tomography(str(rewrite_tomo), tomo)
        lossless = (
            rewrite_cal.read_bytes() == pairs["cal"][0]
            and rewrite_tomo.read_bytes() == pairs["tomo"][0]
            and len(cal) == 100000
            and len(tomo) == 100000
        )
        ok = identical and lossless
        announce(
            "A9 determinism-persistence",
            ok,
            f"byte-identical reruns: {identical}, lossless round trip "
            f"on {len(cal)}-record files: {lossless}",
        )
        assert ok
