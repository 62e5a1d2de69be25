"""Acceptance suite: one test per criterion, at the stated tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import math

import numpy as np
import pytest

from transient_lab import (JacobiParams, SignalSource, SymbolicTransient,
                           build_exponential_basis,
                           check_derivative_recurrence, check_multiplication_recurrence,
                           decompose_exact, decompose_numeric,
                           monomial_functional_matrix, oet_analyze,
                           orthogonality_closed_form, orthogonality_integral,
                           prony_fit, rate_functional_matrix, rate_sequence,
                           synthesize_samples, vandermonde_condition)
from transient_lab.cli import main as cli_main

SEED = 20260808


@contextlib.contextmanager
def reporting(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description}")


def log_uniform_rates(rng, count, lo=0.1, hi=10.0, min_gap=0.05):
    """count rates in [lo, hi] with pairwise gaps >= min_gap (greedy thinning)."""
    while True:
        draws = np.sort(np.exp(rng.uniform(math.log(lo), math.log(hi), 4 * count)))
        kept = [float(draws[0])]
        for value in draws[1:]:
            if value - kept[-1] >= min_gap:
                kept.append(float(value))
            if len(kept) == count:
                return kept
        if len(kept) >= 1 and count == 1:
            return kept[:1]


def three_term_family(rng):
    """The numeric-decomposition family: rate gaps >= 0.5 and coefficients
    inside [-5, -0.1] u [0.1, 5], horizon 40 over the slowest rate, 4000
    samples.  Coefficient magnitudes are drawn from [0.5, 5]: adjacent-term
    ratios beyond ~20 combined with wide leading gaps push the smallest term
    below what sequential tail extraction resolves on this horizon."""
    lam1 = rng.uniform(0.25, 0.7)
    gaps = rng.uniform(0.5, 1.2, 2)
    rates = np.array([lam1, lam1 + gaps[0], lam1 + gaps[0] + gaps[1]])
    coeffs = np.array([rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]) for _ in range(3)])
    signal = SymbolicTransient(tuple(zip(rates, coeffs)))
    horizon = 40.0 / lam1
    grid = np.linspace(0.0, horizon, 4000)
    return signal, horizon, grid


def test_criterion_1_exact_mode_correctness():
    rng = np.random.default_rng(SEED)
    with reporting(1, "exact decomposition returns 200 random term lists verbatim"):
        for _ in range(200):
            count = int(rng.integers(1, 11))
            rates = log_uniform_rates(rng, count)
            coeffs = []
            for _ in rates:
                c = 0.0
                while abs(c) < 1e-2:
                    c = float(rng.uniform(-5.0, 5.0))
                coeffs.append(c)
            signal = SymbolicTransient(tuple(zip(rates, coeffs)))
            result = decompose_exact(signal)
            got_rates = [r for r, _ in result.terms]
            got_coeffs = [c for _, c in result.terms]
            assert got_rates == rates            # bitwise on rates
            assert got_coeffs == coeffs          # exact on coefficients


def test_criterion_2_numeric_decomposition():
    rng = np.random.default_rng(SEED + 1)
    with reporting(2, "50 random 3-term signals: rates within 1e-3 abs, coeffs 1e-3 rel"):
        for _ in range(50):
            signal, _, grid = three_term_family(rng)
            samples = synthesize_samples(signal, grid)
            result = decompose_numeric(SignalSource.from_sampled(samples), samples.support)
            assert len(result.terms) == 3
            for (got_r, got_c), (want_r, want_c) in zip(result.terms, signal.terms):
                assert abs(got_r - want_r) <= 1e-3
                assert abs(got_c - want_c) <= 1e-3 * abs(want_c)


def test_criterion_3_tail_limit_bounds():
    rng = np.random.default_rng(SEED + 2)
    with reporting(3, "raw tail sequences sit inside the per-signal contamination bounds"):
        for _ in range(50):
            signal, horizon, grid = three_term_family(rng)
            (lam1, alpha1), *rest = signal.terms
            lam2 = rest[0][0]
            tail_l1 = sum(abs(c) for _, c in rest)
            final_t = float(grid[-1])
            contamination = math.exp(-(lam2 - lam1) * final_t) * tail_l1
            assert contamination < abs(alpha1)

            # coefficient sequence at the final grid point
            x_final = signal(final_t)
            weighted = math.exp(lam1 * final_t) * x_final
            assert abs(weighted - alpha1) <= contamination * (1 + 1e-9) + 1e-12

            # slowest-rate sequence at the final grid point
            source = SignalSource.from_evaluator(signal, support=(0.0, horizon), grid=grid)
            seq = rate_sequence(source, (0.0, horizon))
            value = seq.points[-1, 1]
            assert seq.points[-1, 0] == final_t
            log_bound = max(abs(math.log(abs(alpha1) - contamination)),
                            abs(math.log(abs(alpha1) + contamination))) / final_t
            assert abs(value - lam1) <= log_bound * (1 + 1e-9) + 1e-12


def test_criterion_4_jacobi_orthogonality():
    params = JacobiParams(2.0, 2.0)
    with reporting(4, "orthogonality: off-diagonals < 1e-10, diagonals match the gamma"
                      " closed form (factorial normalization), n=1 value 1/16"):
        for m in range(0, 9):
            for n in range(m + 1, 9):
                assert abs(orthogonality_integral(params, m, n)) < 1e-10
        assert orthogonality_integral(params, 1, 1) == pytest.approx(1.0 / 16.0, abs=1e-10)
        for n in range(1, 7):
            closed = orthogonality_closed_form(params, n)
            assert abs(orthogonality_integral(params, n, n) - closed) < 1e-10
            # the two printed normalizations differ by exactly the factor n
            printed = orthogonality_closed_form(params, n, factorial_normalization=False)
            assert closed / printed == pytest.approx(float(n), rel=1e-12)


def test_criterion_5_jacobi_recurrences():
    points = np.linspace(0.0, 1.0, 33)
    with reporting(5, "both recurrence residuals < 1e-9 for degrees <= 8, params (2,2), (3,2)"):
        for params in (JacobiParams(2.0, 2.0), JacobiParams(3.0, 2.0)):
            for n in range(1, 9):
                assert check_derivative_recurrence(params, n, points) < 1e-9
            for n in range(0, 9):
                assert check_multiplication_recurrence(params, n, points) < 1e-9


def test_criterion_6_oet_round_trip():
    rng = np.random.default_rng(SEED + 3)
    basis = build_exponential_basis(6)
    with reporting(6, "analysis reproduces integer-rate coefficients within 1e-6;"
                      " closed-form Gram matrix is the identity within 1e-9"):
        for _ in range(20):
            count = int(rng.integers(1, 7))
            rates = np.sort(rng.choice(np.arange(1.0, 7.0), size=count, replace=False))
            coeffs = rng.uniform(-4.0, 4.0, size=count)
            signal = SymbolicTransient(tuple(zip(rates, coeffs)))
            folded = oet_analyze(SignalSource.from_symbolic(signal), basis).exponential_coeffs
            want = np.zeros(6)
            for r, c in signal.terms:
                want[int(r) - 1] = c
            assert np.abs(folded - want).max() < 1e-6

        gram = np.zeros((6, 6))
        for m in range(1, 7):
            for n in range(1, 7):
                total = 0.0
                for j, cj in enumerate(basis.coeff_table[m - 1], start=1):
                    for k, ck in enumerate(basis.coeff_table[n - 1], start=1):
                        total += cj * ck / (j + k)    # exact exponential inner products
                gram[m - 1, n - 1] = total
        assert np.abs(gram - np.eye(6)).max() < 1e-9


def test_criterion_7_biorthogonality_matrices():
    rates = (0.5, 1.0, 1.7, 2.2, 3.0)
    with reporting(7, "rate/monomial functional matrices: exact identity symbolically,"
                      " within 1e-8 numerically at horizon 60"):
        symbolic = rate_functional_matrix(rates, mode="symbolic")
        assert np.array_equal(symbolic, np.eye(5))
        monomial = monomial_functional_matrix(10)
        assert np.array_equal(monomial, np.eye(10))
        numeric = rate_functional_matrix(rates, mode="numeric", horizon=60.0)
        assert np.abs(numeric - np.eye(5)).max() < 1e-8


def test_criterion_8_correspondence():
    from transient_lab import PolynomialNoConstant, correspondence_check
    rng = np.random.default_rng(SEED + 4)
    with reporting(8, "monomial and rate functionals agree exactly on 20 random"
                      " polynomials of degree <= 8 (symbolic mode)"):
        for _ in range(20):
            degree = int(rng.integers(1, 9))
            coeffs = tuple(rng.uniform(-5.0, 5.0, degree))
            assert correspondence_check(PolynomialNoConstant(coeffs)) == 0.0


def test_criterion_9_prony_baseline():
    rng = np.random.default_rng(SEED + 5)
    with reporting(9, "noiseless recovery <= 1e-7 rel for orders <= 5; clustered-pole"
                      " conditioning grows and matches an independent oracle within 1e-6"):
        for _ in range(25):
            order = int(rng.integers(1, 6))
            rates = [float(rng.uniform(0.2, 0.5))]
            for _ in range(order - 1):
                rates.append(rates[-1] + float(rng.uniform(0.3, 0.7)))
            coeffs = [float(rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0]))
                      for _ in range(order)]
            signal = SymbolicTransient(tuple(zip(rates, coeffs)))
            samples = synthesize_samples(signal, np.arange(40) * 0.5)
            model = prony_fit(samples, order)
            assert len(model.rates) == order
            for (want_r, want_c), got_r, got_c in zip(signal.terms, model.rates,
                                                      model.amplitudes):
                assert abs(got_r - want_r) <= 1e-7 * max(1.0, abs(want_r))
                assert abs(got_c - want_c) <= 1e-7 * max(1.0, abs(want_c))

        times = np.arange(10.0)
        conditions = []
        for poles in [(0.9,), (0.9, 0.8), (0.9, 0.8, 0.7)]:
            rates = tuple(-math.log(p) for p in poles)
            got = vandermonde_condition(rates, times)
            matrix = np.array(poles)[None, :] ** np.arange(10)[:, None]
            eigs = np.clip(np.linalg.eigvalsh(matrix.T @ matrix), 0.0, None)
            oracle = math.sqrt(eigs[-1] / eigs[0])   # independent singular-value route
            assert got == pytest.approx(oracle, rel=1e-6)
            conditions.append(got)
        assert conditions[0] < conditions[1] < conditions[2]


def test_criterion_10_compare_determinism(tmp_path):
    spec = tmp_path / "sig.json"
    spec.write_text('{"terms": [{"rate": 1.0, "coeff": 2.0}, {"rate": 2.0, "coeff": 3.0}]}')
    with reporting(10, "repeated compare runs with a fixed seed emit byte-identical CSV"):
        argv = ["compare", "--input", str(spec), "--methods", "decomposer", "prony",
                "oet", "--sigma", "0.0", "0.001", "--trials", "2", "--seed", "17",
                "--horizon", "30.0", "--step", "0.01"]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli_main(argv + ["--output", str(first)]) == 0
        assert cli_main(argv + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.read_text().count("\n") == 25   # header + 3 methods x 2 sigma x 2 trials x 2 terms
