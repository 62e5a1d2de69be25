import math

import numpy as np
import pytest

from transient_lab import (ExponentialBasis, GammaPole, JacobiParams, QuadratureConfig,
                           SignalSource, SymbolicTransient, build_exponential_basis,
                           check_derivative_recurrence, check_multiplication_recurrence,
                           inner_product, jacobi_monomial_coeffs, oet_analyze,
                           orthogonality_closed_form, orthogonality_integral,
                           synthesize_samples)
from transient_lab.oet_jacobi import fold_exponential_coeffs, jacobi_eval

STANDARD = JacobiParams(2.0, 2.0)
SHIFTED = JacobiParams(3.0, 2.0)
Z33 = np.linspace(0.0, 1.0, 33)


def sympy_rodrigues_coeffs(a, b, n):
    """Independent symbolic oracle for the monomial table."""
    import sympy as sp
    z = sp.symbols("z")
    a, b = sp.Rational(a), sp.Rational(b)
    expr = (sp.gamma(b) * z ** (1 - b) * (1 - z) ** (b - a) / sp.gamma(b + n)
            * sp.diff(z ** (b + n - 1) * (1 - z) ** (a + n - b), z, n))
    poly = sp.Poly(sp.expand(sp.simplify(expr)), z)
    return np.array([float(poly.coeff_monomial(z ** j)) for j in range(n + 1)])


class TestMonomialCoeffs:
    def test_degree_zero_is_one(self):
        for params in (STANDARD, SHIFTED, JacobiParams(-0.5, -0.5)):
            assert np.array_equal(jacobi_monomial_coeffs(params, 0), np.array([1.0]))

    def test_degree_one_hand_expansion(self):
        # one derivative of z^2 (1-z), times the prefactor 1/2: 1 - 1.5 z
        assert np.allclose(jacobi_monomial_coeffs(STANDARD, 1), [1.0, -1.5], atol=0)

    def test_leading_coefficients_nonzero(self):
        for n in range(11):
            assert jacobi_monomial_coeffs(STANDARD, n)[-1] != 0.0

    def test_matches_symbolic_oracle(self):
        for params in (STANDARD, SHIFTED):
            for n in range(9):
                mine = jacobi_monomial_coeffs(params, n)
                oracle = sympy_rodrigues_coeffs(params.a, params.b, n)
                scale = max(1.0, np.abs(oracle).max())
                assert np.abs(mine - oracle).max() < 1e-9 * scale

    def test_value_at_zero_is_one(self):
        for n in range(9):
            assert jacobi_eval(jacobi_monomial_coeffs(STANDARD, n), 0.0) == pytest.approx(1.0)

    def test_gamma_pole(self):
        with pytest.raises(GammaPole):
            jacobi_monomial_coeffs(JacobiParams(1.0, 0.0), 2)
        with pytest.raises(GammaPole):
            jacobi_monomial_coeffs(JacobiParams(1.0, -2.0), 1)

    def test_chebyshev_like_parameters_constructible(self):
        rows = [jacobi_monomial_coeffs(JacobiParams(-0.5, -0.5), n) for n in range(5)]
        assert np.array_equal(rows[0], [1.0])
        assert all(len(row) == n + 1 and row[-1] != 0.0 for n, row in enumerate(rows))


class TestRecurrences:
    def test_derivative_degree_one(self):
        assert check_derivative_recurrence(STANDARD, 1, [0.0, 0.5, 1.0]) < 1e-12

    def test_derivative_up_to_eight(self):
        for params in (STANDARD, SHIFTED):
            for n in range(1, 9):
                assert check_derivative_recurrence(params, n, Z33) < 1e-9

    def test_derivative_second_parameter_pair(self):
        assert check_derivative_recurrence(JacobiParams(2.0, 1.0), 1, [0.0, 0.5, 1.0]) < 1e-12

    def test_multiplication_degree_zero(self):
        assert check_multiplication_recurrence(STANDARD, 0, [0.0, 0.5, 1.0]) < 1e-12

    def test_multiplication_up_to_eight(self):
        for params in (STANDARD, SHIFTED):
            for n in range(0, 9):
                assert check_multiplication_recurrence(params, n, Z33) < 1e-9

    def test_multiplication_asymmetric_parameters(self):
        assert check_multiplication_recurrence(SHIFTED, 0, [0.0, 0.5, 1.0]) < 1e-12


class TestOrthogonality:
    def test_off_diagonal_zero(self):
        assert abs(orthogonality_integral(STANDARD, 0, 1)) < 1e-12

    def test_degree_one_norm_is_one_sixteenth(self):
        val = orthogonality_integral(STANDARD, 1, 1)
        assert val == pytest.approx(1.0 / 16.0, abs=1e-10)
        assert orthogonality_closed_form(STANDARD, 1) == pytest.approx(1.0 / 16.0, abs=0)

    def test_all_off_diagonals_below_tol(self):
        for m in range(9):
            for n in range(m + 1, 9):
                assert abs(orthogonality_integral(STANDARD, m, n)) < 1e-10

    def test_diagonals_match_closed_form(self):
        for n in range(1, 7):
            quad = orthogonality_integral(STANDARD, n, n)
            assert quad == pytest.approx(orthogonality_closed_form(STANDARD, n), abs=1e-10)

    def test_gamma_variant_ratio_is_n(self):
        # the two normalizations differ by exactly a factor n
        for n in range(1, 7):
            fixed = orthogonality_closed_form(STANDARD, n, factorial_normalization=True)
            printed = orthogonality_closed_form(STANDARD, n, factorial_normalization=False)
            assert fixed / printed == pytest.approx(float(n), rel=1e-12)

    def test_invalid_region_rejected(self):
        with pytest.raises(ValueError, match="a > 0"):
            orthogonality_integral(JacobiParams(-0.5, -0.5), 1, 1)

    def test_closed_form_degree_zero_pole(self):
        with pytest.raises(GammaPole):
            orthogonality_closed_form(STANDARD, 0)


class TestExponentialBasis:
    def test_first_element_scaling(self):
        basis = build_exponential_basis(3)
        assert basis.element(1).terms == ((1.0, math.sqrt(2.0)),)

    def test_second_element_coefficients(self):
        basis = build_exponential_basis(3)
        assert basis.element(2).terms == ((1.0, -4.0), (2.0, 6.0))

    def test_orthonormal_under_closed_form(self):
        # <e^{-jt}, e^{-kt}> = 1/(j+k): no quadrature involved
        basis = build_exponential_basis(6)
        gram = np.zeros((6, 6))
        for m in range(1, 7):
            for n in range(1, 7):
                total = 0.0
                for j, cj in enumerate(basis.coeff_table[m - 1], start=1):
                    for k, ck in enumerate(basis.coeff_table[n - 1], start=1):
                        total += cj * ck / (j + k)
                gram[m - 1, n - 1] = total
        assert np.abs(gram - np.eye(6)).max() < 1e-9

    def test_orthonormal_under_quadrature(self):
        # as evaluators the elements go through the quadrature that oet_analyze
        # projects sampled sources through, not the closed form of symbolic pairs
        basis = build_exponential_basis(8)
        elements = [SignalSource.from_evaluator(basis.element(n)) for n in range(1, 9)]
        for m, f in enumerate(elements):
            for n, g in enumerate(elements):
                ip = inner_product(f, g)
                assert ip == pytest.approx(1.0 if m == n else 0.0, abs=1e-9)

    def test_basis_past_the_float_range_refused(self):
        # the rows overflow from element 136 on, so a huge max_index fails there
        with pytest.raises(ValueError, match="element 136 "):
            build_exponential_basis(10 ** 300)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            build_exponential_basis(0)
        with pytest.raises(ValueError):
            build_exponential_basis(3).element(4)

    def test_one_basis_per_max_index(self):
        assert build_exponential_basis(8) is build_exponential_basis(8)
        assert build_exponential_basis(7) is not build_exponential_basis(8)
        assert build_exponential_basis(7).max_index == 7

    def test_rows_are_read_only(self):
        row = build_exponential_basis(4).coeff_table[2]
        with pytest.raises(ValueError):
            row[0] = 0.0
        assert row[0] == build_exponential_basis.__wrapped__(4).coeff_table[2][0]

    def test_last_element_the_float_range_holds(self):
        assert build_exponential_basis(135).max_index == 135
        with pytest.raises(ValueError, match="element 136 .* at most 135 elements"):
            build_exponential_basis(136)

    def test_refused_max_index_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ValueError, match="element 136 "):
                build_exponential_basis(136)

    def test_elements_built_with_the_basis(self):
        basis = build_exponential_basis(6)
        assert len(basis.elements) == 6
        for n in range(1, 7):
            source = basis.elements[n - 1]
            assert source is basis.elements[n - 1]
            assert source.symbolic == basis.element(n)
        for n in (0, 7):
            with pytest.raises(ValueError, match="outside 1..6"):
                basis.element(n)

    def test_bases_compare_by_identity(self):
        first = build_exponential_basis.__wrapped__(3)
        second = build_exponential_basis.__wrapped__(3)
        assert (first == second) is False
        assert (first == first) is True
        assert len({first, second}) == 2

    def test_size_follows_the_table(self):
        basis = ExponentialBasis(build_exponential_basis(2).coeff_table)
        assert basis.max_index == 2
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert len(oet_analyze(src, basis).projections) == 2


class TestAnalyzeSynthesize:
    def test_basis_element_projects_to_unit_vector(self):
        basis = build_exponential_basis(5)
        coeffs = oet_analyze(basis.elements[0], basis)
        expected = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.abs(coeffs.projections - expected).max() < 1e-9

    def test_unit_exponential_folds_to_unit_coefficient(self):
        basis = build_exponential_basis(6)
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        coeffs = oet_analyze(src, basis)
        expected = np.zeros(6)
        expected[0] = 1.0
        assert np.abs(coeffs.exponential_coeffs - expected).max() < 1e-6

    def test_non_integer_rate_stays_out_of_reach(self):
        # e^{-1.5t} sits outside the integer-rate span: the folded vector is
        # dense and the reconstruction error stays orders of magnitude above
        # the in-span round-trip error
        basis = build_exponential_basis(8)
        src = SignalSource.from_evaluator(lambda ts: np.exp(-1.5 * np.asarray(ts)))
        coeffs = oet_analyze(src, basis)
        assert np.sum(np.abs(coeffs.exponential_coeffs) > 1.0) >= 4   # no sparsity
        recon = SymbolicTransient(enumerate(coeffs.exponential_coeffs, 1))
        grid = np.linspace(0.0, 10.0, 1001)
        err = np.abs(np.exp(-1.5 * grid) - recon(grid)).max()
        assert err > 2e-4

        in_span = SignalSource.from_symbolic(SymbolicTransient(((2.0, 1.0),)))
        in_coeffs = oet_analyze(in_span, basis)
        in_recon = SymbolicTransient(enumerate(in_coeffs.exponential_coeffs, 1))
        in_err = np.abs(np.exp(-2.0 * grid) - in_recon(grid)).max()
        assert err > 100.0 * in_err

    def test_round_trip_two_term(self):
        basis = build_exponential_basis(6)
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        coeffs = oet_analyze(SignalSource.from_symbolic(sig), basis)
        recon = SymbolicTransient(enumerate(coeffs.exponential_coeffs, 1))
        grid = np.linspace(0.0, 10.0, 501)
        assert np.abs(sig(grid) - recon(grid)).max() < 1e-6

    def test_fold_single_projection(self):
        basis = build_exponential_basis(4)
        assert np.array_equal(fold_exponential_coeffs([1.0], basis),
                              [math.sqrt(2.0), 0.0, 0.0, 0.0])

    def test_fold_no_projection(self):
        assert np.array_equal(fold_exponential_coeffs([], build_exponential_basis(4)), np.zeros(4))

    def test_span_membership_reproduces_coefficients(self, rng):
        basis = build_exponential_basis(6)
        for _ in range(5):
            count = int(rng.integers(1, 4))
            rates = sorted(rng.choice(np.arange(1.0, 7.0), size=count, replace=False))
            coeffs = rng.uniform(-3.0, 3.0, size=count)
            sig = SymbolicTransient(tuple(zip(rates, coeffs)))
            folded = oet_analyze(SignalSource.from_symbolic(sig), basis).exponential_coeffs
            want = np.zeros(6)
            for r, c in sig.terms:
                want[int(r) - 1] = c
            assert np.abs(folded - want).max() < 1e-6

    @pytest.mark.parametrize("kind", ["symbolic", "sampled", "evaluator"])
    def test_projections_equal_a_fresh_build(self, kind):
        # the kept basis and its kept element sources give every bit that a
        # basis and sources built for this one call give
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        source = {
            "symbolic": lambda: SignalSource.from_symbolic(sig),
            "sampled": lambda: SignalSource.from_sampled(
                synthesize_samples(sig, np.linspace(0.0, 40.0, 4001), noise_sigma=1e-4,
                                   seed=3)),
            "evaluator": lambda: SignalSource.from_evaluator(sig),
        }[kind]()
        fresh = build_exponential_basis.__wrapped__(8)
        want = [inner_product(source, SignalSource.from_symbolic(fresh.element(n)))
                for n in range(1, 9)]
        for basis in (fresh, build_exponential_basis(8), build_exponential_basis(8)):
            got = oet_analyze(source, basis)
            assert np.array_equal(got.projections, want)
            assert np.array_equal(got.exponential_coeffs,
                                  oet_analyze(source, fresh).exponential_coeffs)

    @pytest.mark.parametrize("nodes", [128, 64])
    def test_warm_projections_keep_each_elements_own_bits(self, nodes):
        # the element values are kept per basis and quadrature nodes: after
        # a warm call a second sample set reads them, at each of two
        # windows, and each projection is still the element's own product,
        # taken with the element as an evaluator, which is read on every call
        q = QuadratureConfig(nodes=nodes)
        basis = build_exponential_basis(8)
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        for horizon in (40.0, 20.0):
            grid = np.linspace(0.0, horizon, 4001)
            for seed in (3, 4):
                source = SignalSource.from_sampled(
                    synthesize_samples(sig, grid, noise_sigma=1e-4, seed=seed))
                want = [inner_product(source, SignalSource.from_evaluator(element.symbolic), q)
                        for element in basis.elements]
                assert np.array_equal(oet_analyze(source, basis, q).projections, want)

    def test_one_quadrature_pass_per_analysis(self, monkeypatch):
        # a sampled source is read once: one inner_product call, one
        # integral of all eight element rows, one evaluation of the samples
        import transient_lab.oet_jacobi as oet_jacobi
        import transient_lab.signal_core as signal_core

        calls = {"inner_product": 0, "integrate_semi_infinite": 0, "evaluate_many": 0}

        def counted(module, name):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(oet_jacobi, "inner_product")
        counted(signal_core, "integrate_semi_infinite")
        counted(signal_core, "evaluate_many")
        source = SignalSource.from_sampled(synthesize_samples(
            SymbolicTransient(((1.0, 2.0), (2.0, 3.0))), np.linspace(0.0, 40.0, 4001),
            noise_sigma=1e-4, seed=3))
        oet_analyze(source, build_exponential_basis(8))
        assert calls == {"inner_product": 1, "integrate_semi_infinite": 1, "evaluate_many": 1}

    def test_quadrature_config_respected(self):
        basis = build_exponential_basis(3)
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        out = oet_analyze(src, basis, QuadratureConfig(nodes=64))
        assert out.exponential_coeffs[0] == pytest.approx(1.0, abs=1e-6)
