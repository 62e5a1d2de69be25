import numpy as np
import pytest

from transient_lab import (Diverging, FunctionalLedger, PolynomialNoConstant,
                           SignalSource, SymbolicTransient, TailFitConfig,
                           apply_monomial_functional, apply_rate_functional,
                           correspondence_check, monomial_functional_matrix,
                           rate_functional_matrix)

FIVE_RATES = (0.5, 1.0, 1.7, 2.2, 3.0)


class TestPolynomialNoConstant:
    def test_zero_at_origin(self):
        poly = PolynomialNoConstant((3.0, -1.0, 2.0))
        assert poly(0.0) == 0.0

    def test_evaluation(self):
        poly = PolynomialNoConstant((3.0, 5.0))   # 3z + 5z^2
        assert poly(2.0) == pytest.approx(26.0)

    def test_coefficient_readout(self):
        poly = PolynomialNoConstant((3.0, 5.0))
        assert poly.coefficient(2) == 5.0
        assert poly.coefficient(7) == 0.0
        with pytest.raises(ValueError):
            poly.coefficient(0)

    def test_to_transient(self):
        poly = PolynomialNoConstant((2.0, 3.0))
        assert poly.to_transient().terms == ((1.0, 2.0), (2.0, 3.0))


class TestLedger:
    def test_order_enforced(self):
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        with pytest.raises(ValueError, match="prior"):
            ledger.require_index(2)

    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FunctionalLedger(known_rates=(2.0, 1.0))
        with pytest.raises(ValueError):
            FunctionalLedger(known_rates=(0.0, 1.0))


class TestRateFunctional:
    def test_matching_rate_extracts_unity(self):
        ledger = FunctionalLedger(known_rates=(1.0,))
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert apply_rate_functional(1, src, ledger) == 1.0

    def test_faster_rate_gives_zero(self):
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        src = SignalSource.from_symbolic(SymbolicTransient(((2.0, 1.0),)))
        assert apply_rate_functional(1, src, ledger) == 0.0

    def test_symbolic_matrix_is_exact_identity(self):
        matrix = rate_functional_matrix(FIVE_RATES, mode="symbolic")
        assert np.array_equal(matrix, np.eye(5))

    def test_numeric_matrix_close_to_identity(self):
        cfg = TailFitConfig(fit_order="richardson_1")
        matrix = rate_functional_matrix(FIVE_RATES, mode="numeric", horizon=60.0, cfg=cfg)
        assert np.abs(matrix - np.eye(5)).max() < 1e-8

    def test_numeric_mode_reads_each_source_once_on_one_grid(self, monkeypatch):
        from transient_lab import functionals, signal_core

        reads = []
        real = functionals.SignalSource.from_evaluator

        def recording(fn, support, grid=None):
            def fn_logged(ts):
                reads.append(np.array(ts))
                return fn(ts)
            return real(fn_logged, support, grid)

        monkeypatch.setattr(functionals.SignalSource, "from_evaluator", recording)
        rate_functional_matrix((0.5, 1.0, 2.0), mode="numeric", horizon=60.0)
        assert len(reads) == 9   # one read per functional applied
        grid = np.linspace(0.0, 60.0, signal_core.GRID_POINTS)
        assert all(np.array_equal(ts, grid) for ts in reads)

    def test_one_horizon_read_per_functional(self, monkeypatch):
        # the four horizon floors come from one shrink_support read
        from transient_lab import functionals

        calls = []
        real = functionals.shrink_support

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(functionals, "shrink_support", counting)
        src = SignalSource.from_evaluator(
            lambda ts: np.exp(-np.asarray(ts)) + 0.5 * np.exp(-2.0 * np.asarray(ts)),
            support=(0.0, 60.0))
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        assert apply_rate_functional(1, src, ledger, support=(0.0, 60.0)) == pytest.approx(1.0)
        assert len(calls) == 1

    def test_numeric_read_refuses_non_finite_values(self):
        src = SignalSource.from_evaluator(
            lambda ts: np.where(np.asarray(ts) > 5.0, np.nan, 1.0), support=(0.0, 10.0))
        with pytest.raises(ValueError, match="not finite"):
            apply_rate_functional(1, src, FunctionalLedger((1.0,)), support=(0.0, 10.0))

    def test_overflowing_strip_refused_without_a_warning(self):
        # 1e308 e^-t less -1e308 e^-t overflows; pytest turns a numpy warning
        # into an error, so only the finite check's ValueError may come out
        src = SignalSource.from_evaluator(lambda ts: 1e308 * np.exp(-np.asarray(ts)),
                                          support=(0.0, 40.0))
        ledger = FunctionalLedger(known_rates=(1.0, 2.0), extracted=[-1e308])
        with pytest.raises(ValueError, match="less the extracted terms is not finite"):
            apply_rate_functional(2, src, ledger, support=(0.0, 40.0))
        assert ledger.extracted == [-1e308]

    @pytest.mark.parametrize("support", [(5.0, 1.0), (0.0, np.inf), (-1.0, 1.0)])
    def test_numeric_support_checked_before_the_source_is_read(self, support):
        reads = []
        src = SignalSource.from_evaluator(lambda ts: reads.append(ts) or np.exp(-ts))
        with pytest.raises(ValueError, match="support must satisfy"):
            apply_rate_functional(1, src, FunctionalLedger((1.0,)), support=support)
        assert reads == []

    def test_wrong_ledger_value_leaves_no_reference_cycles(self):
        # a rejected horizon's error must not keep the scan's frame alive
        # until the cyclic GC happens to run
        import gc

        src = SignalSource.from_evaluator(
            lambda ts: np.exp(-np.asarray(ts)) + np.exp(-2.0 * np.asarray(ts)),
            support=(0.0, 60.0))
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        ledger.extracted.append(0.5)   # the true first value is 1
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(Diverging):
                apply_rate_functional(2, src, ledger, support=(0.0, 60.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_coefficient_near_the_float_limit(self):
        # the flatness score of each horizon is scale-free, so it is computed
        # on scaled values, whose sums of squares cannot overflow
        src = SignalSource.from_evaluator(SymbolicTransient(((1.0, 1e308),)), support=(0, 40))
        value = apply_rate_functional(1, src, FunctionalLedger((1.0,)), support=(0, 40))
        assert value == pytest.approx(1e308, rel=1e-9)

    def test_violated_order_diverges(self):
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        ledger.extracted.append(0.0)   # claim the slow term was already handled
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        with pytest.raises(Diverging):
            apply_rate_functional(2, src, ledger)

    def test_numeric_needs_support(self):
        ledger = FunctionalLedger(known_rates=(1.0,))
        src = SignalSource.from_evaluator(lambda ts: np.exp(-np.asarray(ts)))
        with pytest.raises(ValueError, match="support"):
            apply_rate_functional(1, src, ledger)

    def test_grid_outside_support_rejected(self):
        ledger = FunctionalLedger(known_rates=(1.0,))
        src = SignalSource.from_evaluator(lambda ts: np.exp(-np.asarray(ts)),
                                          grid=np.array([70.0, 80.0]))
        with pytest.raises(ValueError, match="too few samples"):
            apply_rate_functional(1, src, ledger, support=(0.0, 60.0))

    def test_linearity_exact_in_symbolic_mode(self, rng):
        rates = (0.5, 1.3, 2.4)
        for _ in range(10):
            ax = rng.uniform(-2.0, 2.0, 3)
            ay = rng.uniform(-2.0, 2.0, 3)
            a, b = float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2))
            x = SymbolicTransient(tuple(zip(rates, ax)))
            y = SymbolicTransient(tuple(zip(rates, ay)))
            mixed = SymbolicTransient(tuple((r, a * cx + b * cy)
                                            for (r, cx), (_, cy) in zip(x.terms, y.terms)))
            lx, ly, lm = (FunctionalLedger(known_rates=rates) for _ in range(3))
            for n in range(1, 4):
                vx = apply_rate_functional(n, SignalSource.from_symbolic(x), lx)
                vy = apply_rate_functional(n, SignalSource.from_symbolic(y), ly)
                vm = apply_rate_functional(n, SignalSource.from_symbolic(mixed), lm)
                assert vm == a * vx + b * vy   # identical float expressions


class TestMonomialFunctional:
    def test_biorthogonality_examples(self):
        square = PolynomialNoConstant((0.0, 1.0))
        cube = PolynomialNoConstant((0.0, 0.0, 1.0))
        assert apply_monomial_functional(2, square) == 1.0
        assert apply_monomial_functional(2, cube) == 0.0

    def test_strip_then_read(self):
        poly = PolynomialNoConstant((3.0, 5.0))
        ledger = FunctionalLedger(known_rates=(1.0, 2.0))
        assert apply_monomial_functional(1, poly, ledger) == 3.0
        assert apply_monomial_functional(2, poly, ledger) == 5.0

    def test_identity_monomial_numeric_limit(self):
        poly = PolynomialNoConstant((1.0,))
        assert apply_monomial_functional(1, poly) == 1.0
        z = 1e-6   # the limit of poly(z) / z as z -> 0, read at small z
        assert poly(z) / z == pytest.approx(1.0, abs=1e-6)

    def test_matrix_is_exact_identity(self):
        assert np.array_equal(monomial_functional_matrix(10), np.eye(10))

class TestCorrespondence:
    def test_single_monomial_exact(self):
        assert correspondence_check(PolynomialNoConstant((1.0,))) == 0.0

    def test_two_term_symbolic_and_numeric(self):
        poly = PolynomialNoConstant((2.0, 3.0))
        assert correspondence_check(poly) == 0.0
        dev = correspondence_check(poly, horizon=40.0, mode="numeric")
        assert dev < 1e-6

    def test_random_degree_four_numeric(self, rng):
        cfg = TailFitConfig(fit_order="richardson_2")
        for degree in (3, 4):
            coeffs = tuple(rng.uniform(-2.0, 2.0, degree))
            dev = correspondence_check(PolynomialNoConstant(coeffs), horizon=60.0,
                                       mode="numeric", cfg=cfg)
            assert dev < 1e-6

    def test_degree_six_numeric_error_compounds_by_index(self, rng):
        # the ledger recursion feeds each estimate's error into every later
        # strip, so numeric accuracy decays with the functional index; the
        # first indices stay sharp while the last ones lose several digits
        cfg = TailFitConfig(fit_order="richardson_2")
        coeffs = tuple(rng.uniform(-2.0, 2.0, 6))
        poly = PolynomialNoConstant(coeffs)
        src = SignalSource.from_evaluator(poly.to_transient(), support=(0.0, 60.0))
        ledger = FunctionalLedger(known_rates=tuple(float(k) for k in range(1, 7)))
        errors = []
        for n in range(1, 7):
            value = apply_rate_functional(n, src, ledger, cfg=cfg, support=(0.0, 60.0))
            errors.append(abs(value - poly.coefficient(n)))
        assert errors[0] < 1e-9
        assert errors[1] < 1e-6
        assert errors[2] < 1e-3
        assert all(np.isfinite(errors))
        # the exact symbolic route has no such compounding
        assert correspondence_check(poly) == 0.0

    def test_random_degree_eight_exact(self, rng):
        for _ in range(10):
            coeffs = tuple(rng.uniform(-3.0, 3.0, int(rng.integers(1, 9))))
            assert correspondence_check(PolynomialNoConstant(coeffs)) == 0.0
