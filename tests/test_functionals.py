import math

import numpy as np
import pytest

from transient_lab import (Diverging, PolynomialNoConstant, SampledSignal, SignalSource,
                           SymbolicTransient, TooFewSamples, correspondence_check,
                           monomial_functional_matrix, rate_functional_matrix, rate_functionals)

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


class TestRateFunctional:
    @pytest.mark.parametrize("rates, match", [((2.0, 1.0), "strictly increasing"),
                                              ((1.0, 1.0), "strictly increasing"),
                                              ((0.0, 1.0), "finite and positive"),
                                              ((1.0, np.inf), "finite and positive")])
    def test_rates_validated(self, rates, match):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        with pytest.raises(ValueError, match=match):
            rate_functionals(src, rates)

    def test_matching_rate_extracts_unity(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert rate_functionals(src, (1.0,)) == [1.0]

    def test_faster_rate_gives_zero(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((2.0, 1.0),)))
        assert rate_functionals(src, (1.0, 2.0)) == [0.0, 1.0]

    def test_negative_zero_coefficient_reads_as_zero(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, -0.0), (2.0, 3.0))))
        values = rate_functionals(src, (1.0, 2.0))
        assert values == [0.0, 3.0]
        assert math.copysign(1.0, values[0]) == 1.0

    def test_symbolic_matrix_is_exact_identity(self):
        matrix = rate_functional_matrix(FIVE_RATES, mode="symbolic")
        assert np.array_equal(matrix, np.eye(5))

    def test_numeric_matrix_close_to_identity(self):
        matrix = rate_functional_matrix(FIVE_RATES, mode="numeric", horizon=60.0)
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
        assert len(reads) == 3   # one read per column, shared by its three functionals
        grid = np.linspace(0.0, 60.0, signal_core.GRID_POINTS)
        assert all(np.array_equal(ts, grid) for ts in reads)

    def test_one_horizon_read_per_functional(self, monkeypatch):
        # each functional's four horizon floors come from one shrink_support read
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
        values = rate_functionals(src, (1.0, 2.0), support=(0.0, 60.0))
        assert values == pytest.approx([1.0, 0.5])
        assert len(calls) == 2

    def test_each_window_reweighted_once(self, monkeypatch):
        # each horizon's flatness score reweights its window once, and the
        # winning horizon's coefficient estimate once more
        from transient_lab import functionals, tail_limits

        counts = {"reweighted": 0, "fits": 0, "winners": 0}
        real_reweighted, real_scan = tail_limits._reweighted, functionals.scan_horizons

        def reweighted(*args):
            counts["reweighted"] += 1
            return real_reweighted(*args)

        def scan(fit, ends, t_lo):
            def counted(t_hi):
                counts["fits"] += 1
                return fit(t_hi)
            best = real_scan(counted, ends, t_lo)
            counts["winners"] += 1
            return best

        monkeypatch.setattr(tail_limits, "_reweighted", reweighted)
        monkeypatch.setattr(functionals, "_reweighted", reweighted)
        monkeypatch.setattr(functionals, "scan_horizons", scan)
        rate_functional_matrix(FIVE_RATES, mode="numeric", horizon=60.0)
        assert counts["fits"] > counts["winners"] > 0
        assert counts["reweighted"] == counts["fits"] + counts["winners"]

    def test_numeric_read_refuses_non_finite_values(self):
        src = SignalSource.from_evaluator(
            lambda ts: np.where(np.asarray(ts) > 5.0, np.nan, 1.0), support=(0.0, 10.0))
        with pytest.raises(ValueError, match="not finite"):
            rate_functionals(src, (1.0,), support=(0.0, 10.0))

    # 1e308 e^-t before the sign flip and -1e308 e^-t after it; functional 1
    # reads +1e308 off a window before the flip.  pytest turns a numpy
    # warning into an error, so only the finite checks' errors may come out
    @pytest.mark.parametrize("flip, error, match", [
        # the strip of functional 2 is finite, its reweighting by e^2t is not
        (20.0, Diverging, "reweighted tail overflowed"),
        # at t = 0, 1e308 less -1e308 overflows in the strip
        (5.0, ValueError, "less the extracted terms is not finite"),
    ])
    def test_overflowing_strip_refused_without_a_warning(self, flip, error, match):
        src = SignalSource.from_evaluator(
            lambda ts: np.where(np.asarray(ts) < flip, 1e308, -1e308) * np.exp(-np.asarray(ts)),
            support=(0.0, 40.0))
        with pytest.raises(error, match=match):
            rate_functionals(src, (1.0, 2.0), support=(0.0, 40.0))

    @pytest.mark.parametrize("support", [(5.0, 1.0), (0.0, np.inf), (-1.0, 1.0)])
    def test_numeric_support_checked_before_the_source_is_read(self, support):
        reads = []
        src = SignalSource.from_evaluator(lambda ts: reads.append(ts) or np.exp(-ts))
        with pytest.raises(ValueError, match="support must satisfy"):
            rate_functionals(src, (1.0,), support=support)
        assert reads == []

    def test_diverging_functional_leaves_no_reference_cycles(self):
        # a rejected horizon's error must not keep the scan's frame alive
        # until the cyclic GC happens to run; with rate 2 missing from the
        # list, functional 2 reweights e^-2t by e^3t, which every horizon
        # refuses as Diverging
        import gc

        src = SignalSource.from_evaluator(
            lambda ts: np.exp(-np.asarray(ts)) + np.exp(-2.0 * np.asarray(ts)),
            support=(0.0, 60.0))
        gc.collect()
        gc.disable()
        try:
            with pytest.raises(Diverging):
                rate_functionals(src, (1.0, 3.0), support=(0.0, 60.0))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_coefficient_near_the_float_limit(self):
        # the flatness score of each horizon is scale-free, so it is computed
        # on scaled values, whose sums of squares cannot overflow
        src = SignalSource.from_evaluator(SymbolicTransient(((1.0, 1e308),)), support=(0, 40))
        [value] = rate_functionals(src, (1.0,), support=(0, 40))
        assert value == pytest.approx(1e308, rel=1e-9)

    def test_zero_samples_in_the_tail_move_no_functional(self):
        # a sample of exactly zero is one a window's floor drops, the one case
        # where the flatness score covers fewer samples than the whole window
        ts = np.linspace(0.0, 60.0, 4001)
        clean = 1.3 * np.exp(-ts) + 0.7 * np.exp(-2.5 * ts)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            values = clean.copy()
            values[rng.choice(np.arange(1001, 4001), int(rng.integers(1, 6)), replace=False)] = 0.0
            src = SignalSource.from_sampled(SampledSignal(ts, values))
            got = rate_functionals(src, (1.0, 2.5), support=(0.0, 60.0))
            assert got == pytest.approx([1.3, 0.7], rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("source", [
        SignalSource.from_evaluator(lambda ts: np.exp(-np.asarray(ts))),
        # a symbolic source with a rate off the list is read numerically
        SignalSource.from_symbolic(SymbolicTransient(((1.5, 1.0),))),
    ])
    def test_numeric_needs_support(self, source):
        with pytest.raises(ValueError, match="support"):
            rate_functionals(source, (1.0,))

    def test_grid_outside_support_rejected(self):
        src = SignalSource.from_evaluator(lambda ts: np.exp(-np.asarray(ts)),
                                          grid=np.array([70.0, 80.0]))
        with pytest.raises(ValueError, match="too few samples"):
            rate_functionals(src, (1.0,), support=(0.0, 60.0))

    def test_fast_term_too_sparse_to_read_is_refused(self):
        # on a grid of step 0.01, exp(-200 t) falls below 1e-6 of its peak
        # within seven nodes: no horizon holds 8 samples, and the term, far
        # above the vanish tolerance, is refused rather than read as 0.0
        with pytest.raises(TooFewSamples, match="too few samples to read the functional "
                                                "at rate 200.0"):
            rate_functional_matrix((200.0, 300.0), mode="numeric", horizon=40.0)

    def test_dense_early_grid_before_a_sparse_tail_accepted(self):
        # the whole support's tail window [50, 100] holds one node; the
        # horizons fitted end where the nodes are dense
        grid = np.append(np.linspace(0.0, 10.0, 1001), 100.0)
        src = SignalSource.from_evaluator(
            lambda ts: 2.0 * np.exp(-np.asarray(ts)) + 3.0 * np.exp(-2.0 * np.asarray(ts)),
            grid=grid)
        assert rate_functionals(src, (1.0, 2.0), support=(0.0, 100.0)) == pytest.approx(
            [2.0, 3.0], rel=1e-9)

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
            vx, vy, vm = (rate_functionals(SignalSource.from_symbolic(sig), rates)
                          for sig in (x, y, mixed))
            for n in range(3):
                assert vm[n] == a * vx[n] + b * vy[n]   # identical float expressions


class TestMonomialFunctional:
    def test_biorthogonality_examples(self):
        # monomial functional n is the coefficient of z^n; the rate
        # functionals read the same values off f(exp(-t))
        square = PolynomialNoConstant((0.0, 1.0))
        cube = PolynomialNoConstant((0.0, 0.0, 1.0))
        rates = (1.0, 2.0, 3.0)
        for poly, want in ((square, [0.0, 1.0, 0.0]), (cube, [0.0, 0.0, 1.0])):
            assert [poly.coefficient(n) for n in range(1, 4)] == want
            assert rate_functionals(SignalSource.from_symbolic(poly.to_transient()),
                                    rates) == want

    def test_identity_monomial_numeric_limit(self):
        poly = PolynomialNoConstant((1.0,))
        assert poly.coefficient(1) == 1.0
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
        for degree in (3, 4):
            coeffs = tuple(rng.uniform(-2.0, 2.0, degree))
            dev = correspondence_check(PolynomialNoConstant(coeffs), horizon=60.0,
                                       mode="numeric")
            assert dev < 1e-6

    def test_degree_six_numeric_error_compounds_by_index(self, rng):
        # the functional recursion feeds each estimate's error into every later
        # strip, so numeric accuracy decays with the functional index; the
        # first indices stay sharp while the last ones lose several digits
        coeffs = tuple(rng.uniform(-2.0, 2.0, 6))
        poly = PolynomialNoConstant(coeffs)
        src = SignalSource.from_evaluator(poly.to_transient(), support=(0.0, 60.0))
        values = rate_functionals(src, tuple(float(k) for k in range(1, 7)),
                                  support=(0.0, 60.0))
        errors = [abs(value - poly.coefficient(n)) for n, value in enumerate(values, start=1)]
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


class TestPinnedFunctionals:
    """The numeric functionals, bit for bit, as the per-index functionals
    gave them one call at a time; a change to the extraction recursion or
    the tail kernels that moves any bit of a value shows here."""

    MATRIX = [
        ["0x1.0000000000000p+0", "-0x1.c000000000000p-59", "0x1.4000000000000p-63"],
        ["0x0.0p+0", "0x1.ffffffffffffcp-1", "-0x1.4000000000000p-57"],
        ["0x0.0p+0", "0x0.0p+0", "0x1.000000000000bp+0"],
    ]

    def test_numeric_matrix(self):
        matrix = rate_functional_matrix((0.5, 1.0, 2.0), mode="numeric", horizon=60.0)
        assert [[float(v).hex() for v in row] for row in matrix] == self.MATRIX

    def test_numeric_correspondence(self):
        poly = PolynomialNoConstant((2.0, -1.5, 0.75))
        dev = correspondence_check(poly, horizon=60.0, mode="numeric")
        assert dev.hex() == "0x1.5270000000000p-37"
