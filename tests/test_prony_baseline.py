import math

import numpy as np
import pytest

from transient_lab import (Diverging, RankDeficient, SampledSignal, SymbolicTransient,
                           TransientLabError, prony_baseline, prony_fit, synthesize_samples,
                           vandermonde_condition)
from transient_lab.prony_baseline import _REAL_ROOT_TOL, _UNIT_ROOT_TOL, _screen_roots

from conftest import random_transient


def eig_condition_oracle(matrix):
    """Independent route to the singular-value ratio via the normal matrix."""
    eigs = np.linalg.eigvalsh(matrix.T @ matrix)
    eigs = np.clip(eigs, 0.0, None)
    return math.sqrt(eigs[-1] / eigs[0])


class TestPronyFit:
    def test_single_term_exact(self):
        sig = synthesize_samples(SymbolicTransient(((0.5, 2.0),)), np.arange(10.0))
        model = prony_fit(sig, 1)
        assert model.poles[0] == pytest.approx(math.exp(-0.5), abs=1e-10)
        assert model.rates[0] == pytest.approx(0.5, abs=1e-10)
        assert model.amplitudes[0] == pytest.approx(2.0, abs=1e-10)

    def test_two_term_exact(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))),
                                 np.arange(20) * 0.5)
        model = prony_fit(sig, 2)
        assert np.allclose(model.rates, [1.0, 2.0], atol=1e-8)
        assert np.allclose(model.amplitudes, [2.0, 3.0], atol=1e-8)

    def test_strided_values_fit_as_a_contiguous_copy(self):
        # every second element of a wider array holds the samples: the
        # prediction matrix, a view that needs a contiguous buffer, is built
        # over a copy of them, and the fit is the copy's, bit for bit
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.arange(20) * 0.5, noise_sigma=1e-6, seed=1)
        wide = np.zeros(40)
        wide[::2] = samples.values
        strided = SampledSignal(samples.times, wide[::2])
        assert not strided.values.flags.c_contiguous
        assert prony_fit(strided, 2) == prony_fit(SampledSignal(samples.times, wide[::2].copy()), 2)

    def test_noise_degrades_by_an_order(self, rng):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        grid = np.arange(20) * 0.5
        clean = prony_fit(synthesize_samples(sig, grid), 2)
        clean_err = max(abs(clean.rates[0] - 1.0), abs(clean.rates[1] - 2.0))
        noisy_errs = []
        for seed in range(30):
            noisy = synthesize_samples(sig, grid, noise_sigma=1e-3, seed=seed)
            try:
                model = prony_fit(noisy, 2)
            except RankDeficient:
                noisy_errs.append(math.inf)
                continue
            if len(model.rates) < 2:
                noisy_errs.append(math.inf)
                continue
            noisy_errs.append(max(abs(model.rates[0] - 1.0), abs(model.rates[1] - 2.0)))
        median = float(np.median(noisy_errs))
        assert median >= 10.0 * clean_err   # recorded: noise dominates the error budget

    def test_noiseless_exactness_orders_up_to_five(self, rng):
        for _ in range(15):
            p = int(rng.integers(1, 6))
            sig = random_transient(rng, p, rate_lo=0.2, rate_start_hi=0.5,
                                   gap_lo=0.3, gap_hi=0.7, coeff_lo=0.5, coeff_hi=4.0)
            samples = synthesize_samples(sig, np.arange(40) * 0.5)
            model = prony_fit(samples, p)
            assert len(model.rates) == p
            for (want_r, want_c), got_r, got_c in zip(sig.terms, model.rates,
                                                      model.amplitudes):
                assert abs(got_r - want_r) <= 1e-7 * max(1.0, abs(want_r))
                assert abs(got_c - want_c) <= 1e-7 * max(1.0, abs(want_c))

    def test_consistent_under_grid_refinement(self):
        sig = SymbolicTransient(((0.7, 1.5), (1.5, -2.5)))
        coarse = prony_fit(synthesize_samples(sig, np.arange(24) * 0.5), 2)
        fine = prony_fit(synthesize_samples(sig, np.arange(48) * 0.25), 2)
        assert np.allclose(coarse.rates, fine.rates, rtol=1e-7)
        assert np.allclose(coarse.amplitudes, fine.amplitudes, rtol=1e-7)

    def test_reconstructs_input_samples(self, rng):
        for _ in range(5):
            p = int(rng.integers(1, 4))
            sig = random_transient(rng, p, rate_lo=0.3, rate_start_hi=0.6,
                                   gap_lo=0.4, gap_hi=1.0)
            samples = synthesize_samples(sig, np.arange(30) * 0.4)
            model = prony_fit(samples, p)
            fitted = sum(a * np.exp(-r * samples.times)
                         for r, a in zip(model.rates, model.amplitudes))
            rms = math.sqrt(float(np.mean((fitted - samples.values) ** 2)))
            assert rms <= 1e-8

    def test_order_reduction_flagged(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0),)), np.arange(12) * 0.5)
        model = prony_fit(sig, 3)
        assert any(flag.startswith("order_reduced") for flag in model.flags)
        assert model.rates[0] == pytest.approx(1.0, abs=1e-7)

    def test_zero_signal_rank_deficient(self):
        sig = SampledSignal(times=np.arange(8.0), values=np.zeros(8))
        with pytest.raises(RankDeficient):
            prony_fit(sig, 2)

    def test_root_within_rounding_of_one_rejected(self):
        # every sample of exp(-t) at step 1e-200 rounds to 1.0; the fitted
        # root 1 - 5 eps is rounding, and read as a pole it gave a rate of 1.1e185
        times = np.arange(200) * 1e-200
        sig = SampledSignal(times=times, values=np.exp(-times))
        with pytest.raises(RankDeficient, match="no real poles"):
            prony_fit(sig, 2)

    def test_slow_pole_kept_beside_the_rounding_margin(self):
        # a root 1e-9 below 1 is far outside the rounding margin and stays a pole
        sig = synthesize_samples(SymbolicTransient(((1e-7, 1.0),)), np.arange(40) * 0.01)
        model = prony_fit(sig, 1)
        assert model.rates[0] == pytest.approx(1e-7, rel=1e-3)
        assert model.rejected_roots == ()

    def test_requires_uniform_grid(self):
        sig = SampledSignal(times=np.array([0.0, 1.0, 3.0, 4.0]),
                            values=np.array([1.0, 0.5, 0.2, 0.1]))
        with pytest.raises(ValueError, match="uniform"):
            prony_fit(sig, 1)

    def test_requires_enough_samples(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 1.0),)), np.arange(3.0))
        with pytest.raises(ValueError, match="samples"):
            prony_fit(sig, 2)

    def test_nonreal_roots_flagged_not_dropped_silently(self, rng):
        # oscillating data pushes roots off the real segment
        grid = np.arange(24) * 0.4
        values = np.exp(-0.5 * grid) * np.cos(2.0 * grid)
        sig = SampledSignal(times=grid, values=values)
        try:
            model = prony_fit(sig, 3)
        except RankDeficient:
            return  # every root rejected: also a documented outcome
        assert model.rejected_roots
        assert "complex_or_out_of_range_roots" in model.flags

    def test_amplitudes_translated_to_time_origin(self):
        sig = SymbolicTransient(((1.0, 2.0),))
        grid = 1.0 + np.arange(12) * 0.5   # grid starts at t = 1
        model = prony_fit(synthesize_samples(sig, grid), 1)
        assert model.amplitudes[0] == pytest.approx(2.0, abs=1e-9)

    def test_amplitudes_past_the_float_range_at_the_origin_refused(self):
        # nine samples of 2 e^-(t-710) + 3 e^-2(t-710) from t = 710: the fit
        # holds, but at t = 0 the amplitudes are 2 e^710 and 3 e^1420
        times = np.arange(710.0, 719.0)
        values = 2.0 * np.exp(-(times - 710.0)) + 3.0 * np.exp(-2.0 * (times - 710.0))
        with pytest.raises(Diverging, match="t = 0 from the first sample at t = 710.0"):
            prony_fit(SampledSignal(times, values), 2)


    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("sigma", [0.0, 1e-4])
    def test_prediction_matrix_is_the_row_loop(self, monkeypatch, order, sigma):
        sig = SymbolicTransient(((0.5, 2.0), (1.3, -1.0), (2.1, 0.7))[:order])
        samples = synthesize_samples(sig, np.linspace(0.0, 40.0, 4001),
                                     noise_sigma=sigma, seed=3)
        solved = []
        lstsq = np.linalg.lstsq

        def recording(a, b, rcond=None):
            solved.append(np.array(a))
            return lstsq(a, b, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        prony_fit(samples, order)
        values, n = samples.values, len(samples.values)
        reference = np.empty((n - order, order))
        for i in range(n - order):
            reference[i] = values[i:i + order]
        assert np.array_equal(solved[0], reference)


class TestVandermondeCondition:
    @pytest.mark.parametrize("sigma, t0", [(0.0, 0.0), (1e-4, 0.0), (0.0, 2.5)])
    def test_fit_reads_the_condition_of_its_own_solve(self, sigma, t0):
        # prony_fit takes the condition from the amplitude solve's singular
        # values; the public function runs its own SVD on the same matrix
        times = t0 + np.arange(4001) * 0.01
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))), times,
                                 noise_sigma=sigma, seed=5)
        model = prony_fit(sig, 2)
        assert model.vandermonde_condition == pytest.approx(
            vandermonde_condition(model.rates, times), rel=1e-12)

    def test_single_pole_is_one(self):
        assert vandermonde_condition([0.5], np.arange(10.0)) == pytest.approx(1.0)

    def test_matches_independent_oracle(self):
        times = np.arange(10.0)
        poles = np.array([0.9, 0.8])
        rates = -np.log(poles) / 1.0
        matrix = poles[None, :] ** np.arange(10)[:, None]
        expected = eig_condition_oracle(matrix)
        got = vandermonde_condition(rates, times)
        assert got == pytest.approx(expected, rel=1e-6)

    def test_nested_pole_sets_monotone(self):
        times = np.arange(10.0)
        pole_sets = [(0.9,), (0.9, 0.8), (0.9, 0.8, 0.7)]
        conds = [vandermonde_condition(tuple(-math.log(p) for p in poles), times)
                 for poles in pole_sets]
        assert conds[0] < conds[1] < conds[2]

    def test_grows_as_separation_shrinks(self):
        times = np.arange(12.0)
        prev = 0.0
        for delta in (0.3, 0.2, 0.1, 0.05, 0.02):
            rates = (0.5, 0.5 + delta)
            cond = vandermonde_condition(rates, times)
            assert cond > prev
            prev = cond

    # steps as 1 + deviation * 1e-12; the rule both functions share accepts
    # a grid when every step lies within 1e-12 of a positive mean step
    @pytest.mark.parametrize("deviations, uniform", [
        ([0.0] * 9, True),
        # every step 0.9e-12 from the mean, 1.8e-12 from the first
        ([0.0, 1.8] * 5, True),
        # within 0.95e-12 of the first step, 1.7e-12 below the mean
        ([0.0, -0.95] + [0.95] * 8, False),
        ([0.0, 2e12], False),
        ([-1e12] * 3, False),   # every step zero
    ])
    def test_same_uniform_rule_as_prony_fit(self, deviations, uniform):
        times = np.concatenate([[0.0], np.cumsum(1.0 + np.array(deviations) * 1e-12)])
        signal = SymbolicTransient(((0.5, 2.0),))

        def accepts(fn, *args):
            try:
                fn(*args)
            except ValueError:
                return False
            return True

        assert accepts(vandermonde_condition, [0.5], times) is uniform
        assert accepts(lambda: prony_fit(synthesize_samples(signal, times), 1)) is uniform

    def test_input_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            vandermonde_condition([0.5, 0.5], np.arange(5.0))
        with pytest.raises(ValueError, match="uniform"):
            vandermonde_condition([0.5], np.array([0.0, 1.0, 3.0]))


def reference_screen(roots):
    """_screen_roots as prony_fit screened the companion roots before, by
    numpy array operations on all of them at once."""
    scale = np.maximum(1.0, np.abs(roots.real))
    is_real = np.abs(roots.imag) <= _REAL_ROOT_TOL * scale
    real_roots = roots[is_real].real
    in_range = (real_roots > 0.0) & (1.0 - real_roots > _UNIT_ROOT_TOL)
    kept = np.sort(real_roots[in_range])[::-1]
    rejected = tuple(np.concatenate([roots[~is_real], real_roots[~in_range]]).tolist())
    return kept, rejected, len(np.unique(kept)) != len(kept)


def screening_inputs():
    """(times, values, order) of seeded fits of orders 2 to 5: random values
    on short grids, noisy decays at an order above their own, and decays on
    a constant, whose pole at 1 the fit puts a few eps to either side of 1;
    then samples with a double pole, and an oscillation."""
    inputs = []
    for seed in range(60):
        rng = np.random.default_rng(seed)
        order = 2 + seed % 4
        kind = seed % 3
        if kind == 0:
            times = np.arange(float(rng.integers(2 * order, 2 * order + 4)))
            values = rng.normal(size=len(times))
        else:
            times = np.arange(60 if kind == 1 else 40) * (0.1 if kind == 1 else 0.25)
            values = sum(rng.uniform(0.5, 2.0) * np.exp(-rate * times)
                         for rate in rng.uniform(0.2, 3.0, order - 1))
            values = (values + rng.normal(0.0, 1e-3, len(times)) if kind == 1
                      else values + 1.0)
        inputs.append((times, values, order))
    inputs.append((np.arange(6.0), np.array([1.0, 1.0, 3.0, -1.0, 0.0, 2.0]), 2))
    grid = np.arange(24) * 0.4
    inputs.append((grid, np.exp(-0.5 * grid) * np.cos(2.0 * grid), 3))
    return inputs


class TestRootScreening:
    """The companion roots are screened in a Python pass over them; the
    numpy screening before it (reference_screen) is the reference, and
    every fit must keep its bits: a contiguous descending copy of the kept
    poles, say, gives other bits to some rates through np.log."""

    @staticmethod
    def outcome(times, values, order):
        try:
            return repr(prony_fit(SampledSignal(times, values), order))
        except TransientLabError as exc:
            return repr(exc)

    def test_fits_equal_the_reference_screening(self, monkeypatch):
        roots_seen = []
        companion = prony_baseline._companion_roots

        def recorded(coeffs):
            roots_seen.append(companion(coeffs))
            return roots_seen[-1]

        monkeypatch.setattr(prony_baseline, "_companion_roots", recorded)
        for times, values, order in screening_inputs():
            got = self.outcome(times, values, order)
            with monkeypatch.context() as patch:
                patch.setattr(prony_baseline, "_screen_roots", reference_screen)
                assert got == self.outcome(times, values, order)
        # the fits reach every kind of root the screening sorts
        rejected = [reference_screen(roots)[1] for roots in roots_seen]
        kinds = {
            "complex": any(isinstance(r, complex) and r.imag != 0.0
                           for roots in rejected for r in roots),
            "real as complex": any(isinstance(r, complex) and r.imag == 0.0
                                   for roots in rejected for r in roots),
            "negative": any(complex(r).real < 0.0 for roots in rejected for r in roots),
            "within rounding of 1": any(0.0 < 1.0 - complex(r).real <= _UNIT_ROOT_TOL
                                        for roots in rejected for r in roots),
            "past 1": any(complex(r).real > 1.0 for roots in rejected for r in roots),
            "duplicate": any(reference_screen(roots)[2] for roots in roots_seen),
        }
        assert all(kinds.values()), kinds

    @pytest.mark.parametrize("roots", [
        [0.5, 0.25],
        [0.25, 0.5, 0.5],
        [-0.5, 0.5, 0.0, -0.0, 1.0, 2.0],
        [1.0 - 4 * np.finfo(float).eps, 1.0 - 64 * np.finfo(float).eps],
        [0.5 + 0.5j, 0.5 - 0.5j, 0.25 + 0.0j, -0.25 + 1e-12j, 3.0 + 0j],
        [0.9 + 1e-9j, 0.9 - 1e-9j],
        [complex(np.nan, 0.0), 0.5 + 0.5j, 0.5 + 0j],
    ], ids=["kept", "duplicate", "out_of_range", "near_one", "complex", "near_real", "nan"])
    def test_roots_screen_as_the_reference_does(self, roots):
        got_kept, got_rejected, got_repeated = _screen_roots(np.array(roots))
        want_kept, want_rejected, want_repeated = reference_screen(np.array(roots))
        assert repr(got_rejected) == repr(want_rejected)
        assert got_repeated == want_repeated
        assert got_kept.strides == want_kept.strides
        assert repr(got_kept.tolist()) == repr(want_kept.tolist())
