import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_lab import (OutOfSupport, SampledSignal, SignalSource, SymbolicTransient,
                           build_exponential_basis, decompose_numeric, evaluate_many,
                           inner_product, load_samples_csv, load_signal_spec, oet_analyze,
                           rate_sequence, save_samples_csv, signal_core, synthesize_samples)
from transient_lab.signal_core import evaluation_grid, input_record, uniform_grid_step

from conftest import random_transient, sample_csv_texts


def closed_form_inner(s: SymbolicTransient, u: SymbolicTransient) -> float:
    """Independent oracle: <x, y> = sum over term pairs of a*b / (r + q)."""
    return sum(a * b / (r + q) for r, a in s.terms for q, b in u.terms)


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class TestSymbolicTransient:
    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError, match="positive"):
            SymbolicTransient(((0.0, 1.0),))
        with pytest.raises(ValueError, match="positive"):
            SymbolicTransient(((-1.0, 1.0),))

    def test_rejects_unsorted_and_duplicate_rates(self):
        with pytest.raises(ValueError, match="increasing"):
            SymbolicTransient(((2.0, 1.0), (1.0, 1.0)))
        with pytest.raises(ValueError, match="increasing"):
            SymbolicTransient(((1.0, 1.0), (1.0, 2.0)))

    def test_overflowing_coefficient_sum_is_a_value_error(self):
        # each coefficient is finite, but the sum that bounds every value is not
        with pytest.raises(ValueError, match="sum of [|]coeff[|] .* overflows to inf"):
            SymbolicTransient(((1.0, 1e308), (2.0, -1e308)))

    def test_canonical_flag(self):
        assert SymbolicTransient(((1.0, 2.0),)).is_canonical
        assert not SymbolicTransient(((1.0, 0.0), (2.0, 1.0))).is_canonical
        assert SymbolicTransient(((1.0, 0.0), (2.0, 1.0))).canonicalize().terms == ((2.0, 1.0),)

    def test_empty_signal_is_zero(self):
        zero = SymbolicTransient()
        assert zero(3.7) == 0.0

    def test_rate_and_coefficient_arrays_cannot_change_the_signal(self):
        sig = SymbolicTransient(((1.0, 2.0), (3.0, -4.0)))
        before = sig(np.linspace(0.0, 5.0, 11))
        rates, coeffs = sig.rates, sig.coefficients
        rates[:] = 7.0
        coeffs[:] = 0.0
        assert sig.rates.tolist() == [1.0, 3.0]
        assert sig.coefficients.tolist() == [2.0, -4.0]
        assert np.array_equal(sig(np.linspace(0.0, 5.0, 11)), before)
        assert sig == SymbolicTransient(((1.0, 2.0), (3.0, -4.0)))


@given(terms=st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e5, 1e5)),
                      min_size=1, max_size=7, unique_by=lambda rc: rc[0]),
       times=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50))
@settings(max_examples=100, deadline=None)
def test_call_matches_the_reference_bit_for_bit(terms, times):
    # the reference builds the arrays from the term list on every call.  A
    # scalar is read against the reference at that one time: numpy's matmul
    # sums a 2- or 3-column product in another order than a 1-column one, so
    # with cancelling terms element 0 of a longer call may differ in its last bit
    sig = SymbolicTransient(tuple(sorted(terms)))
    rates = np.array([r for r, _ in sig.terms])
    coeffs = np.array([c for _, c in sig.terms])
    ts = np.array(times)
    with np.errstate(over="ignore"):
        want = coeffs @ np.exp(-np.outer(rates, ts))
        want_first = coeffs @ np.exp(-np.outer(rates, ts[:1]))
    assert np.array_equal(sig(ts), want)
    assert sig(times[0]) == want_first[0]


class TestSampledSignal:
    def test_uniform_step_detected(self):
        sig = SampledSignal(times=np.arange(0.0, 1.0, 0.125), values=np.zeros(8))
        assert sig.uniform_step == pytest.approx(0.125, rel=1e-12)

    def test_uniform_step_is_derived_not_passed(self):
        with pytest.raises(TypeError, match="uniform_step"):
            SampledSignal(times=np.arange(4.0), values=np.zeros(4), uniform_step=1.0)

    def test_nonuniform_has_no_step(self):
        sig = SampledSignal(times=np.array([0.0, 1.0, 3.0]), values=np.zeros(3))
        assert sig.uniform_step is None

    # a node at t rounds by up to eps |t| / 2: on these grids the steps
    # deviate from their mean by more than UNIFORM_REL_TOL of it, from
    # rounding alone
    @given(nodes=st.integers(2, 100_000), offset=st.floats(0.0, 1e4),
           span=st.floats(1e-3, 1e4))
    @example(nodes=40001, offset=0.0, span=40.0)
    @example(nodes=40001, offset=0.0, span=400.0)
    @example(nodes=4001, offset=1000.0, span=40.0)
    @settings(max_examples=100, deadline=None)
    def test_linspace_grids_are_uniform(self, nodes, offset, span):
        times = np.linspace(offset, offset + span, nodes)
        step = uniform_grid_step(times)
        assert step is not None
        assert step == pytest.approx((times[-1] - times[0]) / (nodes - 1), rel=1e-9)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError, match="increasing"):
            SampledSignal(times=np.array([0.0, 2.0, 1.0]), values=np.zeros(3))
        with pytest.raises(ValueError, match="mismatch"):
            SampledSignal(times=np.array([0.0, 1.0]), values=np.zeros(3))
        with pytest.raises(ValueError, match="t >= 0"):
            SampledSignal(times=np.array([-1.0, 1.0]), values=np.zeros(2))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, bad):
        values = np.ones(4)
        values[2] = bad
        with pytest.raises(ValueError, match="values must be finite.*sample 2"):
            SampledSignal(times=np.arange(4.0), values=values)
        times = np.arange(4.0)
        times[3] = bad
        with pytest.raises(ValueError, match="times must be finite.*sample 3"):
            SampledSignal(times=times, values=np.ones(4))


# ---------------------------------------------------------------------------
# evaluate_many
# ---------------------------------------------------------------------------

class TestEvaluate:
    def test_single_term_at_zero(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert evaluate_many(src, [0.0])[0] == 1.0

    def test_rate_times_t_past_the_float_range_reads_zero(self):
        # warnings are errors under pytest, so an overflow warning fails here
        sig = SymbolicTransient(((1.7e308, 2.0),))
        assert np.array_equal(sig(np.array([0.0, 2.0])), [2.0, 0.0])

    def test_sum_of_coefficients_at_zero(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))))
        assert evaluate_many(src, [0.0])[0] == 5.0

    def test_half_life(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert evaluate_many(src, [math.log(2.0)])[0] == pytest.approx(0.5, abs=1e-15)

    def test_sampled_interpolates_linearly(self):
        sig = SampledSignal(times=np.array([0.0, 1.0, 2.0]), values=np.array([0.0, 2.0, 0.0]))
        src = SignalSource.from_sampled(sig)
        assert evaluate_many(src, [0.5])[0] == pytest.approx(1.0)
        assert evaluate_many(src, [1.0])[0] == 2.0

    @pytest.mark.parametrize("values", [
        [-0.0, 0.0, -0.0, 1.0, -0.0],
        [1.7e308, -1.7e308, 1.7e308, -1.7e308, 0.0],
        [-1.7e308, -0.0, 1.7e308, 0.0, -1.7e308],
    ])
    def test_sampled_at_its_own_nodes_gives_interp_bits_in_a_fresh_array(self, values):
        # np.interp takes a node's own value where it meets the node, even
        # where the slope beside it overflows or the value is a signed zero
        sig = SampledSignal(times=np.array([-0.0, 0.5, 1.0, 2.5, 3.0]), values=np.array(values))
        src = SignalSource.from_sampled(sig)
        before = sig.values.tobytes()
        for ts in (sig.times, sig.times.copy(), np.abs(sig.times), sig.times[1:]):
            got = evaluate_many(src, ts)
            assert got.tobytes() == np.interp(ts, sig.times, sig.values).tobytes()
            assert got.tobytes() == sig.values[len(sig.times) - len(ts):].tobytes()
            got[:] = 7.0
            assert sig.values.tobytes() == before

    def test_sampled_out_of_support(self):
        sig = SampledSignal(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        src = SignalSource.from_sampled(sig)
        with pytest.raises(OutOfSupport):
            evaluate_many(src, [2.0])

    def test_evaluator_variant_delegates(self):
        src = SignalSource.from_evaluator(lambda ts: np.exp(-2.0 * np.asarray(ts)))
        assert evaluate_many(src, [1.0])[0] == pytest.approx(math.exp(-2.0))

    def test_evaluator_returning_one_value_for_many_times_rejected(self):
        src = SignalSource.from_evaluator(lambda ts: 1.0)
        with pytest.raises(ValueError, match="evaluator must return one value per time"):
            evaluate_many(src, [0.0, 1.0])


class TestEvaluationGrid:
    def test_own_nodes_inside_the_support(self):
        src = SignalSource.from_evaluator(np.exp, grid=[0.0, 1.0, 2.0, 3.0])
        assert signal_core.evaluation_grid(src, (0.5, 3.0)).tolist() == [1.0, 2.0, 3.0]

    def test_uniform_nodes_without_own_nodes(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        ts = signal_core.evaluation_grid(src, (0.0, 1e-300))
        assert len(ts) == signal_core.GRID_POINTS and np.all(np.diff(ts) > 0.0)

    def test_support_too_narrow_for_distinct_nodes_refused(self):
        # 4001 uniform nodes on (0, 1e-320) land on a few dozen subnormals
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        with pytest.raises(ValueError, match=r"support \(0\.0, 1e-320\) is too narrow"):
            signal_core.evaluation_grid(src, (0.0, 1e-320))

    # supports inside the nodes, on them, straddling either end or both, and
    # outside them
    @pytest.mark.parametrize("support", [
        (0.5, 2.5), (1.2, 1.8), (1.0, 2.0), (-0.0, 3.0), (-1.0, 1.5), (2.5, 9.0),
        (-2.0, 9.0), (4.0, 9.0), (-2.0, -1.0), (3.0, 3.0)])
    def test_own_nodes_cut_as_a_mask_cuts_them(self, support):
        grid = np.array([-0.0, 1.0, 2.0, 3.0])
        src = SignalSource.from_evaluator(np.exp, grid=grid)
        t_lo, t_hi = support
        want = grid[(grid >= t_lo) & (grid <= t_hi)]
        assert evaluation_grid(src, support).tobytes() == want.tobytes()

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, math.nan]])
    def test_own_nodes_must_increase(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            SignalSource.from_evaluator(np.exp, grid=grid)

    def test_own_nodes_must_lie_in_one_dimension(self):
        # refused here, not later by evaluation_grid's searchsorted
        with pytest.raises(ValueError, match=r"one-dimensional, got shape \(2, 2\)"):
            SignalSource.from_evaluator(np.exp, support=(0, 10), grid=[[0, 1], [2, 3]])

    def test_own_nodes_must_be_finite(self):
        with pytest.raises(ValueError, match="finite, got inf at node 2"):
            SignalSource.from_evaluator(np.exp, grid=[0.0, 1.0, math.inf])


class TestInputRecord:
    GRID = np.linspace(0.0, 40.0, 4001)

    def test_arrays_are_read_only_and_the_callers_stay_writeable(self):
        grid = self.GRID.copy()
        values = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))(grid)
        record = input_record(grid, values, uniform_grid_step(grid))
        for arr in (record.grid, record.values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0
        assert grid.flags.writeable and values.flags.writeable
        assert np.shares_memory(record.grid, grid) and not np.shares_memory(record.values, values)
        # the record holds the input in units of its peak
        assert record.peak == 5.0 and np.array_equal(record.values, values / 5.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.peak = 1.0
        # the decomposer reports the record of its input, at the input's scale
        result = decompose_numeric(SignalSource.from_sampled(SampledSignal(grid, values)),
                                   (0.0, 40.0))
        assert (result.noise_sigma, result.min_terms) == (record.noise_sigma * 5.0, 2)
        assert record.min_terms == 2

    def test_all_zero_input_keeps_its_zeros_and_has_no_goal_or_min_terms(self):
        record = input_record(self.GRID, np.zeros(len(self.GRID)),
                              uniform_grid_step(self.GRID))
        assert (record.peak, record.noise_sigma) == (0.0, 0.0)
        assert not record.values.any() and not record.values.flags.writeable
        assert record.rss_goal is None and record.min_terms is None

    def test_non_uniform_step_has_no_min_terms(self):
        values = np.exp(-self.GRID)
        uniform = input_record(self.GRID, values, uniform_grid_step(self.GRID))
        other = input_record(self.GRID, values, None)
        assert uniform.min_terms == 1 and other.min_terms is None
        assert other.rss_goal == uniform.rss_goal > 0.0


class TestSignalSource:
    def test_sampled_source_reads_its_samples_however_spelled(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))),
                                 np.linspace(0.0, 10.0, 11))
        for src in (SignalSource(sampled=sig), SignalSource.from_sampled(sig)):
            assert src.support == (0.0, 10.0)
            assert np.array_equal(evaluation_grid(src, src.support), sig.times)

    def test_sampled_spellings_decompose_alike(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0), (2.0, 3.0))),
                                 np.linspace(0.0, 20.0, 2001))
        terms = [[(r.hex(), c.hex()) for r, c in decompose_numeric(src, sig.support).terms]
                 for src in (SignalSource(sampled=sig), SignalSource.from_sampled(sig))]
        assert len(terms[0]) == 2
        assert terms[0] == terms[1]

    @pytest.mark.parametrize("extra", [dict(support=(0.0, 10.0)), dict(grid=[0.0, 1.0])])
    def test_sampled_source_refuses_its_own_support_or_grid(self, extra):
        sig = SampledSignal(times=np.array([0.0, 1.0]), values=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="takes its support and grid from its samples"):
            SignalSource(sampled=sig, **extra)

    def test_types_holding_arrays_compare_by_identity(self):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        samples = synthesize_samples(sig, np.linspace(0.0, 10.0, 11))
        builders = [
            lambda: SampledSignal(samples.times, samples.values),
            lambda: SignalSource.from_sampled(samples),
            lambda: SignalSource.from_symbolic(sig),
            lambda: oet_analyze(SignalSource.from_symbolic(sig), build_exponential_basis(3)),
            lambda: rate_sequence(SignalSource.from_symbolic(sig), (0.0, 10.0)),
        ]
        for build in builders:
            first, second = build(), build()
            assert (first == second) is False
            assert (first == first) is True
            assert len({first, second}) == 2
        # the value types keep value equality
        assert SymbolicTransient(sig.terms) == sig
        assert hash(SymbolicTransient(sig.terms)) == hash(sig)


# ---------------------------------------------------------------------------
# inner_product
# ---------------------------------------------------------------------------

class TestInnerProduct:
    def test_unit_exponential(self):
        src = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        assert inner_product(src, src) == pytest.approx(0.5, abs=1e-10)

    def test_mixed_rates(self):
        f = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1.0),)))
        g = SignalSource.from_symbolic(SymbolicTransient(((2.0, 1.0),)))
        assert inner_product(f, g) == pytest.approx(1.0 / 3.0, abs=1e-10)

    def test_two_term_closed_form(self):
        sig = SymbolicTransient(((1.0, 2.0), (2.0, 3.0)))
        src = SignalSource.from_symbolic(sig)
        expected = closed_form_inner(sig, sig)
        assert expected == pytest.approx(8.25, abs=1e-12)   # independent arithmetic
        assert inner_product(src, src) == pytest.approx(expected, abs=1e-9)

    def test_symmetry_and_bilinearity(self, rng):
        for _ in range(10):
            s, u = random_transient(rng, 2), random_transient(rng, 3)
            fs, fu = SignalSource.from_symbolic(s), SignalSource.from_symbolic(u)
            assert inner_product(fs, fu) == pytest.approx(inner_product(fu, fs), abs=1e-12)
            both = SignalSource.from_evaluator(lambda ts, s=s, u=u: 2.0 * s(ts) - 0.5 * u(ts))
            # evaluators, so that both sides run the quadrature
            es, eu = SignalSource.from_evaluator(s), SignalSource.from_evaluator(u)
            expected = 2.0 * inner_product(es, fu) - 0.5 * inner_product(eu, fu)
            assert inner_product(both, fu) == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_symbolic_pairs_take_the_closed_form(self, rng):
        slow = SignalSource.from_symbolic(SymbolicTransient(((0.1, 10.0),)))
        assert inner_product(slow, slow) == pytest.approx(500.0, rel=1e-12, abs=1e-12)
        for _ in range(10):
            s, u = random_transient(rng, 2), random_transient(rng, 3)
            fs, fu = SignalSource.from_symbolic(s), SignalSource.from_symbolic(u)
            assert inner_product(fs, fu) == inner_product(fu, fs)
            assert inner_product(fs, fu) == pytest.approx(closed_form_inner(s, u), rel=1e-12)
            # bilinear exactly up to the rounding of the sums
            both = SymbolicTransient(tuple(sorted(
                [(r, 2.0 * c) for r, c in s.terms] + [(r, -0.5 * c) for r, c in u.terms])))
            expected = 2.0 * inner_product(fs, fu) - 0.5 * inner_product(fu, fu)
            assert (inner_product(SignalSource.from_symbolic(both), fu)
                    == pytest.approx(expected, rel=1e-12, abs=1e-12))

    def test_closed_form_past_the_float_range_fails_as_the_quadrature(self):
        from transient_lab import QuadratureFailure
        huge = SignalSource.from_symbolic(SymbolicTransient(((1.0, 1e308),)))
        with pytest.raises(QuadratureFailure, match="overflows"):
            inner_product(huge, huge)

    def test_norm_within_the_coefficient_bound(self, rng):
        # ||x||^2 <= (sum |coeff|)^2 / (2 min rate), with equality for one
        # term; the allowance covers the quadrature's overshoot on fractional
        # powers of z (below 2e-6 relative at 128 nodes)
        for sig in [SymbolicTransient(((0.1, 10.0),))] + [
                random_transient(rng, int(rng.integers(1, 5))) for _ in range(20)]:
            src = SignalSource.from_symbolic(sig)
            bound = sum(abs(c) for _, c in sig.terms) ** 2 / (2.0 * sig.terms[0][0])
            assert inner_product(src, src) <= bound * (1.0 + 1e-5) + 1e-9

    def test_quadrature_failure_propagates(self):
        from transient_lab import QuadratureFailure
        bad = SignalSource.from_evaluator(lambda ts: np.full_like(np.asarray(ts), np.nan))
        with pytest.raises(QuadratureFailure):
            inner_product(bad, bad)


class TestInnerProductSequence:
    """inner_product(f, [g1, g2, ...]): one pass, each product's own bits."""

    SIG = SymbolicTransient(((1.0, 2.0), (2.5, -3.0)))

    @staticmethod
    def sources(rng):
        basis = build_exponential_basis(8).elements
        extra = [SignalSource.from_symbolic(random_transient(rng, 3)),
                 SignalSource.from_symbolic(SymbolicTransient()),
                 SignalSource.from_evaluator(random_transient(rng, 2))]
        return list(basis) + extra

    @pytest.mark.parametrize("kind", ["sampled", "evaluator", "windowed_symbolic"])
    def test_equals_one_call_per_source_bit_for_bit(self, kind, rng):
        f = {
            "sampled": lambda: SignalSource.from_sampled(synthesize_samples(
                self.SIG, np.linspace(0.0, 40.0, 4001), noise_sigma=1e-4, seed=3)),
            "evaluator": lambda: SignalSource.from_evaluator(self.SIG),
            "windowed_symbolic": lambda: SignalSource(symbolic=self.SIG, support=(0.5, 30.0)),
        }[kind]()
        gs = self.sources(rng)
        got = inner_product(f, gs)
        assert isinstance(got, np.ndarray) and got.shape == (len(gs),)
        assert np.array_equal(got, [inner_product(f, g) for g in gs])
        assert np.array_equal(inner_product(f, gs[:1]), [inner_product(f, gs[0])])
        assert type(inner_product(f, gs[0])) is float

    def test_symbolic_pairs_on_the_half_line_keep_the_closed_form(self, rng):
        slow = SymbolicTransient(((0.1, 10.0),))
        f = SignalSource.from_symbolic(slow)
        gs = [SignalSource.from_symbolic(slow)] + self.sources(rng)
        got = inner_product(f, gs)
        assert np.array_equal(got, [inner_product(f, g) for g in gs])
        # the quadrature reads 444.9 here (see inner_product)
        assert got[0] == pytest.approx(500.0, rel=1e-12)
        for value, g in zip(got, gs):
            if g.symbolic is not None:
                assert value == signal_core._closed_form_inner(slow, g.symbolic)

    def test_sources_on_different_supports_are_refused(self):
        f = SignalSource.from_evaluator(self.SIG)
        gs = [SignalSource.from_symbolic(self.SIG),
              SignalSource.from_evaluator(self.SIG, support=(0.0, 20.0))]
        with pytest.raises(ValueError, match="one support"):
            inner_product(f, gs)
        with pytest.raises(ValueError, match="one support"):
            inner_product(f, [])

    def test_a_non_finite_element_fails_the_pass(self):
        from transient_lab import QuadratureFailure
        f = SignalSource.from_evaluator(self.SIG)
        nan_at_late_times = SignalSource.from_evaluator(
            lambda ts: np.where(np.asarray(ts) > 5.0, np.nan, 1.0))
        with pytest.raises(QuadratureFailure, match="non-finite"):
            inner_product(f, [SignalSource.from_symbolic(self.SIG), nan_at_late_times])

    def test_an_empty_window_gives_one_zero_per_source(self):
        f = SignalSource.from_sampled(synthesize_samples(self.SIG, np.linspace(0.0, 10.0, 101)))
        gs = [SignalSource.from_evaluator(self.SIG, support=(20.0, 30.0)) for _ in range(3)]
        assert np.array_equal(inner_product(f, gs), np.zeros(3))
        assert inner_product(f, gs[0]) == 0.0


# ---------------------------------------------------------------------------
# synthesize_samples
# ---------------------------------------------------------------------------

class TestSynthesize:
    def test_exact_values(self):
        sig = synthesize_samples(SymbolicTransient(((1.0, 1.0),)), [0.0, 1.0])
        assert sig.values[0] == 1.0
        assert sig.values[1] == pytest.approx(math.exp(-1.0), abs=1e-16)

    def test_seeded_noise_is_deterministic(self):
        s = SymbolicTransient(((1.0, 1.0),))
        a = synthesize_samples(s, [0.0, 1.0], noise_sigma=0.1, seed=7)
        b = synthesize_samples(s, [0.0, 1.0], noise_sigma=0.1, seed=7)
        assert np.array_equal(a.values, b.values)
        c = synthesize_samples(s, [0.0, 1.0], noise_sigma=0.1, seed=8)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
    def test_rejects_noise_sigma_not_finite_and_non_negative(self, sigma):
        with pytest.raises(ValueError, match=f"noise_sigma .*, got {sigma}"):
            synthesize_samples(SymbolicTransient(((1.0, 1.0),)), [0.0, 1.0], noise_sigma=sigma)

    def test_zero_signal(self):
        sig = synthesize_samples(SymbolicTransient(), np.linspace(0, 1, 5))
        assert np.array_equal(sig.values, np.zeros(5))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

rate_lists = st.lists(st.floats(0.05, 20.0), min_size=1, max_size=5, unique=True)


@given(rates=rate_lists,
       coeffs=st.lists(st.floats(-10.0, 10.0), min_size=5, max_size=5),
       t=st.floats(0.0, 50.0))
@settings(max_examples=200, deadline=None)
def test_vanishing_bound(rates, coeffs, t):
    terms = tuple(sorted((r, c) for r, c in zip(rates, coeffs)))
    sig = SymbolicTransient(terms)
    bound = math.exp(-sig.terms[0][0] * t) * sum(abs(c) for _, c in sig.terms)
    assert abs(sig(t)) <= bound * (1.0 + 1e-12) + 1e-300


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_linearity_within_ulps(data):
    n = data.draw(st.integers(1, 3))
    rates = sorted(data.draw(st.lists(st.floats(0.1, 5.0), min_size=n, max_size=n,
                                      unique=True)))
    alphas = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    betas = data.draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    a = data.draw(st.floats(0.25, 2.0))
    b = data.draw(st.floats(0.25, 2.0))
    t = data.draw(st.floats(0.0, 10.0))
    s = SymbolicTransient(tuple(zip(rates, alphas)))
    u = SymbolicTransient(tuple(zip(rates, betas)))
    lhs = SymbolicTransient(tuple((r, a * cs + b * cu)
                                  for (r, cs), (_, cu) in zip(s.terms, u.terms)))(t)
    rhs = a * s(t) + b * u(t)
    assert abs(lhs - rhs) <= 4.0 * math.ulp(max(abs(lhs), abs(rhs), 1e-300))


def test_uniform_tail_bound(rng):
    grid = np.linspace(0.0, 20.0, 200)
    for _ in range(20):
        sig = random_transient(rng, int(rng.integers(2, 6)))
        full = sig(grid)
        for depth in range(len(sig.terms) + 1):
            partial = SymbolicTransient(sig.terms[:depth])(grid)
            tail_l1 = sum(abs(c) for _, c in sig.terms[depth:])
            assert np.abs(full - partial).max() <= tail_l1 * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

class TestFileFormats:
    def test_spec_round_trip(self, tmp_path):
        sig = SymbolicTransient(((0.5, -1.25), (2.0, 3.5)))
        path = tmp_path / "sig.json"
        path.write_text(json.dumps({"terms": [{"rate": r, "coeff": c} for r, c in sig.terms]}))
        assert load_signal_spec(path).terms == sig.terms

    @pytest.mark.parametrize("terms, named", [
        ('[{"rate": NaN, "coeff": 1.0}]', "term 0: rate must be a finite positive real, got nan"),
        ('[{"rate": 0, "coeff": 1.0}]', "term 0: rate must be a finite positive real, got 0.0"),
        ('[{"rate": 1.0, "coeff": 1.0}, {"rate": -1.0, "coeff": 1.0}]',
         "term 1: rate must be a finite positive real, got -1.0"),
        ('[{"rate": 2.0, "coeff": 1.0}, {"rate": 1.0, "coeff": 1.0}]',
         "term 1: rates must be strictly increasing, got 1.0 after 2.0"),
        ('[{"rate": 1.0, "coeff": 1.0}, {"rate": 1.0, "coeff": 2.0}]',
         "term 1: rates must be strictly increasing, got 1.0 after 1.0"),
        ('[{"rate": 1.0, "coeff": 1e308}, {"rate": 2.0, "coeff": 1e308}]', "overflows to inf"),
        ('[{"rate": 1.0, "coeff": 1' + "0" * 400 + '}]', "terms[0]: non-numeric"),
    ], ids=["nan_rate", "zero_rate", "negative_rate", "unsorted_rates", "duplicate_rates",
            "coeff_sum_overflow", "int_past_float_range"])
    def test_spec_errors_are_value_errors_naming_the_file(self, tmp_path, terms, named):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": ' + terms + '}')
        with pytest.raises(ValueError) as exc:
            load_signal_spec(path)
        assert str(exc.value).startswith(f"{path}: ") and named in str(exc.value)

    def test_spec_names_missing_field(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{"rate": 1.0}]}')
        with pytest.raises(ValueError, match="coeff"):
            load_signal_spec(path)

    def test_samples_round_trip(self, tmp_path):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0),)), np.linspace(0, 3, 7),
                                 noise_sigma=0.01, seed=3)
        path = tmp_path / "samples.csv"
        save_samples_csv(sig, path)
        back = load_samples_csv(path)
        assert np.array_equal(back.times, sig.times)
        assert np.array_equal(back.values, sig.values)

    def test_samples_reject_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,value\n0.0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            load_samples_csv(path)


# ---------------------------------------------------------------------------
# sample CSV: the one-pass reader and writer against the row-by-row reference
# ---------------------------------------------------------------------------

def reference_save(signal, path):
    """The sample writer as it was: one csv.writer row per sample."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["t", "x"])
        for t, x in zip(signal.times, signal.values):
            writer.writerow([repr(float(t)), repr(float(x))])


def reference_load(path):
    """The sample reader as it was: one csv row at a time through float()."""
    times, values = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t", "x"]:
            raise ValueError(f"{path}: expected header 't,x'")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                times.append(float(row[0]))
                values.append(float(row[1]))
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed sample row {row!r}") from exc
    try:
        return SampledSignal(times=np.array(times), values=np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _outcome(load, path):
    try:
        signal = load(path)
    except ValueError as exc:
        return str(exc)
    return signal


class TestSampleCsvParity:
    SPECIAL = [-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1 / 3]

    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=1, max_size=20))
    @example(values=SPECIAL)
    @settings(max_examples=60)
    def test_save_matches_csv_writer(self, tmp_path_factory, values):
        folder = tmp_path_factory.mktemp("save")
        signal = SampledSignal(times=np.arange(len(values), dtype=float),
                               values=np.array(values))
        save_samples_csv(signal, folder / "fast.csv")
        reference_save(signal, folder / "reference.csv")
        assert (folder / "fast.csv").read_bytes() == (folder / "reference.csv").read_bytes()

    @given(text=sample_csv_texts())
    @example(text="t,x\r\n0,1\r\n\r\n1,0.5\r\n")              # CRLF, blank line
    @example(text="t,x\n0,1\n \n1,0.5\n")                        # whitespace-only line
    @example(text="t,x\n0,1,\"\n1,0.5\n2,0.25,\"\n")            # quote joins three lines
    @example(text="t,x\n0,1\n1_0,0.5\n")                          # digit underscore
    @example(text="t,x\n0\x1c,1\n")                                # float() refuses \x1c
    @example(text="t,x\n0,1#c\n")
    @example(text="t,x\n0\f,1\f\n1,2")                           # form feed, no final newline
    @example(text="t,x\n")                                         # header only
    @example(text="t,x\n0.5,2.0\n")                                # one row
    @settings(max_examples=250)
    def test_load_matches_row_loop(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("load") / "samples.csv"
        path.write_text(text, encoding="utf-8", newline="")
        fast, reference = _outcome(load_samples_csv, path), _outcome(reference_load, path)
        if isinstance(reference, str):
            assert fast == reference
        else:
            assert np.array_equal(fast.times, reference.times)
            assert np.array_equal(fast.values, reference.values)
            assert fast.uniform_step == reference.uniform_step

    def test_plain_file_skips_the_row_loop(self, tmp_path, monkeypatch):
        sig = synthesize_samples(SymbolicTransient(((1.0, 2.0),)), np.linspace(0, 3, 301))
        path = tmp_path / "samples.csv"
        save_samples_csv(sig, path)

        def row_loop(path):
            raise AssertionError("the row loop ran on a plain file")

        monkeypatch.setattr(signal_core, "_read_rows", row_loop)
        back = load_samples_csv(path)
        assert np.array_equal(back.times, sig.times) and back.times.flags.c_contiguous
        assert np.array_equal(back.values, sig.values) and back.values.flags.c_contiguous

    def test_oversized_quoted_field_is_a_value_error(self, tmp_path):
        # csv raises its own error type here, which is not a ValueError
        path = tmp_path / "samples.csv"
        path.write_text('t,x\n0,1\n"' + "9" * 200_000 + "\n")
        with pytest.raises(ValueError, match=r"samples.csv:3: field larger than field limit"):
            load_samples_csv(path)
