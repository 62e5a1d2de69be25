import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from transient_lab import (OutOfSupport, SampledSignal, SignalSource, SymbolicTransient,
                           evaluate_many, inner_product, load_samples_csv, load_signal_spec,
                           save_samples_csv, signal_core, synthesize_samples)

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
    # the reference builds the arrays from the term list on every call
    sig = SymbolicTransient(tuple(sorted(terms)))
    rates = np.array([r for r, _ in sig.terms])
    coeffs = np.array([c for _, c in sig.terms])
    ts = np.array(times)
    with np.errstate(over="ignore"):
        want = coeffs @ np.exp(-np.outer(rates, ts))
    assert np.array_equal(sig(ts), want)
    assert sig(times[0]) == want[0]


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

    @pytest.mark.parametrize("grid", [[0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [0.0, math.nan]])
    def test_own_nodes_must_increase(self, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            SignalSource.from_evaluator(np.exp, grid=grid)


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
            expected = 2.0 * inner_product(fs, fu) - 0.5 * inner_product(fu, fu)
            assert inner_product(both, fu) == pytest.approx(expected, rel=1e-9, abs=1e-9)

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
