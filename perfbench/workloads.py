"""The benchmark's three workloads: inputs, steps, output checks and scores.

A signal is one generated input.  `make(i)` builds signal i from the seed and
i alone, so the same seed always gives the same inputs however many signals a
run reaches.  `run(signal)` is the timed part: every step of the workload on
that one signal.  `score(signal, raw)` is untimed: it parses every output,
raises CheckFailed on a malformed one, and scores each method's result
against the true terms.

Accuracy follows acceptance criterion 2: |delta rate| <= 1e-3 and
|delta coeff| <= 1e-3 |coeff|, plus the exact term count for methods that
return a term list.  Estimated terms are matched to true terms by nearest
rate for the error maxima, so an invented term never lines up with a true
one by rank.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from transient_lab import (SampledSignal, SignalSource, TransientLabError, cli,
                           decomposer, load_signal_spec, oet_jacobi, prony_baseline)

RATE_TOL = 1e-3
COEFF_TOL = 1e-3
IDENTITY_TOL = 1e-9
OET_MAX_INDEX = 8
SIGMAS = (0.0, 1e-6, 1e-4, 1e-3)
COMPARE_GRID = np.linspace(0.0, 40.0, 4001)   # compare's default: horizon 40, step 0.01

# per-method accuracy, as the largest error over a traced pass; "abs" is an
# absolute error, "rel" one relative to the true coefficient
ACCURACY_METRICS = {
    "decomposer.rate_err_max": "abs",
    "decomposer.coeff_relerr_max": "rel",
    "prony_baseline.rate_err_max": "abs",
    "oet_jacobi.coeff_err_max": "abs",
    "oet_jacobi.spurious_coeff_max": "abs",
    "functionals.identity_err_max": "abs",
}


class CheckFailed(Exception):
    """An output is missing, malformed or inconsistent: the run is not correct."""


@dataclass
class Outcome:
    """One method's result on one signal."""

    method: str
    returned: tuple = ()             # every number the method returned, for the digest
    error: Optional[str] = None      # TransientLabError name, or the CLI exit code
    solved: Optional[bool] = False  # None for steps that are not scored (synth)
    count_err: Optional[int] = None  # |returned - true| terms, for term-list methods
    true_count: int = 0
    accuracy: dict = field(default_factory=dict)   # per-layer accuracy metric -> value


def _values(terms, times):
    """Noise-free sum of coeff * exp(-rate t), evaluated by the benchmark itself."""
    out = np.zeros_like(times)
    for rate, coeff in terms:
        out += coeff * np.exp(-rate * times)
    return out


def _flat(pairs):
    return tuple(float(x) for pair in pairs for x in pair)


def score_terms(method, truth, returned, rate_key, coeff_key=None):
    """Score a term list: exact count, then nearest-rate errors per true term."""
    returned = sorted((float(r), float(c)) for r, c in returned)
    if not all(math.isfinite(x) for pair in returned for x in pair):
        raise CheckFailed(f"{method} returned a non-finite term: {returned}")
    rate_err = coeff_err = 0.0
    for rate, coeff in truth:
        if returned:
            got_r, got_c = min(returned, key=lambda rc: abs(rc[0] - rate))
        else:
            got_r, got_c = 0.0, 0.0
        rate_err = max(rate_err, abs(got_r - rate))
        coeff_err = max(coeff_err, abs(got_c - coeff) / abs(coeff))
    solved = len(returned) == len(truth) and all(
        abs(gr - r) <= RATE_TOL and abs(gc - c) <= COEFF_TOL * abs(c)
        for (gr, gc), (r, c) in zip(returned, truth))
    accuracy = {rate_key: rate_err}
    if coeff_key:
        accuracy[coeff_key] = coeff_err
    return Outcome(method, _flat(returned), solved=solved,
                   count_err=abs(len(returned) - len(truth)), true_count=len(truth),
                   accuracy=accuracy)


def score_oet(truth, coeffs):
    """Score OET's per-rate coefficient vector against integer-rate truth."""
    coeffs = [float(c) for c in coeffs]
    if len(coeffs) < OET_MAX_INDEX or not all(math.isfinite(c) for c in coeffs):
        raise CheckFailed(f"oet returned a malformed coefficient vector: {coeffs}")
    true_slot = {int(round(r)): c for r, c in truth}
    errs = [abs(coeffs[k - 1] - c) for k, c in true_slot.items()]
    spurious = [abs(c) for k, c in enumerate(coeffs, start=1) if k not in true_slot]
    solved = all(abs(coeffs[k - 1] - c) <= COEFF_TOL * abs(c) for k, c in true_slot.items())
    return Outcome("oet", tuple(coeffs), solved=solved, true_count=len(truth),
                   accuracy={"oet_jacobi.coeff_err_max": max(errs),
                             "oet_jacobi.spurious_coeff_max": max(spurious, default=0.0)})


def _attempt(fn, *args):
    try:
        return fn(*args)
    except TransientLabError as exc:
        return exc


def _failed(method, exc, truth=None):
    """A method that raised; a term-list method then returned no terms."""
    count = None if truth is None else len(truth)
    return Outcome(method, error=type(exc).__name__, count_err=count,
                   true_count=count or 0)


class Clean3:
    """Acceptance three-term family, each signal through decompose_numeric."""

    name = "clean3"
    trace_signals = 60

    def __init__(self, seed, workdir):
        self.seed = seed

    def make(self, i):
        # mirrors tests/test_acceptance.py::three_term_family
        rng = np.random.default_rng([self.seed, i])
        lam1 = rng.uniform(0.25, 0.7)
        gaps = rng.uniform(0.5, 1.2, 2)
        rates = [lam1, lam1 + gaps[0], lam1 + gaps[0] + gaps[1]]
        coeffs = [rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0]) for _ in range(3)]
        truth = tuple((float(r), float(c)) for r, c in zip(rates, coeffs))
        grid = np.linspace(0.0, 40.0 / lam1, 4000)
        return truth, SampledSignal(times=grid, values=_values(truth, grid))

    def run(self, signal):
        _, samples = signal
        return [_attempt(decomposer.decompose_numeric,
                         SignalSource.from_sampled(samples), samples.support)]

    def score(self, signal, raw):
        truth, _ = signal
        (result,) = raw
        if isinstance(result, TransientLabError):
            return [_failed("decomposer", result, truth)]
        return [score_terms("decomposer", truth, result.terms,
                            "decomposer.rate_err_max", "decomposer.coeff_relerr_max")]


class NoisyMc:
    """compare's Monte-Carlo sweep on data/two_term.json, fits scored as returned.

    A signal is one trial of the sweep: one sample set per noise level, each
    fitted by all three methods.  Per-sample-set latencies form a broad
    mixture over the noise levels whose median jumps between runs; their
    per-trial sum does not.
    """

    name = "noisy_mc"
    trace_signals = 10

    def __init__(self, seed, workdir):
        self.seed = seed
        spec = load_signal_spec(os.path.join("data", "two_term.json"))
        self.truth = spec.terms
        self.clean = _values(self.truth, COMPARE_GRID)

    def make(self, trial):
        sets = []
        for sigma_index, sigma in enumerate(SIGMAS):
            values = self.clean
            if sigma > 0.0:
                # compare's seeding rule
                rng = np.random.default_rng(self.seed + 7919 * sigma_index + trial)
                values = values + rng.normal(0.0, sigma, size=COMPARE_GRID.shape)
            sets.append(SampledSignal(times=COMPARE_GRID, values=values))
        return sets

    def run(self, sets):
        raw = []
        for samples in sets:
            source = SignalSource.from_sampled(samples)
            basis = oet_jacobi.build_exponential_basis(OET_MAX_INDEX)
            raw.append((_attempt(decomposer.decompose_numeric, source, samples.support),
                        _attempt(prony_baseline.prony_fit, samples, len(self.truth)),
                        _attempt(oet_jacobi.oet_analyze, source, basis)))
        return raw

    def score(self, sets, raw):
        out = []
        for dec, prony, oet in raw:
            out += [
                _failed("decomposer", dec, self.truth) if isinstance(dec, TransientLabError)
                else score_terms("decomposer", self.truth, dec.terms,
                                 "decomposer.rate_err_max", "decomposer.coeff_relerr_max"),
                _failed("prony", prony, self.truth) if isinstance(prony, TransientLabError)
                else score_terms("prony", self.truth, zip(prony.rates, prony.amplitudes),
                                 "prony_baseline.rate_err_max"),
                _failed("oet", oet) if isinstance(oet, TransientLabError)
                else score_oet(self.truth, oet.exponential_coeffs),
            ]
        return out


class CliFiles:
    """Four in-process CLI verbs per spec: synth, prony, oet, functionals."""

    name = "cli_files"
    trace_signals = 40
    VERBS = ("synth", "prony", "oet", "functionals")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.paths = {name: os.path.join(workdir, name) for name in (
            "spec.json", "samples.csv", "prony.json", "oet.json", "functionals.csv")}

    def make(self, i):
        rng = np.random.default_rng([self.seed, i])
        count = int(rng.integers(2, 4))
        rates = sorted(int(r) for r in rng.choice(np.arange(1, 7), size=count, replace=False))
        truth = tuple((float(r), float(rng.uniform(0.5, 5.0) * rng.choice([-1.0, 1.0])))
                      for r in rates)
        for path in self.paths.values():
            if os.path.exists(path):
                os.remove(path)
        with open(self.paths["spec.json"], "w", encoding="utf-8") as fh:
            json.dump({"terms": [{"rate": r, "coeff": c} for r, c in truth]}, fh)
        return truth

    def run(self, truth):
        p = self.paths
        rates = [repr(r) for r, _ in truth]
        argvs = (
            ["synth", "--input", p["spec.json"], "--output", p["samples.csv"]],
            ["prony", "--input", p["samples.csv"], "--order", str(len(truth)),
             "--output", p["prony.json"]],
            ["oet", "--input", p["samples.csv"], "--max-index", str(OET_MAX_INDEX),
             "--output", p["oet.json"]],
            ["functionals", "--rates", *rates, "--mode", "numeric",
             "--output", p["functionals.csv"]],
        )
        return [cli.main(argv) for argv in argvs]

    def _json(self, name):
        try:
            with open(self.paths[name], encoding="utf-8") as fh:
                return json.load(fh)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{name}: unreadable output: {exc}") from exc

    def _csv(self, name, header):
        try:
            with open(self.paths[name], encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
        except OSError as exc:
            raise CheckFailed(f"{name}: unreadable output: {exc}") from exc
        if not rows or rows[0] != header:
            raise CheckFailed(f"{name}: expected header {header}, got {rows[:1]}")
        return rows[1:]

    def _check_samples(self, truth):
        rows = self._csv("samples.csv", ["t", "x"])
        try:
            data = np.array(rows, dtype=float)
        except ValueError as exc:
            raise CheckFailed(f"samples.csv: {exc}") from exc
        if data.shape != (len(COMPARE_GRID), 2) or not np.array_equal(data[:, 0], COMPARE_GRID):
            raise CheckFailed(f"samples.csv: grid of shape {data.shape} is not 0..40 step 0.01")
        scale = sum(abs(c) for _, c in truth)
        if np.abs(data[:, 1] - _values(truth, COMPARE_GRID)).max() > 1e-12 * scale:
            raise CheckFailed("samples.csv: values do not match the spec")
        return tuple(data[:, 1])

    def _functionals(self, truth):
        n = len(truth)
        rows = self._csv("functionals.csv", ["kind", "row", "col", "value"])
        rate = np.full((n, n), np.nan)
        mono = np.full((10, 10), np.nan)
        try:
            for kind, i, j, value in rows:
                (rate if kind == "rate" else mono)[int(i) - 1, int(j) - 1] = float(value)
        except (ValueError, IndexError) as exc:
            raise CheckFailed(f"functionals.csv: malformed row: {exc}") from exc
        if len(rows) != n * n + 100 or np.isnan(rate).any():
            raise CheckFailed(f"functionals.csv: expected {n}x{n} rate and 10x10 monomial rows")
        if not np.array_equal(mono, np.eye(10)):
            raise CheckFailed("functionals.csv: monomial matrix is not exactly the identity")
        err = float(np.abs(rate - np.eye(n)).max())
        return Outcome("functionals", tuple(rate.ravel()), solved=err <= IDENTITY_TOL,
                       accuracy={"functionals.identity_err_max": err})

    def score(self, truth, codes):
        for verb, code in zip(self.VERBS, codes):
            if code not in (0, 3, 4, 5, 6, 7, 8):
                raise CheckFailed(f"{verb} exited with undocumented code {code}")
        out = []
        synth_code, prony_code, oet_code, fn_code = codes
        if synth_code:
            out.append(Outcome("synth", error=f"exit {synth_code}", solved=None))
        else:
            out.append(Outcome("synth", self._check_samples(truth), solved=None))
        if prony_code:
            out.append(Outcome("prony", error=f"exit {prony_code}", count_err=len(truth),
                               true_count=len(truth)))
        else:
            model = self._json("prony.json")
            if len(model.get("rates", ())) != len(model.get("amplitudes", ())):
                raise CheckFailed("prony.json: rates and amplitudes differ in length")
            out.append(score_terms("prony", truth, zip(model["rates"], model["amplitudes"]),
                                   "prony_baseline.rate_err_max"))
        if oet_code:
            out.append(Outcome("oet", error=f"exit {oet_code}"))
        else:
            out.append(score_oet(truth, self._json("oet.json").get("exponential_coeffs", [])))
        if fn_code:
            out.append(Outcome("functionals", error=f"exit {fn_code}"))
        else:
            out.append(self._functionals(truth))
        return out


WORKLOAD_TYPES = {w.name: w for w in (Clean3, NoisyMc, CliFiles)}
