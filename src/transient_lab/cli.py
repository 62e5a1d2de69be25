"""Command-line front end: synthesis, fitting, and method comparison sweeps.

Each verb is one function, run_<verb>(args), that reads its flags straight
from the argparse namespace.  A verb's subparser declares only the flags it
reads, so any other flag is a usage error.  No flag tunes a numeric
method: the OET runs at QuadratureConfig's default node count.  --seed is
taken by synth and compare.  A negative --seed, a --sigma that is not a
finite non-negative number, and a --horizon or --step that is not a finite
positive number exit before any input is read.

Every run is deterministic for a fixed configuration: seeds derive from the
--seed flag alone, output rows are sorted before writing, and floats are
serialized with shortest round-trip repr, so identical invocations produce
byte-identical files.

Exit codes (also shown in --help):
    0  success
    2  command-line usage error
    3  unreadable or malformed input file, or a refused flag value
    4  evaluation or quadrature failure (OutOfSupport, QuadratureFailure)
    5  tail estimation failure (SignalVanished, NonDecaying, Diverging)
    7  prony rank failure (RankDeficient)
    8  gamma-function pole (GammaPole)
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

import numpy as np

from . import errors
from .decomposer import decompose_exact, decompose_numeric
from .functionals import monomial_functional_matrix, rate_functional_matrix
from .oet_jacobi import build_exponential_basis, oet_analyze
from .prony_baseline import prony_fit
from .signal_core import (SignalSource, SymbolicTransient, evaluation_grid, load_samples_csv,
                          load_signal_spec, save_samples_csv, synthesize_samples)

_EXIT_CODES = (
    (errors.RankDeficient, 7),
    (errors.GammaPole, 8),
    ((errors.SignalVanished, errors.NonDecaying, errors.Diverging), 5),
    ((errors.OutOfSupport, errors.QuadratureFailure), 4),
)

# most steps a --horizon/--step grid may hold: 10**7 float64 nodes are 80 MB
MAX_GRID_STEPS = 10 ** 7
# largest functionals matrix, as --size or as the --rates count: at 100, on
# one core of a 2-CPU Xeon host, the monomial matrix takes 0.05 s, the symbolic
# rate matrix 0.4 s and the numeric one up to 2 s, each growing as the cube of
# the size
MAX_MATRIX_SIZE = 100

COMPARE_COLUMNS = ("method", "sigma", "trial", "term_index",
                   "true_rate", "est_rate", "true_coeff", "est_coeff", "flag")


def _check_positive(args, *names):
    """Refuse a non-positive or non-finite value of each named float flag."""
    for name in names:
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"--{name} must be a finite positive number, got {value}")


def _check_sigma(*sigmas):
    """Refuse a noise level that is negative or not finite."""
    for sigma in sigmas:
        if not (math.isfinite(sigma) and sigma >= 0.0):
            raise ValueError(f"--sigma must be finite and non-negative, got {sigma}")


def _grid(args) -> np.ndarray:
    steps = args.horizon / args.step
    if not steps <= MAX_GRID_STEPS:
        raise ValueError(f"--horizon / --step gives {steps:.3g} grid steps, "
                         f"more than the {MAX_GRID_STEPS} allowed")
    count = int(round(steps)) + 1
    return np.linspace(0.0, args.step * (count - 1), count)


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(header, rows, path):
    handle = open(path, "w", encoding="utf-8", newline="") if path else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path:
            handle.close()


def _finite_or_none(value):
    """JSON has no Inf or NaN; a non-finite number is written as null, and the
    output's flags say why (a singular Vandermonde matrix is duplicate_poles)."""
    return value if math.isfinite(value) else None


def _load_input_signal(path):
    """Spec JSON gives a symbolic signal; CSV gives samples."""
    if path is None:
        raise ValueError("this command needs --input")
    if path.endswith(".json"):
        return load_signal_spec(path), None
    return None, load_samples_csv(path)


# ---------------------------------------------------------------------------
# single-method verbs
# ---------------------------------------------------------------------------

def run_synth(args):
    if args.output is None:
        raise ValueError("synth needs --output for the sample CSV")
    _check_positive(args, "horizon", "step")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    _check_sigma(args.sigma)
    spec, _ = _load_input_signal(args.input)
    if spec is None:
        raise ValueError("synth needs a JSON signal spec as --input")
    samples = synthesize_samples(spec, _grid(args), noise_sigma=args.sigma, seed=args.seed)
    save_samples_csv(samples, args.output)


def run_decompose(args):
    spec, samples = _load_input_signal(args.input)
    if spec is not None:
        result = decompose_exact(spec.canonicalize())
    else:
        source = SignalSource.from_sampled(samples)
        result = decompose_numeric(source, samples.support)
    _write_json({
        "terms": [{"rate": r, "coeff": c} for r, c in result.terms],
        "diagnostics": {
            "per_term": [
                {"rate_residual_rms": d.rate_residual_rms,
                 "window": list(d.window) if d.window else None,
                 "mode": d.mode}
                for d in result.diagnostics
            ],
            "terminal_residual_norm": result.terminal_residual_norm,
            "termination_reason": result.termination_reason,
            "flagged": result.flagged,
            "noise_sigma": result.noise_sigma,
            "residual_rms": result.residual_rms,
            "min_terms": result.min_terms,
        },
    }, args.output)


def run_oet(args):
    spec, samples = _load_input_signal(args.input)
    source = (SignalSource.from_symbolic(spec) if spec is not None
              else SignalSource.from_sampled(samples))
    basis = build_exponential_basis(args.max_index)
    if args.basis_out:
        _write_csv(["element", "rate", "coeff"],
                   ((n, k, repr(float(c))) for n, row in enumerate(basis.coeff_table, 1)
                    for k, c in enumerate(row, 1)), args.basis_out)
    coeffs = oet_analyze(source, basis)
    _write_json({
        "max_index": args.max_index,
        "projections": list(coeffs.projections),
        "exponential_coeffs": list(coeffs.exponential_coeffs),
    }, args.output)


def run_prony(args):
    _, samples = _load_input_signal(args.input)
    if samples is None:
        raise ValueError("prony needs a sample CSV as --input")
    model = prony_fit(samples, args.order)
    _write_json({
        "order": model.order,
        "poles": list(model.poles),
        "rates": list(model.rates),
        "amplitudes": list(model.amplitudes),
        "vandermonde_condition": _finite_or_none(model.vandermonde_condition),
        "flags": list(model.flags),
        "rejected_roots": [repr(r) for r in model.rejected_roots],
    }, args.output)


def run_functionals(args):
    _check_positive(args, "horizon")
    if not 1 <= args.size <= MAX_MATRIX_SIZE:
        raise ValueError(f"--size must be from 1 to {MAX_MATRIX_SIZE}, got {args.size}")
    if len(args.rates) > MAX_MATRIX_SIZE:
        raise ValueError(f"--rates lists {len(args.rates)} rates, "
                         f"more than the {MAX_MATRIX_SIZE} allowed")
    matrices = []
    if args.rates:
        if args.mode == "numeric":
            # numeric mode reads each rate on the evaluation grid of (0, horizon)
            try:
                evaluation_grid(SignalSource.from_symbolic(SymbolicTransient()),
                                (0.0, args.horizon))
            except ValueError as exc:
                raise ValueError(f"--horizon={args.horizon!r}: {exc}") from None
        matrices.append(("rate", rate_functional_matrix(
            args.rates, mode=args.mode,
            horizon=args.horizon if args.mode == "numeric" else None)))
    matrices.append(("monomial", monomial_functional_matrix(args.size)))
    _write_csv(["kind", "row", "col", "value"],
               [(kind, i + 1, j + 1, repr(float(value)))
                for kind, matrix in matrices for (i, j), value in np.ndenumerate(matrix)],
               args.output)


# ---------------------------------------------------------------------------
# comparison sweep
# ---------------------------------------------------------------------------

def _fit_decomposer(args, truth, samples):
    source = SignalSource.from_sampled(samples)
    result = decompose_numeric(source, samples.support)
    est = list(result.terms)
    diag = {"terminal_residual_norm": result.terminal_residual_norm,
            "termination_reason": result.termination_reason,
            "noise_sigma": result.noise_sigma,
            "residual_rms": result.residual_rms}
    return est, "", diag


def _fit_prony(args, truth, samples):
    model = prony_fit(samples, order=len(truth.terms))
    est = list(zip(model.rates, model.amplitudes))
    flag = ";".join(model.flags)
    return est, flag, {"vandermonde_condition": _finite_or_none(model.vandermonde_condition)}


def _fit_oet(args, truth, samples):
    rates = truth.rates
    if np.any(np.abs(rates - np.round(rates)) > 1e-9):
        return None, "out_of_model", {"truncation_index": args.max_index}
    max_index = max(args.max_index, int(np.round(rates.max())))
    try:
        basis = build_exponential_basis(max_index)
    except ValueError:
        # a basis raised to the largest true rate that the float range cannot
        # hold puts that rate out of the model's reach; a --max-index it
        # cannot hold is a refused value
        if max_index == args.max_index:
            raise
        return None, "out_of_model", {"truncation_index": args.max_index}
    source = SignalSource.from_sampled(samples)
    coeffs = oet_analyze(source, basis)
    est = [(float(k), coeffs.exponential_coeffs[int(k) - 1]) for k in np.round(rates)]
    return est, "", {"truncation_index": max_index}


_METHODS = {"decomposer": _fit_decomposer, "prony": _fit_prony, "oet": _fit_oet}


def run_compare(args):
    _check_positive(args, "horizon", "step")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    _check_sigma(*args.sigma)
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.max_index < 1:
        raise ValueError(f"--max-index must be at least 1, got {args.max_index}")
    truth, _ = _load_input_signal(args.input)
    if truth is None:
        raise ValueError("compare needs a JSON signal spec as --input")
    if not truth.terms:
        raise ValueError(f"{args.input}: the spec holds no terms; compare needs at least one")

    grid = _grid(args)
    rows = []
    diagnostics = []
    for sigma_index, sigma in enumerate(args.sigma):
        for trial in range(args.trials):
            seed = args.seed + 7919 * sigma_index + trial
            samples = synthesize_samples(truth, grid, noise_sigma=sigma, seed=seed)
            for method in args.methods:
                try:
                    est, flag, diag = _METHODS[method](args, truth, samples)
                except errors.TransientLabError as exc:
                    est, flag, diag = None, f"error:{type(exc).__name__}", {"error": str(exc)}
                diagnostics.append({"method": method, "sigma": sigma, "trial": trial,
                                    "returned_terms": len(est or ()), **diag})
                for index, (true_rate, true_coeff) in enumerate(truth.terms):
                    if est is not None and index < len(est):
                        est_rate, est_coeff = est[index]
                        row_flag = flag
                    else:
                        est_rate = est_coeff = math.nan
                        row_flag = flag or "missing"
                    rows.append((method, sigma, trial, index,
                                 true_rate, est_rate, true_coeff, est_coeff, row_flag))

    rows.sort(key=lambda r: (r[0], r[1], r[2], r[3]))
    _write_csv(COMPARE_COLUMNS, ([r[0], repr(float(r[1])), r[2], r[3],
                                 repr(float(r[4])), repr(float(r[5])),
                                 repr(float(r[6])), repr(float(r[7])), r[8]] for r in rows),
               args.output)
    if args.diagnostics_out:
        _write_json(diagnostics, args.diagnostics_out)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

# flags that several verbs declare, each with its one default
_SHARED_FLAGS = {
    "--input": dict(help="input file (signal spec .json or samples .csv)"),
    "--output": dict(help="output file (stdout when omitted)"),
    "--seed": dict(type=int, default=0),
    "--horizon": dict(type=float, default=40.0),
    "--step": dict(type=float, default=0.01),
    "--max-index": dict(type=int, default=8),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main() call.

    parse_args keeps no state between calls, and no verb mutates the shared
    list defaults (compare's --sigma, functionals' --rates).  No parser
    accepts a prefix of a flag for the flag, so each value has one spelling.
    """
    parser = argparse.ArgumentParser(
        prog="transient-lab",
        allow_abbrev=False,
        description="Decompose transient signals into decaying exponentials.",
        epilog=__doc__.split("Exit codes")[1].join(["Exit codes", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def verb(name, run, summary, *shared):
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        p.set_defaults(run=run)
        for flag in shared:
            p.add_argument(flag, **_SHARED_FLAGS[flag])
        return p

    p = verb("synth", run_synth, "sample a signal spec onto a grid",
             "--input", "--output", "--seed", "--horizon", "--step")
    p.add_argument("--sigma", type=float, default=0.0)

    p = verb("decompose", run_decompose, "extract (rate, coeff) terms",
             "--input", "--output")

    p = verb("oet", run_oet, "orthogonal exponential transform analysis",
             "--input", "--output", "--max-index")
    p.add_argument("--basis-out", help="also export the basis coefficient table as CSV")

    p = verb("prony", run_prony, "classical Prony baseline fit", "--input", "--output")
    p.add_argument("--order", type=int, default=2)

    p = verb("functionals", run_functionals, "emit biorthogonality matrices as CSV", "--output")
    p.add_argument("--rates", type=float, nargs="*", default=[])
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--horizon", type=float, default=60.0)

    p = verb("compare", run_compare, "method comparison sweep over noise levels",
             "--input", "--output", "--seed", "--horizon", "--step", "--max-index")
    p.add_argument("--methods", nargs="+", required=True, choices=sorted(_METHODS))
    p.add_argument("--sigma", type=float, nargs="+", default=[0.0])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--diagnostics-out", help="sidecar JSON with per-run method diagnostics")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except errors.TransientLabError as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
