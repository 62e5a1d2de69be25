"""Command-line front end: synthesis, fitting, and method comparison sweeps.

Every run is deterministic for a fixed configuration: seeds derive from the
--seed flag alone, output rows are sorted before writing, and floats are
serialized with shortest round-trip repr, so identical invocations produce
byte-identical files.

Exit codes (also shown in --help):
    0  success
    2  command-line usage error
    3  unreadable or malformed input file
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
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from . import errors
from .decomposer import StoppingPolicy, decompose_exact, decompose_numeric
from .functionals import monomial_functional_matrix, rate_functional_matrix
from .oet_jacobi import build_exponential_basis, oet_analyze, save_basis_table_csv
from .prony_baseline import prony_fit
from .quadrature import QuadratureConfig
from .signal_core import (SignalSource, load_samples_csv, load_signal_spec,
                          save_samples_csv, synthesize_samples)
from .tail_limits import TailFitConfig

_EXIT_CODES = (
    (errors.RankDeficient, 7),
    (errors.GammaPole, 8),
    ((errors.SignalVanished, errors.NonDecaying, errors.Diverging), 5),
    ((errors.OutOfSupport, errors.QuadratureFailure), 4),
)

# --config sections, each mirroring the config type whose fields it may set
_CONFIG_SECTIONS = {"tail": TailFitConfig, "stopping": StoppingPolicy,
                    "quadrature": QuadratureConfig}

COMPARE_COLUMNS = ("method", "sigma", "trial", "term_index",
                   "true_rate", "est_rate", "true_coeff", "est_coeff", "flag")


@dataclass
class RunConfig:
    """Everything one invocation needs, assembled from flags and --config."""

    command: str
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    tail: TailFitConfig = field(default_factory=lambda: TailFitConfig(fit_order="richardson_2"))
    stopping: StoppingPolicy = field(default_factory=StoppingPolicy)
    quadrature: QuadratureConfig = field(default_factory=QuadratureConfig)
    seed: int = 0
    sigmas: tuple = (0.0,)
    trials: int = 1
    methods: tuple = ()
    horizon: float = 40.0
    step: float = 0.01
    max_terms: Optional[int] = None
    max_index: int = 8
    order: int = 2
    rates: tuple = ()
    size: int = 10
    mode: str = "symbolic"
    diagnostics_path: Optional[str] = None
    basis_path: Optional[str] = None


def _load_json_config(path):
    """The --config object, with every section and key checked by name."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: top level must be a JSON object")
    for name, section in payload.items():
        if name not in _CONFIG_SECTIONS:
            raise ValueError(f"{path}: unknown section {name!r}; "
                             f"expected one of {sorted(_CONFIG_SECTIONS)}")
        if not isinstance(section, dict):
            raise ValueError(f"{path}: section {name!r} must be a JSON object")
        known = {f.name for f in fields(_CONFIG_SECTIONS[name])}
        for key in section:
            if key not in known:
                raise ValueError(f"{path}: section {name!r} has unknown key {key!r}")
    return payload


def build_run_config(args) -> RunConfig:
    overrides = _load_json_config(args.config) if getattr(args, "config", None) else {}
    kwargs = {name: dict(overrides.get(name, {})) for name in _CONFIG_SECTIONS}
    kwargs["tail"].setdefault("fit_order", "richardson_2")
    if getattr(args, "max_terms", None) is not None:
        kwargs["stopping"]["max_terms"] = args.max_terms
    sections = {}
    for name, kind in _CONFIG_SECTIONS.items():
        try:
            sections[name] = kind(**kwargs[name])
        except TypeError as exc:
            # a value of the wrong JSON type fails the type's own checks
            raise ValueError(f"{args.config}: section {name!r}: {exc}") from exc

    cfg = RunConfig(
        command=args.command,
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        tail=sections["tail"],
        stopping=sections["stopping"],
        quadrature=sections["quadrature"],
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", 1),
        horizon=getattr(args, "horizon", 40.0),
        step=getattr(args, "step", 0.01),
        max_terms=getattr(args, "max_terms", None),
        max_index=getattr(args, "max_index", 8),
        order=getattr(args, "order", 2),
        size=getattr(args, "size", 10),
        mode=getattr(args, "mode", "symbolic"),
        diagnostics_path=getattr(args, "diagnostics_out", None),
        basis_path=getattr(args, "basis_out", None),
    )
    if getattr(args, "sigma", None):
        cfg.sigmas = tuple(float(s) for s in args.sigma)
    if getattr(args, "methods", None):
        cfg.methods = tuple(args.methods)
    if getattr(args, "rates", None):
        cfg.rates = tuple(float(r) for r in args.rates)
    if cfg.horizon <= 0 or cfg.step <= 0:
        raise ValueError("--horizon and --step must be positive")
    if cfg.trials < 1:
        raise ValueError("--trials must be at least 1")
    return cfg


def _grid(cfg: RunConfig) -> np.ndarray:
    count = int(round(cfg.horizon / cfg.step)) + 1
    return np.linspace(0.0, cfg.step * (count - 1), count)


def _result_payload(result) -> dict:
    return {
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
        },
    }


def _write_json(payload, path):
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _finite_or_none(value):
    """JSON has no Inf or NaN; a non-finite number is written as null, and the
    output's flags say why (a singular Vandermonde matrix is duplicate_poles)."""
    return value if math.isfinite(value) else None


def _load_input_signal(cfg: RunConfig):
    """Spec JSON gives a symbolic signal; CSV gives samples."""
    if cfg.input_path is None:
        raise ValueError("this command needs --input")
    if cfg.input_path.endswith(".json"):
        return load_signal_spec(cfg.input_path), None
    return None, load_samples_csv(cfg.input_path)


# ---------------------------------------------------------------------------
# single-method verbs
# ---------------------------------------------------------------------------

def run_single(cfg: RunConfig) -> int:
    if cfg.command == "synth":
        spec, _ = _load_input_signal(cfg)
        if spec is None:
            raise ValueError("synth needs a JSON signal spec as --input")
        samples = synthesize_samples(spec, _grid(cfg), noise_sigma=cfg.sigmas[0], seed=cfg.seed)
        if cfg.output_path is None:
            raise ValueError("synth needs --output for the sample CSV")
        save_samples_csv(samples, cfg.output_path)
        return 0

    if cfg.command == "decompose":
        spec, samples = _load_input_signal(cfg)
        if spec is not None:
            result = decompose_exact(spec.canonicalize())
        else:
            source = SignalSource.from_sampled(samples)
            result = decompose_numeric(source, samples.support, cfg.tail, cfg.stopping)
        _write_json(_result_payload(result), cfg.output_path)
        return 0

    if cfg.command == "oet":
        spec, samples = _load_input_signal(cfg)
        source = (SignalSource.from_symbolic(spec) if spec is not None
                  else SignalSource.from_sampled(samples))
        basis = build_exponential_basis(cfg.max_index)
        if cfg.basis_path:
            save_basis_table_csv(basis, cfg.basis_path)
        coeffs = oet_analyze(source, basis, cfg.quadrature)
        _write_json({
            "max_index": cfg.max_index,
            "projections": list(coeffs.projections),
            "exponential_coeffs": list(coeffs.exponential_coeffs),
        }, cfg.output_path)
        return 0

    if cfg.command == "prony":
        spec, samples = _load_input_signal(cfg)
        if samples is None:
            raise ValueError("prony needs a sample CSV as --input")
        model = prony_fit(samples, cfg.order)
        _write_json({
            "order": model.order,
            "poles": list(model.poles),
            "rates": list(model.rates),
            "amplitudes": list(model.amplitudes),
            "vandermonde_condition": _finite_or_none(model.vandermonde_condition),
            "flags": list(model.flags),
            "rejected_roots": [repr(r) for r in model.rejected_roots],
        }, cfg.output_path)
        return 0

    if cfg.command == "functionals":
        rows = []
        if cfg.rates:
            matrix = rate_functional_matrix(
                cfg.rates, mode=cfg.mode,
                horizon=cfg.horizon if cfg.mode == "numeric" else None,
                cfg=TailFitConfig(fit_order="richardson_1"))
            for i in range(matrix.shape[0]):
                for j in range(matrix.shape[1]):
                    rows.append(("rate", i + 1, j + 1, repr(float(matrix[i, j]))))
        matrix = monomial_functional_matrix(cfg.size)
        for i in range(matrix.shape[0]):
            for j in range(matrix.shape[1]):
                rows.append(("monomial", i + 1, j + 1, repr(float(matrix[i, j]))))
        out = cfg.output_path
        handle = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
        try:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(["kind", "row", "col", "value"])
            writer.writerows(rows)
        finally:
            if out:
                handle.close()
        return 0

    raise ValueError(f"unknown command {cfg.command!r}")


# ---------------------------------------------------------------------------
# comparison sweep
# ---------------------------------------------------------------------------

def _fit_decomposer(cfg, truth, samples):
    source = SignalSource.from_sampled(samples)
    result = decompose_numeric(source, samples.support, cfg.tail, cfg.stopping)
    est = list(result.terms)
    diag = {"terminal_residual_norm": result.terminal_residual_norm,
            "termination_reason": result.termination_reason}
    return est, "", diag


def _fit_prony(cfg, truth, samples):
    model = prony_fit(samples, order=len(truth.terms))
    est = list(zip(model.rates, model.amplitudes))
    flag = ";".join(model.flags)
    return est, flag, {"vandermonde_condition": _finite_or_none(model.vandermonde_condition)}


def _fit_oet(cfg, truth, samples):
    rates = truth.rates
    if np.any(np.abs(rates - np.round(rates)) > 1e-9):
        return None, "out_of_model", {"truncation_index": cfg.max_index}
    max_index = max(cfg.max_index, int(np.round(rates.max())))
    basis = build_exponential_basis(max_index)
    source = SignalSource.from_sampled(samples)
    coeffs = oet_analyze(source, basis, cfg.quadrature)
    est = [(float(k), coeffs.exponential_coeffs[int(k) - 1]) for k in np.round(rates)]
    return est, "", {"truncation_index": max_index}


_METHODS = {"decomposer": _fit_decomposer, "prony": _fit_prony, "oet": _fit_oet}


def run_compare(cfg: RunConfig) -> int:
    truth, _ = _load_input_signal(cfg)
    if truth is None:
        raise ValueError("compare needs a JSON signal spec as --input")
    unknown = [m for m in cfg.methods if m not in _METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(_METHODS)}")

    grid = _grid(cfg)
    rows = []
    diagnostics = []
    for sigma_index, sigma in enumerate(cfg.sigmas):
        for trial in range(cfg.trials):
            seed = cfg.seed + 7919 * sigma_index + trial
            samples = synthesize_samples(truth, grid, noise_sigma=sigma, seed=seed)
            for method in cfg.methods:
                try:
                    est, flag, diag = _METHODS[method](cfg, truth, samples)
                except errors.TransientLabError as exc:
                    est, flag, diag = None, f"error:{type(exc).__name__}", {}
                diagnostics.append({"method": method, "sigma": sigma, "trial": trial, **diag})
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
    out = cfg.output_path
    handle = open(out, "w", encoding="utf-8", newline="") if out else sys.stdout
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(COMPARE_COLUMNS)
        for row in rows:
            writer.writerow([row[0], repr(float(row[1])), row[2], row[3],
                             repr(float(row[4])), repr(float(row[5])),
                             repr(float(row[6])), repr(float(row[7])), row[8]])
    finally:
        if out:
            handle.close()
    if cfg.diagnostics_path:
        _write_json(diagnostics, cfg.diagnostics_path)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on the first main() call.

    parse_args keeps no state between calls, and build_run_config copies
    the shared list defaults (--sigma, --methods, --rates) into tuples.
    """
    parser = argparse.ArgumentParser(
        prog="transient-lab",
        description="Decompose transient signals into decaying exponentials.",
        epilog=__doc__.split("Exit codes")[1].join(["Exit codes", ""]),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, output=True):
        p.add_argument("--input", help="input file (signal spec .json or samples .csv)")
        if output:
            p.add_argument("--output", help="output file (stdout when omitted)")
        p.add_argument("--config", help="JSON file with tail/stopping/quadrature overrides")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="sample a signal spec onto a grid")
    common(p)
    p.add_argument("--horizon", type=float, default=40.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--sigma", type=float, nargs="*", default=[0.0])

    p = sub.add_parser("decompose", help="extract (rate, coeff) terms")
    common(p)
    p.add_argument("--max-terms", type=int, default=None)

    p = sub.add_parser("oet", help="orthogonal exponential transform analysis")
    common(p)
    p.add_argument("--max-index", type=int, default=8)
    p.add_argument("--basis-out", help="also export the basis coefficient table as CSV")

    p = sub.add_parser("prony", help="classical Prony baseline fit")
    common(p)
    p.add_argument("--order", type=int, default=2)

    p = sub.add_parser("functionals", help="emit biorthogonality matrices as CSV")
    common(p)
    p.add_argument("--rates", type=float, nargs="*", default=[])
    p.add_argument("--size", type=int, default=10)
    p.add_argument("--mode", choices=["symbolic", "numeric"], default="symbolic")
    p.add_argument("--horizon", type=float, default=60.0)

    p = sub.add_parser("compare", help="method comparison sweep over noise levels")
    common(p)
    p.add_argument("--methods", nargs="*", default=[], choices=sorted(_METHODS))
    p.add_argument("--sigma", type=float, nargs="*", default=[0.0])
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--horizon", type=float, default=40.0)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--max-index", type=int, default=8)
    p.add_argument("--diagnostics-out", help="sidecar JSON with per-run method diagnostics")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = build_run_config(args)
        if cfg.command == "compare":
            return run_compare(cfg)
        return run_single(cfg)
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


if __name__ == "__main__":
    sys.exit(main())
