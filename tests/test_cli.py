import argparse
import collections
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import transient_lab
from transient_lab import cli
from transient_lab.cli import main
from transient_lab.quadrature import MAX_NODES

from conftest import sample_csv_texts

TWO_TERM = '{"terms": [{"rate": 1.0, "coeff": 2.0}, {"rate": 2.0, "coeff": 3.0}]}\n'


@pytest.fixture
def two_term_spec(tmp_path):
    path = tmp_path / "two_term.json"
    path.write_text(TWO_TERM)
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestSynthDecompose:
    def test_round_trip(self, tmp_path, two_term_spec):
        csv_path = tmp_path / "samples.csv"
        out_path = tmp_path / "result.json"
        assert run("synth", "--input", two_term_spec, "--output", csv_path,
                   "--horizon", 40.0, "--step", 0.01) == 0
        assert run("decompose", "--input", csv_path, "--output", out_path) == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["terms"]) == 2
        assert payload["terms"][0]["rate"] == pytest.approx(1.0, abs=1e-3)
        assert payload["terms"][0]["coeff"] == pytest.approx(2.0, abs=1e-3)
        assert payload["terms"][1]["rate"] == pytest.approx(2.0, abs=1e-3)

    def test_decompose_spec_runs_exact_mode(self, tmp_path, two_term_spec):
        out_path = tmp_path / "result.json"
        assert run("decompose", "--input", two_term_spec, "--output", out_path) == 0
        payload = json.loads(out_path.read_text())
        assert payload["terms"] == [{"rate": 1.0, "coeff": 2.0},
                                    {"rate": 2.0, "coeff": 3.0}]
        assert payload["diagnostics"]["per_term"][0]["mode"] == "exact"
        assert payload["diagnostics"]["min_terms"] is None

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{"rate": 2.0, "coeff": 1.0}, {"rate": 1.0, "coeff": 0.5}]}')
        assert run("decompose", "--input", path) == 3
        err = capsys.readouterr().err
        assert f"{path}: term 1: rates must be strictly increasing" in err

    def test_missing_input_is_usage_error(self, capsys):
        assert run("decompose") == 3
        assert "--input" in capsys.readouterr().err


class TestPronyAndOet:
    def test_prony_subcommand(self, tmp_path, two_term_spec):
        csv_path = tmp_path / "samples.csv"
        run("synth", "--input", two_term_spec, "--output", csv_path,
            "--horizon", 10.0, "--step", 0.5)
        out = tmp_path / "prony.json"
        assert run("prony", "--input", csv_path, "--order", 2, "--output", out) == 0
        payload = json.loads(out.read_text())
        assert payload["rates"][0] == pytest.approx(1.0, abs=1e-6)
        assert payload["rates"][1] == pytest.approx(2.0, abs=1e-6)
        assert payload["vandermonde_condition"] > 1.0

    def test_prony_duplicate_poles_write_strict_json(self, tmp_path):
        # these samples give a double pole, so the Vandermonde matrix is singular
        csv_path = tmp_path / "dup.csv"
        csv_path.write_text("t,x\n0,1\n1,1\n2,3\n3,-1\n4,0\n5,2\n")
        out = tmp_path / "prony.json"
        assert run("prony", "--input", csv_path, "--order", 2, "--output", out) == 0

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out.read_text(), parse_constant=refuse)
        assert payload["vandermonde_condition"] is None
        assert "duplicate_poles" in payload["flags"]

    def test_oet_subcommand(self, tmp_path, two_term_spec):
        out = tmp_path / "oet.json"
        assert run("oet", "--input", two_term_spec, "--max-index", 6,
                   "--output", out) == 0
        payload = json.loads(out.read_text())
        folded = payload["exponential_coeffs"]
        assert folded[0] == pytest.approx(2.0, abs=1e-6)
        assert folded[1] == pytest.approx(3.0, abs=1e-6)

    def test_rounded_timestamps_refused_with_the_deviation(self, tmp_path, capsys):
        # step 1/3 written with 6 decimals: the steps deviate by 2.0e-6 of their mean
        path = tmp_path / "rounded.csv"
        rows = [f"{k / 3:.6f},{2 * math.exp(-k / 3) + 3 * math.exp(-2 * k / 3)!r}"
                for k in range(31)]
        path.write_text("t,x\n" + "\n".join(rows) + "\n")
        assert run("prony", "--input", path, "--order", 2) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert "uniform" in err[0] and "2.0e-06" in err[0] and "1e-12" in err[0]

    def test_fine_grid_from_synth_is_uniform(self, tmp_path, two_term_spec):
        # 40001 nodes over 0..40: the nodes alone round by up to 4.8e-12 of a
        # step, which the uniform rule allows for
        samples, fit, result = (tmp_path / name for name in ("s.csv", "p.json", "d.json"))
        assert run("synth", "--input", two_term_spec, "--output", samples, "--horizon", 40,
                   "--step", 0.001) == 0
        assert run("prony", "--input", samples, "--order", 2, "--output", fit) == 0
        assert json.loads(fit.read_text())["rates"] == pytest.approx([1.0, 2.0], abs=1e-6)
        assert run("decompose", "--input", samples, "--output", result) == 0
        assert json.loads(result.read_text())["diagnostics"]["min_terms"] == 2

    def test_functionals_subcommand(self, tmp_path):
        out = tmp_path / "matrices.csv"
        assert run("functionals", "--rates", 0.5, 1.0, 2.0, "--size", 4,
                   "--output", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["kind", "row", "col", "value"]
        rate_rows = [r for r in rows[1:] if r[0] == "rate"]
        mono_rows = [r for r in rows[1:] if r[0] == "monomial"]
        assert len(rate_rows) == 9 and len(mono_rows) == 16
        for kind, i, j, value in rows[1:]:
            assert float(value) == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


class TestCompare:
    def test_three_methods_noiseless(self, tmp_path, two_term_spec):
        out = tmp_path / "compare.csv"
        assert run("compare", "--input", two_term_spec, "--methods", "decomposer",
                   "prony", "oet", "--sigma", 0.0, "--trials", 1,
                   "--horizon", 40.0, "--step", 0.01, "--output", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6   # 3 methods x 2 terms
        # oet reads the piecewise-linear interpolant through the quadrature,
        # so its coefficient budget is the interpolation error times the
        # basis fold amplification (about 1e-3 at step 0.01)
        rate_tol = {"decomposer": 1e-3, "prony": 1e-6, "oet": 1e-9}
        coeff_tol = {"decomposer": 1e-3, "prony": 1e-6, "oet": 5e-3}
        for row in rows:
            assert row["flag"] == ""
            assert abs(float(row["est_rate"]) - float(row["true_rate"])) <= rate_tol[row["method"]]
            assert abs(float(row["est_coeff"]) - float(row["true_coeff"])) <= coeff_tol[row["method"]]

    def test_byte_identical_reruns(self, tmp_path, two_term_spec):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["compare", "--input", str(two_term_spec), "--methods", "decomposer",
                "prony", "--sigma", "0.0", "0.001", "--trials", "3",
                "--seed", "11", "--horizon", "20.0", "--step", "0.02"]
        assert main(argv + ["--output", str(a)]) == 0
        assert main(argv + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_non_integer_rates_flag_oet_only(self, tmp_path):
        spec = tmp_path / "frac.json"
        spec.write_text('{"terms": [{"rate": 1.3, "coeff": 1.0}, {"rate": 2.7, "coeff": 1.0}]}')
        out = tmp_path / "compare.csv"
        assert run("compare", "--input", spec, "--methods", "decomposer", "prony",
                   "oet", "--horizon", 40.0, "--step", 0.01, "--output", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], []).append(row)
        assert all(r["flag"] == "out_of_model" for r in by_method["oet"])
        assert all(math.isnan(float(r["est_rate"])) for r in by_method["oet"])
        for method in ("decomposer", "prony"):
            for row in by_method[method]:
                assert row["flag"] == ""
                assert abs(float(row["est_rate"]) - float(row["true_rate"])) <= 1e-3

    def test_rate_past_the_basis_flags_oet_only(self, tmp_path, capsys):
        # the basis raised to rate 150 overflows the float range at element
        # 136; that trial's oet rows say so and the sweep goes on
        spec = tmp_path / "r150.json"
        spec.write_text('{"terms": [{"rate": 1.0, "coeff": 2.0}, {"rate": 150.0, "coeff": 3.0}]}')
        out = tmp_path / "compare.csv"
        assert run("compare", "--input", spec, "--methods", "decomposer", "prony",
                   "oet", "--sigma", 0.0, "--trials", 1, "--output", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_method = {}
        for row in rows:
            by_method.setdefault(row["method"], []).append(row)
        assert [r["flag"] for r in by_method["oet"]] == ["out_of_model"] * 2
        assert all(math.isnan(float(r["est_rate"])) for r in by_method["oet"])
        for method in ("decomposer", "prony"):
            assert len(by_method[method]) == 2
            for row in by_method[method]:
                assert row["flag"] == ""
                assert abs(float(row["est_rate"]) - float(row["true_rate"])) <= 1e-9
        # a --max-index the basis cannot hold is still refused
        assert run("compare", "--input", spec, "--methods", "oet", "--max-index", 200,
                   "--output", tmp_path / "refused.csv") == 3
        assert "element 136" in capsys.readouterr().err

    def test_refused_basis_rows_are_built_once(self, tmp_path, monkeypatch):
        # every trial of rates (1, 150) asks for a basis past element 135;
        # the rows up to the one that overflows are built once over all 40
        from transient_lab import oet_jacobi

        built = collections.Counter()
        real = oet_jacobi.jacobi_monomial_coeffs

        def counting(params, n):
            built[n] += 1
            return real(params, n)

        monkeypatch.setattr(oet_jacobi, "jacobi_monomial_coeffs", counting)
        oet_jacobi.build_exponential_basis.cache_clear()
        oet_jacobi._element_row.cache_clear()
        spec = tmp_path / "r150.json"
        spec.write_text('{"terms": [{"rate": 1.0, "coeff": 2.0}, {"rate": 150.0, "coeff": 3.0}]}')
        out = tmp_path / "compare.csv"
        assert run("compare", "--input", spec, "--methods", "oet", "--trials", 20,
                   "--sigma", 0.0, 1e-3, "--output", out) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 80 and {r["flag"] for r in rows} == {"out_of_model"}
        assert sorted(built) == list(range(136))
        assert set(built.values()) == {1}

    @pytest.mark.parametrize("methods", [("oet",), ("prony",), ("decomposer",),
                                         ("decomposer", "prony", "oet")])
    def test_spec_without_terms_refused(self, tmp_path, capsys, methods):
        spec = tmp_path / "empty.json"
        spec.write_text('{"terms": []}')
        out = tmp_path / "compare.csv"
        assert run("compare", "--input", spec, "--methods", *methods, "--output", out) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "holds no terms" in err
        assert not out.exists()

    @pytest.mark.parametrize("methods", [(), ("--methods",)], ids=["omitted", "empty"])
    def test_no_method_is_a_usage_error(self, tmp_path, two_term_spec, capsys, methods):
        # a sweep with no method would write a header-only table
        out = tmp_path / "empty.csv"
        with pytest.raises(SystemExit) as exc:
            run("compare", "--input", two_term_spec, *methods, "--output", out)
        assert exc.value.code == 2
        assert "--methods" in capsys.readouterr().err
        assert not out.exists()

    def test_diagnostics_sidecar(self, tmp_path, two_term_spec):
        out = tmp_path / "compare.csv"
        diag = tmp_path / "diag.json"
        assert run("compare", "--input", two_term_spec, "--methods", "prony",
                   "--horizon", 10.0, "--step", 0.5, "--output", out,
                   "--diagnostics-out", diag) == 0
        payload = json.loads(diag.read_text())
        assert payload[0]["method"] == "prony"
        assert payload[0]["vandermonde_condition"] > 1.0


    def test_diagnostics_sidecar_counts_what_each_method_returned(self, tmp_path):
        # rates 1 and 1.1 under noise: the decomposer returns another count
        # than the spec's two terms; the CSV shows two rows, the sidecar the
        # count, noise level and whole-grid rms decompose_numeric returns for
        # that very sample set
        diag, spec = tmp_path / "diag.json", tmp_path / "close.json"
        spec.write_text('{"terms": [{"rate": 1.0, "coeff": 2.0}, {"rate": 1.1, "coeff": 3.0}]}')
        assert run("compare", "--input", spec, "--methods", "decomposer",
                   "prony", "oet", "--sigma", 1e-6, "--seed", 3,
                   "--output", tmp_path / "compare.csv", "--diagnostics-out", diag) == 0
        entries = {entry["method"]: entry for entry in json.loads(diag.read_text())}
        returned = {method: entry["returned_terms"] for method, entry in entries.items()}
        samples = transient_lab.synthesize_samples(
            transient_lab.load_signal_spec(spec), np.linspace(0.0, 40.0, 4001),
            noise_sigma=1e-6, seed=3)
        result = transient_lab.decompose_numeric(
            transient_lab.SignalSource.from_sampled(samples), samples.support)
        assert returned["decomposer"] == len(result.terms) != 2
        assert entries["decomposer"]["noise_sigma"] == result.noise_sigma > 0.0
        assert entries["decomposer"]["residual_rms"] == result.residual_rms > 0.0
        assert returned["prony"] == 2
        assert returned["oet"] == 0        # rate 1.1 is out of the OET's model

    @pytest.mark.parametrize("sigma, horizon, step", [
        (1e-2, 40.0, 0.5),  # no tail window above the noise holds 8 samples
        (0.0, 11.0, 1.0),   # no tail window of the grid holds 8 samples
        (0.0, 1.0, 0.5),    # three nodes: too few for Prony as well
    ])
    def test_too_few_samples_is_the_error_of_one_trial(self, tmp_path, two_term_spec,
                                                       sigma, horizon, step):
        # each decomposition is refused; the sweep goes on to the next
        # method and trial
        out, diag = tmp_path / "compare.csv", tmp_path / "diag.json"
        assert run("compare", "--input", two_term_spec, "--methods", "decomposer", "prony",
                   "--sigma", sigma, "--trials", 2, "--horizon", horizon, "--step", step,
                   "--output", out, "--diagnostics-out", diag) == 0
        with open(out, newline="") as fh:
            flags = {(row["method"], row["flag"]) for row in csv.DictReader(fh)}
        assert ("decomposer", "error:TooFewSamples") in flags
        assert {method for method, _ in flags} == {"decomposer", "prony"}
        if horizon / step + 1 < 4:
            # prony_fit needs four samples for two terms
            assert ("prony", "error:TooFewSamples") in flags
        errors = [entry["error"] for entry in json.loads(diag.read_text())
                  if entry["method"] == "decomposer"]
        assert len(errors) == 2
        assert all("too few samples" in error for error in errors)

    def test_diagnostics_sidecar_keeps_the_error_message(self, tmp_path, two_term_spec,
                                                         monkeypatch):
        def failing(samples, order):
            raise transient_lab.RankDeficient("no usable rank at order 2")

        monkeypatch.setattr(cli, "prony_fit", failing)
        out, diag = tmp_path / "compare.csv", tmp_path / "diag.json"
        assert run("compare", "--input", two_term_spec, "--methods", "prony",
                   "--horizon", 10.0, "--step", 0.5, "--output", out,
                   "--diagnostics-out", diag) == 0
        entry, = json.loads(diag.read_text())
        assert entry["error"] == "no usable rank at order 2"
        assert entry["returned_terms"] == 0
        with open(out, newline="") as fh:
            assert {row["flag"] for row in csv.DictReader(fh)} == {"error:RankDeficient"}

    def test_diagnostics_sidecar_writes_infinite_condition_as_null(self, tmp_path,
                                                                  two_term_spec, monkeypatch):
        real = cli.prony_fit

        def singular(samples, order):
            return dataclasses.replace(real(samples, order), vandermonde_condition=math.inf,
                                       flags=("duplicate_poles",))

        monkeypatch.setattr(cli, "prony_fit", singular)
        diag = tmp_path / "diag.json"
        assert run("compare", "--input", two_term_spec, "--methods", "prony",
                   "--horizon", 10.0, "--step", 0.5, "--output", tmp_path / "compare.csv",
                   "--diagnostics-out", diag) == 0
        assert "Infinity" not in diag.read_text()
        assert json.loads(diag.read_text())[0]["vandermonde_condition"] is None

class TestConfigPlumbing:
    def test_quadrature_nodes_flag_changes_oet_projections(self, tmp_path, two_term_spec):
        # oet reads a sampled input through its interpolant, which no node
        # count integrates exactly, so the node count shows in the output
        csv_path = tmp_path / "samples.csv"
        assert run("synth", "--input", two_term_spec, "--output", csv_path,
                   "--horizon", 40.0, "--step", 0.01) == 0
        default, coarse = tmp_path / "default.json", tmp_path / "coarse.json"
        assert run("oet", "--input", csv_path, "--output", default) == 0
        assert run("oet", "--input", csv_path, "--quadrature-nodes", 64, "--output", coarse) == 0
        default_proj = json.loads(default.read_text())["projections"]
        coarse_proj = json.loads(coarse.read_text())["projections"]
        assert coarse_proj != default_proj
        assert np.allclose(coarse_proj, default_proj, rtol=0.0, atol=1e-5)

    def test_compare_passes_the_flag_to_oet(self, tmp_path, two_term_spec):
        def sweep(name, *flags):
            out = tmp_path / f"{name}.csv"
            assert run("compare", "--input", two_term_spec, "--methods", "oet", *flags,
                       "--output", out) == 0
            return out.read_bytes()

        assert sweep("flags", "--quadrature-nodes", 64) != sweep("default")

    @pytest.mark.parametrize("argv, flag", [
        (("oet", "--quadrature-nodes", "1"), "--quadrature-nodes"),
        (("compare", "--methods", "oet", "--quadrature-nodes", "100000"), "--quadrature-nodes"),
        (("synth", "--seed", "-1"), "--seed"),
        (("compare", "--methods", "prony", "--seed", "-1"), "--seed"),
    ], ids=" ".join)
    def test_refused_value_names_the_flag_before_any_input_is_read(self, tmp_path, capsys,
                                                                   argv, flag):
        # the input does not exist: the flag is checked first
        out = tmp_path / "out"
        assert run(*argv, "--input", tmp_path / "missing.json", "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {flag} ")
        assert "missing" not in err[0] and not out.exists()

    @pytest.mark.parametrize("argv", [
        ("synth", "--seed", "-1"),
        ("synth", "--seed", "-1", "--sigma", "1e-3"),
        ("compare", "--methods", "decomposer", "--seed", "-7919", "--sigma", "0", "1e-3"),
        ("compare", "--methods", "decomposer", "--seed", "-7919", "--sigma", "1e-3", "0"),
    ], ids=" ".join)
    def test_negative_seed_is_refused_whatever_the_noise(self, tmp_path, capsys,
                                                         two_term_spec, argv):
        # compare seeds trial t at noise level i with seed + 7919 i + t, so
        # which levels draw from a negative seed depends on --sigma
        out = tmp_path / "out"
        assert run(*argv, "--input", two_term_spec, "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --seed ")
        assert not out.exists()

    @pytest.mark.parametrize("verb, defaults", [
        (("oet",), ("--quadrature-nodes", 128)),
        (("compare", "--methods", "decomposer", "prony", "oet", "--sigma", 0, 1e-4),
         ("--quadrature-nodes", 128)),
    ], ids=["oet", "compare"])
    def test_no_flag_writes_what_the_explicit_defaults_write(self, tmp_path, two_term_spec,
                                                             verb, defaults):
        # oet reads the samples, compare its spec
        csv_path = tmp_path / "samples.csv"
        assert run("synth", "--input", two_term_spec, "--output", csv_path,
                   "--horizon", 40.0, "--step", 0.01, "--sigma", 1e-5) == 0
        source = two_term_spec if verb[0] == "compare" else csv_path
        bare, explicit = tmp_path / "bare", tmp_path / "explicit"
        assert run(*verb, "--input", source, "--output", bare) == 0
        assert run(*verb, "--input", source, *defaults, "--output", explicit) == 0
        assert bare.read_bytes() == explicit.read_bytes()

    def test_bundled_example_file(self, tmp_path):
        out = tmp_path / "result.json"
        assert run("decompose", "--input", "data/two_term.json", "--output", out) == 0
        assert len(json.loads(out.read_text())["terms"]) == 2


class TestAuxiliaryExports:
    def test_oet_basis_table_export(self, tmp_path, two_term_spec):
        basis_csv = tmp_path / "basis.csv"
        assert run("oet", "--input", two_term_spec, "--max-index", 3,
                   "--basis-out", basis_csv) == 0
        # the triangular table, element n holding rates 1..n; sqrt(2) leads it
        assert basis_csv.read_bytes() == (b"element,rate,coeff\n"
                                          b"1,1,1.4142135623730951\n"
                                          b"2,1,-4.0\n"
                                          b"2,2,6.0\n"
                                          b"3,1,7.3484692283495345\n"
                                          b"3,2,-29.393876913398138\n"
                                          b"3,3,24.494897427831784\n")

    def test_oet_basis_table_export_same_from_the_kept_basis(self, tmp_path, two_term_spec):
        # the second run reads the basis kept by the first; both write what a
        # basis built for the call writes
        fresh = transient_lab.build_exponential_basis.__wrapped__(8)
        want = "element,rate,coeff\n" + "".join(
            f"{n},{k},{float(c)!r}\n"
            for n, row in enumerate(fresh.coeff_table, 1) for k, c in enumerate(row, 1))
        for i in range(2):
            basis_csv = tmp_path / f"basis{i}.csv"
            assert run("oet", "--input", two_term_spec, "--basis-out", basis_csv,
                       "--output", tmp_path / f"oet{i}.json") == 0
            assert basis_csv.read_bytes() == want.encode()
        assert (tmp_path / "oet0.json").read_bytes() == (tmp_path / "oet1.json").read_bytes()

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "Exit codes" in out
        assert "RankDeficient" in out
        # nothing raises a rate collision: it is a termination reason
        assert "RateCollision" not in out
        assert "\n    6 " not in out


class TestParserReuse:
    def test_reused_parser_matches_a_fresh_one(self, tmp_path, two_term_spec):
        # list defaults (--sigma [0.0], --rates []) are one object per cached parser
        calls = [("functionals", "--rates", 1, 2), ("functionals",),
                 ("synth", "--input", two_term_spec, "--horizon", 2.0, "--sigma", 1e-3),
                 ("synth", "--input", two_term_spec, "--horizon", 2.0)]
        for i, argv in enumerate(calls):
            assert run(*argv, "--output", tmp_path / f"reused{i}") == 0
        assert cli._build_parser.cache_info().currsize == 1
        for i, argv in enumerate(calls):
            cli._build_parser.cache_clear()
            assert run(*argv, "--output", tmp_path / f"fresh{i}") == 0
        outputs = [(tmp_path / f"reused{i}").read_bytes() for i in range(len(calls))]
        assert outputs == [(tmp_path / f"fresh{i}").read_bytes() for i in range(len(calls))]
        assert outputs[0] != outputs[1] and outputs[2] != outputs[3]

    def test_import_builds_no_parser(self):
        code = ("import transient_lab, transient_lab.cli as cli; "
                "print(cli._build_parser.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(transient_lab.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "0"


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("verb", [("decompose",), ("prony", "--order", 2),
                                      ("oet", "--max-index", 4)],
                             ids=["decompose", "prony", "oet"])
    def test_rejected_with_one_line_error(self, tmp_path, two_term_spec, capsys, verb, bad):
        csv_path = tmp_path / "samples.csv"
        run("synth", "--input", two_term_spec, "--output", csv_path,
            "--horizon", 20.0, "--step", 0.01)
        lines = csv_path.read_text().splitlines()
        row = len(lines) // 2
        lines[row] = lines[row].split(",")[0] + "," + bad
        csv_path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run(verb[0], "--input", csv_path, *verb[1:],
                   "--output", tmp_path / "out.json") == 3
        err = capsys.readouterr().err
        assert "finite" in err and str(csv_path) in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out.json").exists()


# 200 samples of exp(-t) at step 1e-200: valid input whose tail nodes are too
# close together for a line fit, since their spread squares to zero
TINY_STEP_CSV = "t,x\n" + "".join(f"{k * 1e-200!r},{math.exp(-k * 1e-200)!r}\n"
                                   for k in range(200))
# 4001 samples on 0..40 of 1e308 e^-t that flips sign at t = 20: valid input
# on which the decomposer's residual once overflowed
_FLIP_T = np.linspace(0.0, 40.0, 4001)
FLIP_CSV = "t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in zip(
    _FLIP_T.tolist(), (np.where(_FLIP_T < 20.0, 1e308, -1e308) * np.exp(-_FLIP_T)).tolist()))
# the same nodes of 1.6e308 (e^-t - e^-1.01t): the terms the decomposer
# invents overflow at the scale of the input
PAIR_CSV = "t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in zip(
    _FLIP_T.tolist(), (1.6e308 * (np.exp(-_FLIP_T) - np.exp(-1.01 * _FLIP_T))).tolist()))
# nine samples of 2 e^-(t-710) + 3 e^-2(t-710) from t = 710: Prony's amplitudes
# at t = 0 overflow
LATE_START_CSV = "t,x\n" + "".join(
    f"{t!r},{2.0 * math.exp(710.0 - t) + 3.0 * math.exp(2.0 * (710.0 - t))!r}\n"
    for t in map(float, range(710, 719)))
# the documented exit codes a file verb may return (2 is argparse's, not reachable here)
DOCUMENTED_EXITS = {0, 3, 4, 5, 7, 8}
_EXTREME = st.one_of(st.floats(-1e308, 1e308), st.floats(-10.0, 10.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))


@given(text=sample_csv_texts(numbers=_EXTREME, min_rows=1, max_rows=9))
@example(text="t,x\r0.5,2.411809324612532e+307\r9.5,1.8387235069353016e+296")
@example(text="t,x\n0.0,-1e+308\n8.38,-9.9e+303\n16.76,-9.8e+299\n25.14,-9.7e+295\n")
@example(text="t,x\n0.0,1e+308\n1.0,-1e+308\n2.0,1e+308\n3.0,-1e+308\n4.0,1e+308\n")
@example(text=TINY_STEP_CSV)
@example(text=FLIP_CSV)
@example(text=PAIR_CSV)
@example(text=LATE_START_CSV)
@settings(max_examples=60)
def test_file_verbs_keep_the_exit_contract(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "samples.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _check_exit_contract(path, folder / "out.json",
                         (("decompose",), ("prony", "--order", 2), ("oet", "--max-index", 4)))


def test_decompose_refuses_a_tail_window_of_too_few_samples(tmp_path, capsys):
    # the widest tail window, t = 714..718, holds 5 samples: too few to fit,
    # which is not a vanished signal
    path, out = tmp_path / "samples.csv", tmp_path / "out.json"
    path.write_text(LATE_START_CSV)
    assert run("decompose", "--input", path, "--output", out) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: support holds too few samples: at most 5 in a tail window, need 8"]
    assert not out.exists()


def test_decompose_refuses_horizons_before_the_noise_end_of_too_few_samples(tmp_path, capsys):
    # 17 samples on t = 710..726: the horizons at or before the noise end
    # (t = 722) hold at most 7 samples in their tail windows
    path, out = tmp_path / "samples.csv", tmp_path / "out.json"
    path.write_text("t,x\n" + "".join(
        f"{t!r},{2.0 * math.exp(710.0 - t) + 3.0 * math.exp(2.0 * (710.0 - t))!r}\n"
        for t in map(float, range(710, 727))))
    assert run("decompose", "--input", path, "--output", out) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: support holds too few samples: at most 7 in a tail window "
                   "at or before the noise end, need 8"]
    assert not out.exists()


@pytest.mark.parametrize("step, sigma, refits", [
    (0.01, 1e-2, True),     # the default grid at the highest noise of the sweeps
    (0.5, 1e-4, True),      # a coarse grid: one term found, refitted, not enough
    (0.5, 1e-2, False),     # no tail window above the noise holds 8 samples: exit 3
])
def test_noisy_decompose_keeps_the_exit_contract(tmp_path, capfd, refit_sizes, two_term_spec,
                                                 step, sigma, refits):
    # the joint refit runs wherever the extraction finds a term; whatever it
    # meets, it raises no warning and lets LAPACK print nothing to the
    # stderr descriptor
    path = tmp_path / "samples.csv"
    for seed in range(5):
        assert run("synth", "--input", two_term_spec, "--horizon", 40.0, "--step", step,
                   "--sigma", sigma, "--seed", seed, "--output", path) == 0
        _check_run(("decompose", "--input", path, "--output", tmp_path / "out.json"),
                   DOCUMENTED_EXITS)
    assert bool(refit_sizes) == refits
    assert capfd.readouterr().err == ""


def test_noisy_decompose_reports_its_fit(tmp_path, two_term_spec):
    # at seed 0 the extraction stops at one term, which no refit lifts to
    # two (ROADMAP item 3); seed 1 reaches the noise stop
    path, out = tmp_path / "samples.csv", tmp_path / "out.json"
    assert run("synth", "--input", two_term_spec, "--horizon", 40.0, "--step", 0.01,
               "--sigma", 1e-4, "--seed", 1, "--output", path) == 0
    assert run("decompose", "--input", path, "--output", out) == 0
    payload = json.loads(out.read_text())
    diagnostics = payload["diagnostics"]
    assert diagnostics["termination_reason"] == "residual_floor"
    assert [term["mode"] for term in diagnostics["per_term"]] == ["refit", "refit"]
    assert diagnostics["noise_sigma"] == pytest.approx(1e-4, rel=0.1)
    assert diagnostics["residual_rms"] <= 1.5 * diagnostics["noise_sigma"]
    assert diagnostics["min_terms"] == 2
    assert [term["rate"] for term in payload["terms"]] == pytest.approx([1.0, 2.0], abs=1e-3)


def test_decompose_reads_dense_early_samples_before_a_sparse_tail(tmp_path):
    # the whole support's tail window, t = 50..100, holds one sample, but the
    # horizons the decomposer fits end near t = 8, where the samples are dense
    ts = [round(0.01 * i, 2) for i in range(1001)] + [100.0]
    rows = "".join(f"{t!r},{2.0 * math.exp(-t) + 3.0 * math.exp(-2.0 * t)!r}\n" for t in ts)
    path, out = tmp_path / "samples.csv", tmp_path / "out.json"
    path.write_text("t,x\n" + rows)
    assert run("decompose", "--input", path, "--output", out) == 0
    payload = json.loads(out.read_text())
    terms = payload["terms"]
    # the grid is not uniform, so the Hankel bound reads nothing
    assert payload["diagnostics"]["min_terms"] is None
    assert [t["rate"] for t in terms] == pytest.approx([1.0, 2.0], rel=1e-9)
    assert [t["coeff"] for t in terms] == pytest.approx([2.0, 3.0], rel=1e-9)


def test_decompose_measures_the_noise_of_samples_near_the_float_max(tmp_path, capfd):
    # fourth differences of these samples once overflowed: two numpy warnings
    # on stderr, and noise_sigma written as null
    ts = np.linspace(0.0, 40.0, 4001)
    values = 1e308 * np.exp(-0.01 * ts) * (1.0 + 0.7 * (-1.0) ** np.arange(len(ts)))
    path, out = tmp_path / "samples.csv", tmp_path / "out.json"
    path.write_text("t,x\n" + "".join(f"{t!r},{x!r}\n" for t, x in zip(ts.tolist(),
                                                                       values.tolist())))
    assert run("decompose", "--input", path, "--output", out) == 0
    assert capfd.readouterr().err == ""
    diagnostics = json.loads(out.read_text())["diagnostics"]
    assert diagnostics["noise_sigma"] == pytest.approx(2.94e307, rel=1e-3)
    assert diagnostics["min_terms"] == 1


def test_prony_refuses_amplitudes_past_the_float_range(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    path.write_text(LATE_START_CSV)
    assert run("prony", "--input", path, "--order", 2, "--output", tmp_path / "out.json") == 5
    err = capsys.readouterr().err
    assert err.startswith("error: Diverging: the amplitudes overflow") and err.count("\n") == 1


def _check_exit_contract(path, out, verbs, exits=DOCUMENTED_EXITS):
    """Each verb on the input file exits with one of exits, writes at most
    one line to stderr and raises no warning."""
    for verb in verbs:
        _check_run((verb[0], "--input", path, *verb[1:], "--output", out), exits)


def _check_run(argv, exits):
    """Run argv; check its exit code is in exits, and that it writes at most
    one line to stderr (argparse's usage and error line on exit 2) and
    raises no warning."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = run(*argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().strip().splitlines()
    assert code in exits, (argv, err.getvalue())
    if code == 2:
        assert lines[-1].startswith("transient-lab") and ": error: " in lines[-1], lines
    else:
        assert len(lines) <= 1, lines
    # a shell run would print each warning on stderr as well
    assert not [str(w.message) for w in caught], argv


class TestVerbFlags:
    # each verb declares only the flags it reads, so a flag it would ignore is refused
    @pytest.mark.parametrize("argv", [
        ("synth", "--config", "c.json"), ("decompose", "--seed", "1"), ("oet", "--seed", "1"),
        ("prony", "--config", "c.json"), ("prony", "--seed", "1"),
        ("functionals", "--input", "s.json"), ("functionals", "--seed", "1"),
        ("functionals", "--config", "c.json"), ("decompose", "--config", "c.json"),
        ("oet", "--config", "c.json"), ("compare", "--methods", "oet", "--config", "c.json"),
        ("oet", "--horizon", "10"), ("oet", "--max-terms", "1"),
        ("decompose", "--quadrature-nodes", "64"), ("prony", "--max-terms", "1"),
        ("synth", "--max-terms", "1"), ("functionals", "--quadrature-nodes", "64"),
        ("synth", "--sigma", "0", "0.1"), ("compare", "--sigma"),
        ("decompose", "--fit-order", "richardson_1"),
        ("compare", "--methods", "decomposer", "--fit-order", "slope_fit"),
        ("decompose", "--max-terms", "1"),
        ("compare", "--methods", "decomposer", "--max-terms", "1"),
    ], ids=" ".join)
    def test_flag_the_verb_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("oet", "--quad", "1"), ("decompose", "--max-t", "1"),
        ("decompose", "--inp", "s.csv"), ("compare", "--methods", "oet", "--tri", "2"),
    ], ids=" ".join)
    def test_prefix_of_a_flag_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_no_parser_matches_flag_prefixes(self):
        # a verb added later inherits nothing from the top-level parser, so
        # each one is checked, whichever verbs there are
        parser = cli._build_parser()
        verbs = next(action.choices for action in parser._actions
                     if isinstance(action, argparse._SubParsersAction))
        assert verbs
        assert parser.allow_abbrev is False
        assert {name: sub.allow_abbrev for name, sub in verbs.items()} == dict.fromkeys(
            verbs, False)

    @pytest.mark.parametrize("bad", ["inf", "nan", "0"])
    @pytest.mark.parametrize("argv, flag", [
        (("synth",), "--horizon"), (("synth",), "--step"),
        (("compare", "--methods", "prony"), "--horizon"),
        (("compare", "--methods", "prony"), "--step"),
        (("functionals", "--rates", "1", "2"), "--horizon"),
        (("functionals", "--rates", "1", "2", "--mode", "numeric"), "--horizon"),
    ], ids=["synth-horizon", "synth-step", "compare-horizon", "compare-step",
            "functionals-symbolic", "functionals-numeric"])
    def test_non_finite_or_non_positive_grid_flag_refused(self, tmp_path, two_term_spec, capsys,
                                                          argv, flag, bad):
        spec = () if argv[0] == "functionals" else ("--input", two_term_spec)
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(*argv, *spec, flag, bad, "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0]
        assert not caught and not out.exists()

    @pytest.mark.parametrize("verb", ["oet", "compare"])
    @pytest.mark.parametrize("bad", ["0", "-3"])
    def test_non_positive_max_index_refused(self, tmp_path, two_term_spec, capsys, verb, bad):
        methods = ("--methods", "oet") if verb == "compare" else ()
        out = tmp_path / "out"
        assert run(verb, "--input", two_term_spec, *methods, "--max-index", bad,
                   "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "max" in err[0] and "index" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("horizon, step", [("1e300", "1e-10"), ("1e6", "1e-6")])
    @pytest.mark.parametrize("verb", [("synth",), ("compare", "--methods", "prony")],
                             ids=["synth", "compare"])
    def test_grid_past_the_node_limit_refused(self, tmp_path, two_term_spec, capsys,
                                              verb, horizon, step):
        # refused before any node is allocated: 1e12 nodes would need 8 TB
        out = tmp_path / "out"
        assert run(*verb, "--input", two_term_spec, "--horizon", horizon, "--step", step,
                   "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--horizon" in err[0] and "--step" in err[0]
        assert not out.exists()

    def test_synth_without_output_refused_before_sampling(self, two_term_spec, capsys,
                                                          monkeypatch):
        # a grid may hold up to 1e7 nodes: none is sampled for a run that has
        # nowhere to write them
        def sampled(*args, **kwargs):
            raise AssertionError("synth sampled with no --output")

        monkeypatch.setattr(cli, "synthesize_samples", sampled)
        assert run("synth", "--input", two_term_spec, "--horizon", 2, "--step", 0.5) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--output" in err[0]

    @pytest.mark.parametrize("argv", [("synth", "--sigma", "nan"), ("synth", "--sigma", "inf"),
                                      ("compare", "--methods", "prony", "--sigma", "0", "nan")],
                             ids=" ".join)
    def test_non_finite_sigma_refused(self, tmp_path, two_term_spec, capsys, argv):
        out = tmp_path / "out.csv"
        assert run(*argv, "--input", two_term_spec, "--horizon", 2, "--step", 0.5,
                   "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "noise_sigma" in err[0] and argv[-1] in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv, flag", [
        (("--size", "-3"), "--size"), (("--size", "0"), "--size"),
        (("--size", "101"), "--size"), (("--size", "100000"), "--size"),
        (("--rates", *map(str, range(1, 102))), "--rates"),
    ], ids=["size-negative", "size-zero", "size-101", "size-100000", "rates-101"])
    def test_functionals_matrix_past_its_bound_refused(self, tmp_path, capsys, argv, flag):
        # refused before any matrix is allocated: --size 100000 would need 75 GiB
        out = tmp_path / "out.csv"
        assert run("functionals", *argv, "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and flag in err[0] and str(cli.MAX_MATRIX_SIZE) in err[0]
        assert not out.exists()

    def test_functionals_matrix_at_its_bound_runs(self, tmp_path):
        out = tmp_path / "out.csv"
        assert run("functionals", "--size", cli.MAX_MATRIX_SIZE, "--output", out) == 0
        assert len(out.read_text().splitlines()) == 1 + cli.MAX_MATRIX_SIZE ** 2

    def test_numeric_rate_near_the_float_limit_warns_nothing(self, tmp_path):
        # the numeric drivers evaluate the transient itself, whose exp(-rate t)
        # overflows to an exact 0 without a warning
        _check_run(("functionals", "--rates", "1e308", "--mode", "numeric", "--size", 1,
                    "--output", tmp_path / "out.csv"), {3})
        # one nonzero node leaves no tail to read: refused, not read as 0.0
        assert not (tmp_path / "out.csv").exists()

    def test_numeric_horizon_too_short_for_distinct_nodes_names_the_flag(self, tmp_path,
                                                                         capsys):
        out = tmp_path / "out.csv"
        assert run("functionals", "--mode", "numeric", "--horizon=1e-320", "--rates", 1, 2,
                   "--output", out) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "--horizon=1e-320" in err[0] and "too narrow" in err[0]
        assert not out.exists()

    def test_samples_too_close_to_fit_exit_5(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(TINY_STEP_CSV)
        assert run("decompose", "--input", path, "--output", tmp_path / "out.json") == 5
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: NonDecaying:")

    def test_prony_on_samples_that_round_to_one_exit_7(self, tmp_path, capsys):
        # the root 1 - 5 eps is rounding; read as a pole it was a rate of 1.1e185
        path, out = tmp_path / "tiny.csv", tmp_path / "out.json"
        path.write_text(TINY_STEP_CSV)
        assert run("prony", "--input", path, "--order", 2, "--output", out) == 7
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: RankDeficient:")
        assert not out.exists()

    @pytest.mark.parametrize("verb", ["decompose", "synth", "oet", "compare"])
    def test_overflowing_spec_names_the_file(self, tmp_path, capsys, verb):
        spec = tmp_path / "huge.json"
        spec.write_text('{"terms": [{"rate": 1, "coeff": 1e308}, {"rate": 2, "coeff": 1e308}]}')
        methods = ("--methods", "prony") if verb == "compare" else ()
        assert run(verb, "--input", spec, *methods, "--output", tmp_path / "out") == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and str(spec) in err[0] and "overflows" in err[0]


# rates and coefficients in and around what a spec may hold: duplicates, zero,
# negatives, non-finite values, floats near the top of the range, and ints past it
_SPEC_NUMBERS = st.one_of(
    st.sampled_from([1.0, 2.0, 0.0, -1.0, math.nan, math.inf, -math.inf,
                     1e308, -1e308, 1.7e308, 5e-324]),
    st.floats(-10.0, 10.0), st.floats(-1e308, 1e308), st.integers(-10 ** 400, 10 ** 400))


@given(terms=st.lists(st.tuples(_SPEC_NUMBERS, _SPEC_NUMBERS), max_size=4),
       ascending=st.booleans())
@example(terms=[(1.0, 1e308), (2.0, 1e308)], ascending=True)
@example(terms=[(1.0, 10 ** 400)], ascending=True)
@example(terms=[(1.7e308, 1.0)], ascending=True)
@example(terms=[(1.0, 1e308)], ascending=True)
@settings(max_examples=100)
def test_spec_verbs_keep_the_exit_contract(tmp_path_factory, terms, ascending):
    folder = tmp_path_factory.mktemp("spec")
    path = folder / "spec.json"
    if ascending:
        terms = sorted(terms, key=lambda term: term[0])
    path.write_text(json.dumps({"terms": [{"rate": r, "coeff": c} for r, c in terms]}))
    _check_exit_contract(path, folder / "out",
                         (("decompose",), ("synth", "--horizon", 2, "--step", 0.5),
                          ("oet", "--max-index", 4),
                          ("compare", "--horizon", 2, "--step", 0.1, "--trials", 1,
                           "--sigma", 0, 1e-3, "--methods", "decomposer", "prony", "oet")))


# --rates values: in range, at and past the float limits, non-positive, NaN
_RATE_VALUES = st.one_of(
    st.floats(0.05, 10.0), st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, 5e-324, 1e-300, 1e308, 1.7e308, math.nan, math.inf]))


# each argument is drawn in range about half the time (distinct rates in
# 0.05..10, a size within the bound, a horizon of many decay times), so that
# runs reach the matrices as well as the refusals
@given(rates=st.one_of(st.lists(st.floats(0.05, 10.0), max_size=4, unique=True),
                       st.lists(_RATE_VALUES, max_size=4)),
       ascending=st.booleans(),
       size=st.one_of(st.integers(1, 12),
                      st.sampled_from([-3, 0, cli.MAX_MATRIX_SIZE, cli.MAX_MATRIX_SIZE + 1,
                                       10 ** 6])),
       mode=st.sampled_from(["symbolic", "numeric"]),
       horizon=st.one_of(st.floats(10.0, 100.0), st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from([0.0, 5e-324, 1e-300, 1e308, math.inf])))
@example(rates=[1.0, 2.0], ascending=True, size=2, mode="numeric", horizon=1e308)
@example(rates=[1e-300, 1.0], ascending=True, size=1, mode="numeric", horizon=1e-300)
@settings(max_examples=60)
def test_functionals_keeps_the_exit_contract(tmp_path_factory, rates, ascending, size, mode,
                                             horizon):
    # a value such as -1e+308 reads to argparse as a flag: a usage error, exit 2
    if ascending:
        rates = sorted(rates)
    out = tmp_path_factory.mktemp("functionals") / "out.csv"
    _check_run(("functionals", "--rates", *map(repr, rates), "--size", size, "--mode", mode,
                f"--horizon={horizon!r}", "--output", out), DOCUMENTED_EXITS | {2})


# each config flag's value: ints in and around what its config type takes,
# written as argparse reads them, and arbitrary short text
def _flag_values(*values):
    return st.one_of(st.none(), st.sampled_from(values).map(str), st.text(max_size=5))


@given(nodes=_flag_values(-1, 0, 1, 2, 3, 128, MAX_NODES, MAX_NODES + 1, 10 ** 400))
@example(nodes=str(MAX_NODES))
@example(nodes="0x10")
@settings(max_examples=60)
def test_config_flags_keep_the_exit_contract(tmp_path_factory, nodes):
    folder = tmp_path_factory.mktemp("flags")
    spec, out = folder / "spec.json", folder / "out"
    spec.write_text(TWO_TERM)
    # "--flag=value", so that a value starting with "-" is read as the value
    quadrature = [] if nodes is None else [f"--quadrature-nodes={nodes}"]
    exits = {0, 2, 3}
    _check_run(("oet", "--input", spec, "--max-index", 4, *quadrature, "--output", out), exits)
    _check_run(("compare", "--input", spec, "--horizon", 2, "--step", 0.1, *quadrature,
                "--methods", "decomposer", "prony", "oet", "--output", out), exits)
