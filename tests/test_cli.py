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

    def test_malformed_spec_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"terms": [{"rate": 2.0, "coeff": 1.0}, {"rate": 1.0, "coeff": 0.5}]}')
        assert run("decompose", "--input", path) == 3
        err = capsys.readouterr().err
        assert "terms[1].rate" in err

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

    def test_empty_method_list(self, tmp_path, two_term_spec):
        out = tmp_path / "empty.csv"
        assert run("compare", "--input", two_term_spec, "--output", out) == 0
        lines = out.read_text().splitlines()
        assert lines == ["method,sigma,trial,term_index,true_rate,est_rate,true_coeff,est_coeff,flag"]

    def test_diagnostics_sidecar(self, tmp_path, two_term_spec):
        out = tmp_path / "compare.csv"
        diag = tmp_path / "diag.json"
        assert run("compare", "--input", two_term_spec, "--methods", "prony",
                   "--horizon", 10.0, "--step", 0.5, "--output", out,
                   "--diagnostics-out", diag) == 0
        payload = json.loads(diag.read_text())
        assert payload[0]["method"] == "prony"
        assert payload[0]["vandermonde_condition"] > 1.0


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
    def test_quadrature_nodes_key_changes_oet_projections(self, tmp_path, two_term_spec):
        # oet reads a sampled input through its interpolant, which no node
        # count integrates exactly, so the node count shows in the output
        csv_path = tmp_path / "samples.csv"
        assert run("synth", "--input", two_term_spec, "--output", csv_path,
                   "--horizon", 40.0, "--step", 0.01) == 0
        config = tmp_path / "config.json"
        config.write_text('{"quadrature": {"nodes": 64}}')
        default, coarse = tmp_path / "default.json", tmp_path / "coarse.json"
        assert run("oet", "--input", csv_path, "--output", default) == 0
        assert run("oet", "--input", csv_path, "--config", config, "--output", coarse) == 0
        default_proj = json.loads(default.read_text())["projections"]
        coarse_proj = json.loads(coarse.read_text())["projections"]
        assert coarse_proj != default_proj
        assert np.allclose(coarse_proj, default_proj, rtol=0.0, atol=1e-5)

    def test_config_file_overrides(self, tmp_path, two_term_spec):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"stopping": {"max_terms": 1},
                                      "tail": {"fit_order": "richardson_1"}}))
        csv_path = tmp_path / "samples.csv"
        run("synth", "--input", two_term_spec, "--output", csv_path,
            "--horizon", 40.0, "--step", 0.01)
        out = tmp_path / "result.json"
        assert run("decompose", "--input", csv_path, "--config", config,
                   "--output", out) == 0
        payload = json.loads(out.read_text())
        assert len(payload["terms"]) == 1
        assert payload["diagnostics"]["termination_reason"] == "max_terms"

    @pytest.mark.parametrize("payload, named", [
        ('{"stopping": {"bogus": 1}}', "section 'stopping' has unknown key 'bogus'"),
        ('{"stopping": {"eval_points": 4001}}', "unknown key 'eval_points'"),
        ('{"tail": [1, 2]}', "section 'tail' must be a JSON object"),
        ('[1]', "top level must be a JSON object"),
        ('{"stoping": {}}', "unknown section 'stoping'"),
        ('{"quadrature": {"nodes": "many"}}', "section 'quadrature'"),
    ])
    def test_malformed_config_rejected_in_one_line(self, tmp_path, two_term_spec, capsys,
                                                   payload, named):
        config = tmp_path / "config.json"
        config.write_text(payload)
        assert run("decompose", "--input", two_term_spec, "--config", config) == 3
        err = capsys.readouterr().err
        assert named in err and str(config) in err
        assert len(err.strip().splitlines()) == 1

    def test_bundled_example_file(self, tmp_path):
        out = tmp_path / "result.json"
        assert run("decompose", "--input", "data/two_term.json", "--output", out) == 0
        assert len(json.loads(out.read_text())["terms"]) == 2


class TestAuxiliaryExports:
    def test_oet_basis_table_export(self, tmp_path, two_term_spec):
        basis_csv = tmp_path / "basis.csv"
        assert run("oet", "--input", two_term_spec, "--max-index", 3,
                   "--basis-out", basis_csv) == 0
        with open(basis_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["element", "rate", "coeff"]
        assert len(rows) == 1 + 1 + 2 + 3   # header + triangular table
        assert float(rows[1][2]) == pytest.approx(math.sqrt(2.0))

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


# the documented exit codes a file verb may return (2 is argparse's, not reachable here)
DOCUMENTED_EXITS = {0, 3, 4, 5, 7, 8}
_EXTREME = st.one_of(st.floats(-1e308, 1e308), st.floats(-10.0, 10.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))


@given(text=sample_csv_texts(numbers=_EXTREME, min_rows=1, max_rows=9))
@example(text="t,x\r0.5,2.411809324612532e+307\r9.5,1.8387235069353016e+296")
@example(text="t,x\n0.0,-1e+308\n8.38,-9.9e+303\n16.76,-9.8e+299\n25.14,-9.7e+295\n")
@example(text="t,x\n0.0,1e+308\n1.0,-1e+308\n2.0,1e+308\n3.0,-1e+308\n4.0,1e+308\n")
@settings(max_examples=60)
def test_file_verbs_keep_the_exit_contract(tmp_path_factory, text):
    folder = tmp_path_factory.mktemp("fuzz")
    path = folder / "samples.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _check_exit_contract(path, folder / "out.json",
                         (("decompose",), ("prony", "--order", 2), ("oet", "--max-index", 4)))


def _check_exit_contract(path, out, verbs):
    """Each verb on the input file exits with a documented code, writes at
    most one line to stderr and raises no warning."""
    for verb in verbs:
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(verb[0], "--input", path, *verb[1:], "--output", out)
        assert code in DOCUMENTED_EXITS, (verb, err.getvalue())
        assert len(err.getvalue().strip().splitlines()) <= 1
        # a shell run would print each warning on stderr as well
        assert not [str(w.message) for w in caught], verb


class TestVerbFlags:
    # each verb declares only the flags it reads, so a flag it would ignore is refused
    @pytest.mark.parametrize("argv", [
        ("synth", "--config", "c.json"), ("decompose", "--seed", "1"), ("oet", "--seed", "1"),
        ("prony", "--config", "c.json"), ("prony", "--seed", "1"),
        ("functionals", "--input", "s.json"), ("functionals", "--seed", "1"),
        ("functionals", "--config", "c.json"),
        ("synth", "--sigma", "0", "0.1"), ("compare", "--sigma"),
    ], ids=" ".join)
    def test_flag_the_verb_does_not_read_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

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

    @pytest.mark.parametrize("verb", ["decompose", "synth", "oet", "compare"])
    def test_overflowing_spec_names_the_file(self, tmp_path, capsys, verb):
        spec = tmp_path / "huge.json"
        spec.write_text('{"terms": [{"rate": 1, "coeff": 1e308}, {"rate": 2, "coeff": 1e308}]}')
        assert run(verb, "--input", spec, "--output", tmp_path / "out") == 3
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
@settings(max_examples=100)
def test_spec_verbs_keep_the_exit_contract(tmp_path_factory, terms, ascending):
    folder = tmp_path_factory.mktemp("spec")
    path = folder / "spec.json"
    if ascending:
        terms = sorted(terms, key=lambda term: term[0])
    path.write_text(json.dumps({"terms": [{"rate": r, "coeff": c} for r, c in terms]}))
    _check_exit_contract(path, folder / "out",
                         (("decompose",), ("synth", "--horizon", 2, "--step", 0.5),
                          ("oet", "--max-index", 4)))
