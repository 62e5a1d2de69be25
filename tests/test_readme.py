"""README's examples run as written: the library example prints what it
claims, the command lines parse, and the flags README calls retired are gone."""

import argparse
import contextlib
import io
import re
import shlex
from pathlib import Path

from transient_lab import cli

README = Path(__file__).parents[1] / "README.md"


def test_library_example_recovers_its_terms():
    text = README.read_text(encoding="utf-8")
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(README), "exec"), namespace)
    terms = namespace["result"].terms
    assert len(terms) == 2
    for (rate, coeff), (want_rate, want_coeff) in zip(terms, ((1.0, 2.0), (2.0, 3.0))):
        assert abs(rate - want_rate) <= 1e-9
        assert abs(coeff - want_coeff) <= 1e-9


def _verbs():
    """Verb name -> its subparser."""
    parser = cli._build_parser()
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _command_lines():
    """Each `transient-lab ...` example of the Command line block, its
    continuation lines joined and its comment dropped, as an argv."""
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```\n", 2)[1].replace("\\\n", " ")
    return [shlex.split(line.split("#", 1)[0])[1:] for line in block.splitlines()
            if line.startswith("transient-lab ")]


def test_command_line_examples_parse():
    lines = _command_lines()
    assert {argv[0] for argv in lines} == set(_verbs())
    for argv in lines:
        # once with each optional [...] part and once without them
        full = [word.strip("[]") for word in argv]
        bare = re.sub(r"\[[^]]*\]", "", " ".join(argv)).split()
        for words in (full, bare):
            args = cli._build_parser().parse_args(words)
            assert args.command == argv[0]


RETIRED_FLAGS = ("--config", "--fit-order", "--max-terms", "--quadrature-nodes")


def test_retired_flags_stay_retired():
    # no verb declares a flag that once tuned a numeric method, and README
    # names each one as a usage error
    for name, sub in _verbs().items():
        assert not set(RETIRED_FLAGS) & set(sub._option_string_actions), name
    text = README.read_text(encoding="utf-8")
    paragraph = " ".join(text.split("No flag tunes a numeric method.", 1)[1]
                         .split("\n\n", 1)[0].split())
    assert "usage errors (exit 2)" in paragraph
    for flag in RETIRED_FLAGS:
        assert f"`{flag}`" in paragraph, flag
