"""README's examples run as written: the library example prints what it
claims, the command lines parse, and the flag table matches the parser."""

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


def test_flag_table_names_the_verbs_of_each_config_flag():
    text = README.read_text(encoding="utf-8")
    table = text.split("| flag | verbs |", 1)[1].split("\n\n", 1)[0]
    documented = {}
    for line in table.splitlines()[2:]:
        flag, verbs = (cell.strip() for cell in line.split("|")[1:3])
        documented[flag.strip("`")] = {verb.strip().strip("`") for verb in verbs.split(",")}
    assert documented == {flag: {name for name, sub in _verbs().items()
                                 if flag in sub._option_string_actions}
                          for flag in ("--" + dest.replace("_", "-") for dest in cli._CONFIG_FLAGS)}
