"""README's library example runs as written and prints what it claims."""

import contextlib
import io
from pathlib import Path

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
