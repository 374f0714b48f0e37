"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_snippets_run(capsys):
    # the second snippet continues the first, so both share one namespace
    snippets = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(snippets) == 2
    namespace = {}
    for code in snippets:
        exec(compile(code, str(README), "exec"), namespace)
    assert 0.0 <= float(capsys.readouterr().out) <= 1.0
    assert namespace["assignment"].n == len(namespace["models"])
    assert list(namespace["diagnostics"]) == ["bandwidth_sigma", "ncut", "eigensolver"]
