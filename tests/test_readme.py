import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading):
    """The first fenced python block under a README heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n{heading}\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, f"no python block under {heading!r}"
    return match.group(1)


def test_library_quickstart_runs_as_written():
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(_python_block("## Library quickstart"), namespace)
    lines = out.getvalue().splitlines()
    assert lines[:2] == ["True", "True"]
    assert len(lines) == 3 and lines[2].endswith(" True")
    result = namespace["result"]
    assert result.certificate.verdict
    assert result.certificate.strong_middle
    assert (result.certificate.prior_low, result.certificate.prior_high) == (
        result.prior_low, result.prior_high,
    )
