"""The workflow's inline Python compiles.

Some heredocs in `.github/workflows/tests.yml` run only on a pull request (the comparison
with the base commit and its projector-array generator), so a syntax error there would
otherwise show first on GitHub. Each body runs from a line ending in `<<'EOF'` up to the next
line whose stripped text is `EOF`, dedented as the workflow's block scalar dedents it. No YAML
parser: CI installs only numpy, pytest and hypothesis.
"""
import pathlib
import textwrap

import pytest

WORKFLOW = pathlib.Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"


def heredocs(lines):
    """(line number, dedented body) of each <<'EOF' heredoc in lines."""
    bodies, start = [], None
    for number, line in enumerate(lines, 1):
        if start is None and line.endswith("<<'EOF'"):
            start = number
        elif start is not None and line.strip() == "EOF":
            bodies.append((start, textwrap.dedent("\n".join(lines[start:number - 1]))))
            start = None
    assert start is None, f"the heredoc opened at line {start} is never closed"
    return bodies


def test_every_workflow_heredoc_compiles():
    bodies = heredocs(WORKFLOW.read_text(encoding="utf-8").splitlines())
    assert len(bodies) >= 6
    for number, body in bodies:
        # padded so that a SyntaxError names the workflow's own line number
        compile("\n" * number + body, str(WORKFLOW), "exec")


def test_a_heredoc_with_a_syntax_error_is_found():
    lines = ["run: |", "  python - <<'EOF'", "  import sys", "  print(sys.argv", "  EOF"]
    [(number, body)] = heredocs(lines)
    assert (number, body) == (2, "import sys\nprint(sys.argv")
    with pytest.raises(SyntaxError):
        compile(body, "heredoc", "exec")
