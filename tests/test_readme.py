"""README's library example runs and prints what its comments say."""

import contextlib
import io
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    # each print's comment is its line, or a prefix of it when it ends in "..."
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected) == 4, printed
    for line, comment in zip(printed, expected):
        if comment.endswith("..."):
            assert line.startswith(comment[:-3]), (line, comment)
        else:
            assert line == comment, (line, comment)
