"""The library examples of README.md run as documented."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_readme_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert len(blocks) >= 2
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:  # later blocks use the names of earlier ones
            exec(compile(block, str(README), "exec"), namespace)
    lines = out.getvalue().splitlines()
    # the critic time the first example prints and annotates, to the 14 digits
    # that a 40-digit mpmath root of the crossing condition confirms
    assert any(line.startswith("0.68682767166129") for line in lines), lines
