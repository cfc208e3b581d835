"""The README's Python examples run against the current API.

Each ```python block runs on its own, in a fresh namespace, as a reader
would paste it; a block that raises fails its test.
"""

import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def python_blocks():
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    return [(text.count("\n", 0, m.start()) + 2, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)]


BLOCKS = python_blocks()


def test_readme_has_examples():
    assert len(BLOCKS) == 5


@pytest.mark.parametrize("line,code", BLOCKS, ids=["line%d" % line for line, _ in BLOCKS])
def test_example_runs(line, code, capsys):
    exec(compile(code, "README.md:%d" % line, "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out.strip()
