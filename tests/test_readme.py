"""Every ```python block of README.md runs, in order, in one namespace, and
so do its command-line examples, except the count-matrix and bench ones."""

import re
import shlex
from pathlib import Path

from dskernel import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    lines = re.findall(r"`(dskernel (?:simulate|scale|density|denoise|laplacian) [^`]*)`",
                       README.read_text())
    assert [line.split()[1] for line in lines] == [
        "simulate", "scale", "density", "denoise", "laplacian"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
