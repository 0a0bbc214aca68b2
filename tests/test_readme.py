"""Every ```python block of README.md runs, in order, in one namespace, and
so do its command-line examples, except the bench ones."""

import re
import shlex
from pathlib import Path

from dskernel import cli, counts
from oracles import write_counts

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = re.findall(r"`(dskernel (?:simulate|scale|density|denoise|laplacian) [^`]*)`",
                       README.read_text())
    assert [line.split()[1] for line in lines] == [
        "simulate", "scale", "density", "denoise", "laplacian"]
    monkeypatch.chdir(tmp_path)
    for line in lines:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        err = capsys.readouterr().err
        if "--dists-out" in line:  # the distance matrix notes its negative entries
            assert re.fullmatch(r"note: \d+ corrected distances are negative .*\n", err), err
        else:
            assert err == "", line


def test_readme_count_matrix_example_runs(tmp_path, monkeypatch):
    (line,) = re.findall(r"`(dskernel scrna [^`]*)`", README.read_text())
    monkeypatch.chdir(tmp_path)
    cm = counts.synth_poisson_counts(120, 800, seed=0)
    write_counts(tmp_path, cm.entries, cm.labels)
    assert cli.main(shlex.split(line)[1:]) == 0, line
    assert Path("noise.csv").is_file() and Path("trans.csv").is_file()
