"""The golden set: the CLI's outputs on fixed inputs stay the numbers that
were committed under tests/golden/, to a tolerance that admits solver drift
and no change of formula. tests/golden/regenerate.py rewrites them."""

import json

import pytest

from oracles import GOLDEN_DIR, golden_changes, golden_subset, run_golden_set

MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("golden")
    return workdir, run_golden_set(workdir)


def test_golden_notes(golden_run):
    assert golden_run[1] == MANIFEST["stderr"]


@pytest.mark.parametrize("name", sorted(MANIFEST["rows"]))
def test_golden_file(golden_run, name):
    stored, rows = golden_subset((golden_run[0] / name).read_text().splitlines())
    assert rows == MANIFEST["rows"][name]
    _, faults = golden_changes((GOLDEN_DIR / name).read_text().splitlines(), stored)
    assert not faults, "\n".join(faults[:10])
