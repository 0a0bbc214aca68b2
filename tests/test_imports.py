"""What importing the package costs: numpy, and no scipy until a count
matrix is built."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.sparse as sparse

import dskernel
from dskernel import counts

PROBE = """
import json, sys
import dskernel, dskernel.cli
print(json.dumps(sorted(sys.modules)))
"""


def test_importing_the_package_and_cli_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the tests themselves
    src = str(Path(dskernel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = set(json.loads(out))
    assert "numpy" in modules
    assert sorted(m for m in modules if m == "scipy" or m.startswith("scipy.")) == []
    assert "importlib.metadata" not in modules


def test_count_matrices_are_still_scipy_csr(tmp_path):
    cm = counts.synth_poisson_counts(20, 30, seed=0)
    assert type(cm.entries) is sparse.csr_matrix
    path = tmp_path / "m.mtx"
    path.write_text("%%MatrixMarket matrix coordinate integer general\n"
                    "2 3 3\n1 1 5\n2 3 4\n1 1 2\n")
    cm = counts.ingest_counts(path)
    assert type(cm.entries) is sparse.csr_matrix
    assert cm.entries.toarray().tolist() == [[7, 0, 0], [0, 0, 4]]
