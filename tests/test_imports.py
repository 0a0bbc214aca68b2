"""What importing the package costs: numpy, and no scipy until a count
matrix is built or a DS-KDE's exponent takes the log-domain pass."""

import json
import os
import subprocess
import sys
from pathlib import Path

import scipy.sparse as sparse

import dskernel
from dskernel import counts

IMPORTS = """
import json, sys
import dskernel, dskernel.cli
"""
# the points path on a small circle: s = 2 takes the pass over B, and the
# limit the row entropy, so neither needs the log-domain pass
POINTS_PATH = """
import numpy as np
from dskernel import (S_LIMIT, assemble_W, ds_kde, gaussian_kernel, noise_magnitude,
                      pairwise_sq_dists, robust_markov, signal_magnitude_and_distances,
                      sinkhorn_symmetric, traditional_markov)
theta = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
points = np.column_stack([np.cos(theta), np.sin(theta)])
affinity = gaussian_kernel(pairwise_sq_dists(points), 0.1)
solution = sinkhorn_symmetric(affinity)
scaled = assemble_W(affinity, solution)
qhat = ds_kde(scaled, 2.0)
ds_kde(scaled, S_LIMIT)
nhat = noise_magnitude(solution, qhat, 0.1)
signal_magnitude_and_distances(points, nhat, 0.1, 2.0, scaled=scaled, qhat=qhat)
robust_markov(scaled, qhat, 1.0).apply(np.cos(theta))
traditional_markov(affinity, 1.0).apply(np.cos(theta))
"""
REPORT = """
print(json.dumps(sorted(sys.modules)))
"""


def test_importing_the_package_and_cli_loads_no_scipy():
    # a fresh interpreter: this one has scipy loaded by the tests themselves
    src = str(Path(dskernel.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src if not path else os.pathsep.join([src, path]))
    for probe in (IMPORTS, IMPORTS + POINTS_PATH):
        out = subprocess.run([sys.executable, "-c", probe + REPORT], env=env, check=True,
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
