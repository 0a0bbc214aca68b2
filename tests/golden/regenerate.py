"""Rewrite the golden outputs in this directory from the code in the working
tree, and print, per file, the largest change against the committed copy.

Run it only to republish numbers on purpose, from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

A change that does so states the printed changes in CHANGES.md.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from oracles import GOLDEN_DIR, golden_changes, golden_subset, run_golden_set  # noqa: E402


def main():
    manifest_path = GOLDEN_DIR / "manifest.json"
    old_rows = json.loads(manifest_path.read_text())["rows"] if manifest_path.exists() else {}
    with tempfile.TemporaryDirectory() as workdir:
        notes = run_golden_set(workdir)
        rows = {}
        for path in sorted(Path(workdir).glob("*.csv")):
            stored, rows[path.name] = golden_subset(path.read_text().splitlines())
            committed = GOLDEN_DIR / path.name
            if not committed.exists():
                print(f"{path.name}: new")
            else:
                largest, faults = golden_changes(committed.read_text().splitlines(), stored)
                if old_rows.get(path.name) != rows[path.name]:
                    faults.append(f"{old_rows.get(path.name)} -> {rows[path.name]} rows")
                print(f"{path.name}: largest change {largest:.3e}"
                      + "".join(f"\n  {fault}" for fault in faults))
            committed.write_text("\n".join(stored) + "\n")
    manifest_path.write_text(json.dumps({"rows": rows, "stderr": notes}, indent=1) + "\n")


if __name__ == "__main__":
    main()
