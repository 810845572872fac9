"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import qdynlearn

SOURCES = sorted(Path(qdynlearn.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    # Checks must be real exceptions: `python -O` strips assert statements.
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(SOURCES) > 1
    assert found == []


SCIPY_FREE_RUN = """
import json, sys
from pathlib import Path
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from qdynlearn.cli import main
out = Path(sys.argv[1])
for mode, T in (("rl", 250.0), ("backprop", 250.0), ("circuit", 2.0)):
    cfg = out / f"{mode}.json"
    cfg.write_text(json.dumps({"mode": mode, "num_qubits": 2, "T_ns": T,
                               "steps": 20, "epochs": 1}))
    main(["train", "--config", str(cfg), "--out", str(out / mode)],
         standalone_mode=False)
print(sorted(k for k in sys.modules if k.split(".")[0] == "scipy"))
"""


def test_package_runs_without_scipy(tmp_path):
    # scipy is a test-only reference: the package, its CLI and one epoch of
    # every training mode must run in an interpreter where it cannot load.
    env = dict(os.environ, PYTHONPATH=str(Path(qdynlearn.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUN,
                             str(tmp_path)], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "['scipy']"  # the None entry
    for mode in ("rl", "backprop", "circuit"):
        assert (tmp_path / mode / "epochs.csv").read_text().count("\n") == 2
