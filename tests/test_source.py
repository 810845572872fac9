"""Checks on the package source itself."""

import ast
import os
import re
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


# bool, int, float and numpy's scalar number types (np.integer, np.int64...).
NUMBER_TYPE = re.compile(r"bool_?|u?int\d*|float\d*|integer|floating|number")
# Where a number-type test belongs besides the rule itself: the bool-only
# `tied` flag, and RunConfig's table of JSON types.
NUMBER_TYPE_TESTS_ALLOWED = {("schedules.py", "isinstance(tied, bool)"),
                             ("config.py", "isinstance(value, bool)")}


def _names_number_type(node):
    """True if `node` names bool, int, float or a numpy number type, or is a
    tuple or `|` union holding one."""
    if isinstance(node, (ast.Tuple, ast.List)):
        return any(_names_number_type(e) for e in node.elts)
    if isinstance(node, ast.BinOp):
        return _names_number_type(node.left) or _names_number_type(node.right)
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return NUMBER_TYPE.fullmatch(name) is not None


def _is_call(node, name):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == name)


def _number_type_tests(tree):
    """Every `isinstance(x, <number type>)` and `type(x) <op> <number type>`
    in `tree`, outside the bodies of `is_integer` and `is_real`."""
    rule = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)
            and f.name in ("is_integer", "is_real") for n in ast.walk(f)}
    for node in ast.walk(tree):
        if id(node) in rule:
            continue
        if _is_call(node, "isinstance") and len(node.args) == 2:
            if _names_number_type(node.args[1]):
                yield node
        elif isinstance(node, ast.Compare) and _is_call(node.left, "type"):
            if any(_names_number_type(c) for c in node.comparators):
                yield node


def test_number_kind_is_decided_by_the_qcore_rule_alone():
    # Whether a scalar input is an integer or a real number (a Python or
    # numpy value, never a bool) is decided by qcore.is_integer and is_real;
    # a constructor that tests number types itself drifts from that rule.
    found = [f"{path.name}:{node.lineno}: {ast.unparse(node)}"
             for path in SOURCES
             for node in _number_type_tests(ast.parse(path.read_text()))
             if (path.name, ast.unparse(node))
             not in NUMBER_TYPE_TESTS_ALLOWED]
    assert found == []


def test_number_type_scan_sees_each_form():
    source = """
def is_integer(v):
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)
def f(v):
    a = isinstance(v, bool)
    b = isinstance(v, (str, float))
    c = isinstance(v, int | None)
    d = type(v) is not int
    e = type(v) == np.float64
    g = isinstance(v, np.floating)
    ok = isinstance(v, str) or type(v) is dict
"""
    lines = [node.lineno for node in _number_type_tests(ast.parse(source))]
    assert sorted(lines) == [5, 6, 7, 8, 9, 10]


def _json_reads(tree):
    """(enclosing function or None, form) for every `json.load` and
    `json.loads` in `tree`, called or not, through any alias of the json
    module, and every name imported from json."""
    aliases = {a.asname or a.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for a in node.names
               if a.name == "json"}
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Attribute)
                    and isinstance(child.value, ast.Name)
                    and child.value.id in aliases
                    and child.attr in ("load", "loads")):
                found.append((function, f"json.{child.attr}"))
            elif isinstance(child, ast.ImportFrom) and child.module == "json":
                found.extend((function, f"from json import {a.name}")
                             for a in child.names)
            visit(child, child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function)

    visit(tree, None)
    return found


def test_json_is_read_in_one_function():
    # Every input file goes through schedules.read_json, which refuses
    # non-finite numbers and duplicate keys and names the file; a second
    # reader would drift from those rules.  The oracle's inline
    # command-line JSON is text, not a file.
    found = sorted((path.name, function, form) for path in SOURCES
                   for function, form in _json_reads(ast.parse(path.read_text())))
    assert found == [("cli.py", "oracle", "json.loads"),
                     ("schedules.py", "read_json", "json.load")]


def test_json_read_scan_sees_each_form():
    source = """
import json
import json as j
from json import loads
def f(fh):
    return json.load(fh)
class C:
    def g(self, text):
        return j.loads(text)
reader = json.load
ok = json.dump
"""
    found = _json_reads(ast.parse(source))
    assert len(found) == 4 and set(found) == {
        (None, "from json import loads"), (None, "json.load"),
        ("f", "json.load"), ("g", "json.loads")}


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
