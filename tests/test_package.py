"""What the package is made of: the library imports neither numpy nor the
reference oracle, runs with numpy absent, and has no function or class
that nothing calls."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import liaison

SRC = Path(liaison.__file__).parent
README = SRC.parents[1] / "README.md"


def _library_modules():
    """Every module of the package but the reference oracle, parsed."""
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py")) if p.name != "oracle.py"}


def test_library_imports_neither_numpy_nor_the_oracle():
    found = []
    for name, tree in _library_modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                parts = [a.name.split(".") for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = (node.module or "").split(".")
                parts = [module + [a.name] for a in node.names]
            else:
                continue
            if any(p[0] == "numpy" or "oracle" in p for p in parts):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


# README's CLI session and library example, run with numpy unimportable;
# the oracle, which needs numpy, is never loaded.
_WITHOUT_NUMPY = r"""
import contextlib, io, json, re, shlex, sys
sys.modules["numpy"] = None
from liaison.cli import main
readme = open(sys.argv[1]).read()
session = re.search(r"## CLI\n\n```sh\n(.*?)```", readme, re.S).group(1)
commands = [shlex.split(line.split("#")[0])[1:] for line in session.splitlines()]
commands.append(["verify-lift", "L.json", "--prime", "65537"])
codes = []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append([argv, main(argv)])
exec(re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1))
print(json.dumps({"codes": codes, "oracle": "liaison.oracle" in sys.modules}))
"""


def test_cli_and_library_run_without_numpy(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_NUMPY, str(README)],
                          capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    commands = [argv[0] for argv, _ in result["codes"]]
    assert commands == ["lex-build", "analyze", "lift", "verify-lift", "glicci", "verify",
                        "worked-example", "verify-lift"]
    assert all(code == 0 for _, code in result["codes"]), result["codes"]
    assert result["oracle"] is False


# Top-level names with no caller in the package, each with its reason.
NO_CALLER = {
    "monomials.enumerate_borel_ideals":
        "the census of the tests and of the benchmark; a census command will call it",
}


def _references(node):
    """The names ``node`` uses: names, attributes and import aliases."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def test_every_function_and_class_has_a_caller():
    modules = _library_modules()
    used = {}  # name -> the top-level statements that use it
    for tree in modules.values():
        for stmt in tree.body:
            for name in set(_references(stmt)):
                used.setdefault(name, []).append(stmt)
    defined = {f"{module}.{stmt.name}": stmt
               for module, tree in modules.items() for stmt in tree.body
               if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    allowed = {q for q in defined if q.split(".")[1] in liaison.__all__} | {"cli.main"}
    callerless = {qual for qual, stmt in defined.items()
                  if not [s for s in used.get(stmt.name, ()) if s is not stmt]}
    assert set(NO_CALLER) <= set(defined), "a listed name no longer exists"
    assert callerless - allowed == set(NO_CALLER)
