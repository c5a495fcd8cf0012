"""What the package is made of: the library imports neither numpy nor the
reference oracle, runs with numpy absent, has no function or class that
nothing calls, and keeps out the code its proofs replaced."""
import ast
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import liaison
from liaison import lifting, links

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
commands += [["lift", "J.json", "--matrix", "t:1", "--seed", "7", "--prime", "65537",
              "--out", "L65537.json"], ["verify-lift", "L65537.json"]]
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
                        "worked-example", "lift", "verify-lift"]
    assert all(code == 0 for _, code in result["codes"]), result["codes"]
    assert result["oracle"] is False


# Top-level names with no caller in the package, each with its reason.
NO_CALLER = {
    "monomials.enumerate_borel_ideals":
        "the census of the tests and of the benchmark; a census command will call it",
    "hilbert.hilbert_function": "the benchmark's borel-census gate calls it",
    "hilbert.difference": "the benchmark's artinian-worked gate calls it",
    "hilbert.partial_sum":
        "the acceptance suite's t-lift criterion predicts a lift's Hilbert function with it",
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


def _lines_matching(pattern):
    """The lines of the package's files that match ``pattern``."""
    return [f"{p.name}:{k}: {line}" for p in sorted(SRC.glob("*.py"))
            for k, line in enumerate(p.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_no_buchberger_run_in_the_library():
    # Buchberger's algorithm is a test reference (tests/buchberger_fp.py):
    # the library proves its initial ideals by theorems instead.
    assert _lines_matching(r"GroebnerBasis|BUCHBERGER_BUDGET|_top_reduce|_s_polynomial") == []


def test_no_truncated_hilbert_check_in_the_library():
    # Certificate checks are exact identities of Hilbert-series numerators:
    # no Hilbert function truncated at a horizon comes back.
    assert _lines_matching(r"stable_value|_section_hilbert|horizon too small|\.hilbert\(") == []


def test_no_prime_or_order_parameter_in_the_link_layer():
    # The link layer reads its field and term order off its ideals
    # (PolyIdeal.prime and PolyIdeal.last): no caller passes either.
    fs = (links.basic_double_link, links.hypersurface_chain, links.PolyIdeal.from_lifted,
          links._first_outside, links._link_result, links._colon_failure, links.proven_equal)
    assert [f.__qualname__ for f in fs
            if {"prime", "last"} & set(inspect.signature(f).parameters)] == []


def test_no_canonical_text_comparison_outside_same_document():
    # Replays compare a stored document with its rebuild through
    # lifting.same_document, which makes canonical text only when the
    # marshal bytes differ: no other comparison of two canonical texts.
    found = _lines_matching(r"canonical_json\(.*[!=]=|[!=]=\s*canonical_json\(")
    assert [line for line in found
            if not line.endswith("return canonical_json(a) == canonical_json(b)")] == []


def test_certificate_steps_have_one_replay_path():
    # verify compares each stored step with its rebuild by digest alone:
    # no stored step is decoded, and the replay makes no entry of its own
    # for a step's source or kind.
    assert _lines_matching(r"\bStoredStep\b|step-continuity|step-kind") == []


def test_lift_report_reads_no_horizon():
    # verify_lift reads every row off the source's numerator over Z: it
    # takes no prime, and lifting.py names a horizon or dmax only in a
    # docstring that cites lift-report/1, the report that read them.
    assert "prime" not in inspect.signature(lifting.verify_lift).parameters
    path = SRC / "lifting.py"
    lines = path.read_text().splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str) and "lift-report/1" in node.value.value):
            lines[node.lineno - 1:node.end_lineno] = [""] * (node.end_lineno - node.lineno + 1)
    assert [line for line in lines if re.search(r"horizon|dmax", line)] == []
