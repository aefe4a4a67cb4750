"""Modules the scheme, idempotent and symmetry commands must not load.

`numpy.random` adds about 6 MiB to a process, 3.4 MiB of it OpenSSL's
`_hashlib`, which it pulls in through `secrets`; `numpy.ma` is imported by
`np.unique` called without a return flag.  `fractions` and the `decimal`
C extension it imports take 2-3.5 ms of `-X importtime` in each process,
and no command needs them: the exact center is held in integer rows, and
no library function returns `Fraction` any more (the exact parity
projectors are the tests' oracle).  Each command runs in a fresh
interpreter, which reports the guarded modules it loaded.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

GUARDED = ("numpy.random", "_hashlib", "numpy.ma", "fractions", "decimal")

PROBE = """\
import contextlib, io, json, sys
from linepack.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in %r if m in sys.modules]]))
""" % (GUARDED,)


def loaded_modules(argv: list[str]) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True, timeout=120, check=True
    ).stdout
    code, loaded = json.loads(out)
    assert code == 0
    return loaded


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-etf", "fixture:agl"],
        ["idempotents", "fixture:m11", "--action", "pairs"],
        ["idempotents", "fixture:sl2_f8", "--action", "pairs", "--seed", "7"],
        ["scheme", "fixture:m11", "--action", "pairs"],
    ],
)
def test_idempotent_commands_load_no_random_or_hashlib(argv):
    assert loaded_modules(argv) == []


def test_symmetry_loads_no_masked_arrays(tmp_path):
    n = 12
    entries = [[[1.0 if i == j else -1.0 / (n - 1), 0.0] for j in range(n)] for i in range(n)]
    gram = tmp_path / "simplex.json"
    gram.write_text(json.dumps({"n": n, "entries": entries}))
    assert "numpy.ma" not in loaded_modules(["symmetry", str(gram)])


@pytest.mark.parametrize(
    "argv",
    [
        # D_20 is not abelian, so its regular action runs the exact center
        ["idempotents", "fixture:d20", "--action", "regular"],
        ["heisenberg", "--moduli", "3", "--verify"],
        ["harmonic", "--moduli", "7", "--subset", "1,2,4"],
        ["reduce", "@simplex"],
        ["symmetry", "@simplex"],
        ["verify-figures"],
    ],
)
def test_commands_load_no_fractions_or_decimal(tmp_path, argv):
    # "@simplex" in argv stands for a written 12-point simplex Gram
    n = 12
    simplex = tmp_path / "simplex.json"
    entries = [[[1.0 if i == j else -1.0 / (n - 1), 0.0] for j in range(n)] for i in range(n)]
    simplex.write_text(json.dumps({"n": n, "entries": entries}))
    assert loaded_modules([str(simplex) if a == "@simplex" else a for a in argv]) == []


def test_no_library_module_imports_fractions():
    src = Path(__file__).resolve().parent.parent / "src" / "linepack"
    imported = {
        (path.name, alias.name if isinstance(node, ast.Import) else node.module)
        for path in src.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert len({name for name, _ in imported}) > 5
    assert [(name, module) for name, module in imported if module in ("fractions", "decimal")] == []
