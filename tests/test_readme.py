"""The README's command-line examples run as printed.

Every ``linepack`` line of the "Command line" block that names no user
file (no ``.json`` argument) must exit 0, and the Z_7 scan of the
"Reproducing catalogued ETF sizes" section must find the packing that
section claims.
"""

import json
import math
import re
import shlex
from pathlib import Path

import pytest

from linepack.cli import main

README = (Path(__file__).parents[1] / "README.md").read_text()


def command_block_examples() -> list[list[str]]:
    """The argv of each runnable ``linepack`` line in the "Command line" sh block."""
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("linepack ")]
    return [argv for argv in lines if not any(arg.endswith(".json") for arg in argv)]


EXAMPLES = command_block_examples()


def test_the_command_block_has_its_examples():
    assert [argv[0] for argv in EXAMPLES] == ["idempotents", "scan-etf", "heisenberg", "harmonic", "verify-figures"]


@pytest.mark.parametrize("argv", EXAMPLES, ids=" ".join)
def test_command_block_example_exits_0(argv, capsys):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)


def quoted_command(prefix: str) -> list[str]:
    """The argv of the README's one backquoted ``linepack`` command that starts with `prefix`."""
    [text] = re.findall(rf"`linepack ({re.escape(prefix)}[^`]*)`", README)
    return shlex.split(text)


def test_z7_scan_finds_the_harmonic_etf(capsys):
    # "`linepack harmonic --moduli 7 --subset 1,2,4` builds the 3 x 7 complex ETF ...
    # and `linepack scan-etf fixture:z7 --action regular` finds the same packing"
    assert main(quoted_command("harmonic --moduli 7")) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert (report["d"], report["n"], report["field"], report["is_etf"]) == (3, 7, "complex", True)
    assert math.isclose(report["coherence"], math.sqrt(2) / 3, rel_tol=1e-12)
    assert main(quoted_command("scan-etf fixture:z7")) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    etfs = [row for row in rows if row["is_etf"] and (row["rank"], row["n"], row["field"]) == (3, 7, "complex")]
    assert etfs
    assert all(math.isclose(row["coherence"], report["coherence"], rel_tol=1e-12) for row in etfs)
