"""Byte identity of integer-only CLI output against committed digests.

``scheme`` prints only integers and booleans, so its stdout has no float
rounding to drift, and any change in an action builder's point order or
generator images changes these digests.  The digests in
``data/cli_stdout_sha256.json`` were recorded before the action builders
were rebuilt on ``permgroup.action_on``.

The exact Heisenberg export is integer-only too, but ``heisenberg`` also
prints a float report, so its cases pin the digest of
``json.dumps(payload["exact_entries"], sort_keys=True)`` alone.  They were
recorded before equal exact cells came to share one exported dict.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linepack import cli
from linepack.cli import main

DIGESTS = Path(__file__).parent / "data" / "cli_stdout_sha256.json"

# group files written next to the run, as name -> {"degree", "generators"}
GROUP_FILES = {
    "d20": {
        "degree": 20,
        "generators": [[(i + 1) % 20 for i in range(20)], [(-i) % 20 for i in range(20)]],
    },
    "z7": {"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]},
}

CASES = {
    "scheme_agl": ["scheme", "fixture:agl"],
    "scheme_sl2_f8_pairs": ["scheme", "fixture:sl2_f8", "--action", "pairs"],
    "scheme_m11_pairs": ["scheme", "fixture:m11", "--action", "pairs"],
    "scheme_d20_regular": ["scheme", "@d20", "--action", "regular"],
    "scheme_z7_regular": ["scheme", "@z7", "--action", "regular"],
}

EXPORT_CASES = {
    "heisenberg_exact_z13": ["heisenberg", "--moduli", "13"],
    "heisenberg_exact_z3xz3_even": ["heisenberg", "--moduli", "3,3", "--parity", "even"],
    "heisenberg_exact_z3xz9": ["heisenberg", "--moduli", "3,9"],
}


def resolve(argv, directory):
    """The argv with each ``@name`` replaced by a written group file."""
    out = []
    for arg in argv:
        if arg.startswith("@"):
            path = Path(directory) / f"{arg[1:]}.json"
            path.write_text(json.dumps(GROUP_FILES[arg[1:]]))
            arg = str(path)
        out.append(arg)
    return out


def test_digest_file_covers_every_case():
    assert sorted(json.loads(DIGESTS.read_text())) == sorted([*CASES, *EXPORT_CASES])


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_byte_identical(case, capsys, tmp_path):
    code = main(resolve(CASES[case], tmp_path))
    stdout = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == json.loads(DIGESTS.read_text())[case]


@pytest.mark.parametrize("case", sorted(EXPORT_CASES))
def test_exact_export_is_byte_identical(case, capsys, monkeypatch):
    payloads = []
    dumps = cli._dumps
    monkeypatch.setattr(cli, "_dumps", lambda value: payloads.append(value) or dumps(value))
    assert main(EXPORT_CASES[case]) == 0
    capsys.readouterr()
    text = json.dumps(payloads[0]["exact_entries"], sort_keys=True)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == json.loads(DIGESTS.read_text())[case]
