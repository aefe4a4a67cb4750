"""Byte identity of integer-only CLI output against committed digests.

``scheme`` prints only integers and booleans, so its stdout has no float
rounding to drift, and any change in an action builder's point order or
generator images changes these digests.  The digests in
``data/cli_stdout_sha256.json`` were recorded before the action builders
were rebuilt on ``permgroup.action_on``.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_byte_identical(case, capsys, tmp_path):
    code = main(resolve(CASES[case], tmp_path))
    stdout = capsys.readouterr().out
    assert code == 0
    digest = hashlib.sha256(stdout.encode("utf-8")).hexdigest()
    assert digest == json.loads(DIGESTS.read_text())[case]
