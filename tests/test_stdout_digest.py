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

Four more guards are integer-only as well.  ``scan-etf`` rows also print
floats, so the scan cases pin the digest of each row's integer, boolean and
string fields alone, rows in printed order.  The colour cases pin the bytes
of the entry colouring of each figure fixture, and ``verify-figures`` prints
booleans only, so its whole stdout is pinned.  They were recorded before the
scheme came to own its coefficient space and the exact colouring path went,
except the S_30 and S_45 pair scans, recorded before the scan's certificate
came to be read off one product in the adjacency algebra, and the heis5
scan, whose rows reduce by classes of 5 and 125 points, recorded before
the reduction came to read its classes as the blocks of a closed subset.
The idempotent cases pin the integer and boolean fields of ``idempotents``
alone; they were recorded before the exact center came to be read one
slice of structure constants at a time, except SL(2,8) regular, recorded
before the center came to be solved from commutator probes, when that
command ran only with the array limit at 504^3 or above.
"""

import hashlib
import json
from pathlib import Path

import pytest

from linepack import cli, fixtures
from linepack.cli import main
from linepack.frames import COLOR_TOL
from linepack.symmetry import _cluster_values

DIGESTS = Path(__file__).parent / "data" / "cli_stdout_sha256.json"

CASES = {
    "scheme_agl": ["scheme", "fixture:agl"],
    "scheme_sl2_f8_pairs": ["scheme", "fixture:sl2_f8", "--action", "pairs"],
    "scheme_m11_pairs": ["scheme", "fixture:m11", "--action", "pairs"],
    "scheme_d20_regular": ["scheme", "fixture:d20", "--action", "regular"],
    "scheme_z7_regular": ["scheme", "fixture:z7", "--action", "regular"],
    "verify_figures": ["verify-figures"],
}

EXPORT_CASES = {
    "heisenberg_exact_z13": ["heisenberg", "--moduli", "13"],
    "heisenberg_exact_z3xz3_even": ["heisenberg", "--moduli", "3,3", "--parity", "even"],
    "heisenberg_exact_z3xz9": ["heisenberg", "--moduli", "3,9"],
}


SCAN_CASES = {
    "scan_rows_agl": ["scan-etf", "fixture:agl"],
    "scan_rows_agl_no_reduce": ["scan-etf", "fixture:agl", "--no-reduce"],
    "scan_rows_sl2_f8_pairs": ["scan-etf", "fixture:sl2_f8", "--action", "pairs"],
    "scan_rows_m11_pairs": ["scan-etf", "fixture:m11", "--action", "pairs"],
    "scan_rows_s30_pairs": ["scan-etf", "fixture:s30", "--action", "pairs"],
    "scan_rows_s45_pairs": ["scan-etf", "fixture:s45", "--action", "pairs"],
    "scan_rows_heis5": ["scan-etf", "fixture:heis5"],
}

IDEMPOTENT_CASES = {
    "idempotent_fields_d20_regular": ["idempotents", "fixture:d20", "--action", "regular"],
    "idempotent_fields_sl2_f8_pairs": ["idempotents", "fixture:sl2_f8", "--action", "pairs"],
    "idempotent_fields_m11_pairs": ["idempotents", "fixture:m11", "--action", "pairs"],
}

# cases run at a lowered array limit, by ``test_orbital_scan``
LIMITED_CASES = {
    "idempotent_fields_sl2_f8_regular": ["idempotents", "fixture:sl2_f8", "--action", "regular"],
}

# the fields of an idempotents payload that hold no float
IDEMPOTENT_FIELDS = ("ranks", "m", "n", "trivial_index", "multiplicity_free", "commutative")

# the fields of a scan row that hold no float, in printed order
SCAN_FIELDS = (
    "subset",
    "rank",
    "n",
    "reduced",
    "class_size",
    "is_etf",
    "welch_met",
    "orthoplex_met",
    "levenstein_met",
    "field",
)

COLOR_CASES = {
    "colors_figure2": fixtures.figure2_gram,
    "colors_figure3": fixtures.figure3_gram,
    "colors_figure4": fixtures.figure4_gram,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_digest_file_covers_every_case():
    cases = [*CASES, *EXPORT_CASES, *SCAN_CASES, *IDEMPOTENT_CASES, *COLOR_CASES, *LIMITED_CASES]
    assert sorted(json.loads(DIGESTS.read_text())) == sorted(cases)


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_is_byte_identical(case, capsys):
    code = main(CASES[case])
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


def scan_fingerprint(stdout: str) -> str:
    rows = json.loads(stdout)["results"]
    fields = [[[k, row[k]] for k in SCAN_FIELDS if k in row] for row in rows]
    return sha256(json.dumps(fields).encode("utf-8"))


@pytest.mark.parametrize("case", sorted(SCAN_CASES))
def test_scan_row_fields_are_identical(case, capsys):
    assert main(SCAN_CASES[case]) == 0
    digest = scan_fingerprint(capsys.readouterr().out)
    assert digest == json.loads(DIGESTS.read_text())[case]


def idempotent_fingerprint(stdout: str) -> str:
    payload = json.loads(stdout)
    fields = [[k, payload[k]] for k in IDEMPOTENT_FIELDS]
    return sha256(json.dumps(fields).encode("utf-8"))


@pytest.mark.parametrize("case", sorted(IDEMPOTENT_CASES))
def test_idempotent_integer_fields_are_identical(case, capsys):
    assert main(IDEMPOTENT_CASES[case]) == 0
    digest = idempotent_fingerprint(capsys.readouterr().out)
    assert digest == json.loads(DIGESTS.read_text())[case]


@pytest.mark.parametrize("case", sorted(COLOR_CASES))
def test_figure_colors_are_identical(case):
    color = _cluster_values(COLOR_CASES[case]().entries, COLOR_TOL)
    assert sha256(color.tobytes()) == json.loads(DIGESTS.read_text())[case]
