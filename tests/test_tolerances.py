"""Every tolerance of the package is named once, in the block at the top of frames.py.

A NUMBER token with a negative exponent (such as 1e-9) may appear only as
the value of a `NAME = value` line of that block.  Docstrings and comments
are STRING and COMMENT tokens, so the scan does not read them.
"""

import re
import tokenize
from pathlib import Path

import linepack
from linepack import frames

SOURCES = sorted(Path(linepack.__file__).parent.glob("*.py"))
NEGATIVE_EXPONENT = re.compile(r"[eE]-")
LAYOUT = {tokenize.COMMENT, tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT}


def negative_exponent_literals(path):
    """(line number, line tokens) of every line holding a 1e-k literal."""
    with tokenize.open(path) as handle:
        tokens = list(tokenize.generate_tokens(handle.readline))
    lines = {}
    for tok in tokens:
        lines.setdefault(tok.start[0], []).append(tok)
    return [
        (row, lines[row])
        for row in sorted(lines)
        if any(t.type == tokenize.NUMBER and NEGATIVE_EXPONENT.search(t.string) for t in lines[row])
    ]


def is_named_constant(line_tokens):
    """`NAME = number`, at column 0, with at most a comment after it."""
    code = [t for t in line_tokens if t.type not in LAYOUT]
    return (
        len(code) == 3
        and code[0].type == tokenize.NAME
        and code[0].start[1] == 0
        and code[1].string == "="
        and code[2].type == tokenize.NUMBER
    )


def test_no_tolerance_literal_outside_the_frames_block():
    assert {"cli.py", "frames.py", "idempotents.py", "scheme.py"} <= {path.name for path in SOURCES}
    stray = [
        f"{path.name}:{row}"
        for path in SOURCES
        for row, line_tokens in negative_exponent_literals(path)
        if path.name != "frames.py" or not is_named_constant(line_tokens)
    ]
    assert stray == []


def test_the_frames_block_is_one_run_of_named_tolerances():
    rows = [row for row, _ in negative_exponent_literals(Path(frames.__file__))]
    assert rows == list(range(rows[0], rows[0] + len(rows)))
    assert frames.COEFFICIENT_TOL == 1e-6
    assert frames.STABLE_TOL == 1e-9


def test_the_scan_sees_a_stray_literal(tmp_path):
    source = tmp_path / "stray.py"
    source.write_text('"""Quotes 1e-9 in a docstring."""\nTOL = 1e-9  # 1e-3\nok = abs(x) < 2.5E-7\n')
    found = negative_exponent_literals(source)
    assert [row for row, _ in found] == [2, 3]
    assert [is_named_constant(line_tokens) for _, line_tokens in found] == [True, False]
