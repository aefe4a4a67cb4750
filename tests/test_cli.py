import ast
import itertools
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from linepack import cli, fixtures, frames
from linepack.cli import main
from linepack.frames import GramMatrix
from linepack.permgroup import PermutationGroup


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_scheme_command(capsys, tmp_path):
    group = {"degree": 3, "generators": [[1, 2, 0], "(0 1)"]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(group))
    code, payload = run(capsys, ["scheme", str(path)])
    assert code == 0
    assert payload["n"] == 3
    assert payload["valencies"] == [1, 2]
    assert payload["commutative"] is True


def test_scheme_regular_nonabelian(capsys):
    code, payload = run(capsys, ["scheme", "fixture:s3", "--action", "regular"])
    assert code == 0
    assert payload["n"] == 6
    assert payload["commutative"] is False


def test_idempotents_command(capsys):
    code, payload = run(capsys, ["idempotents", "fixture:s3"])
    assert code == 0
    assert payload["ranks"] == [1, 2]
    assert payload["multiplicity_free"] is True


def test_scan_etf_finds_harmonic_difference_set(capsys):
    code, payload = run(capsys, ["scan-etf", "fixture:z7", "--action", "regular"])
    assert code == 0
    etf_ranks = {
        (r["rank"], r["n"]) for r in payload["results"] if r["is_etf"] and r["n"] > 1
    }
    # the quadratic-residue difference set gives 3x7 and its complement 4x7
    assert (3, 7) in etf_ranks
    assert (4, 7) in etf_ranks


def test_scheme_on_pairs_fixture(capsys):
    code, payload = run(capsys, ["scheme", "fixture:sl2_f8", "--action", "pairs"])
    assert code == 0
    assert payload["n"] == 72
    assert payload["commutative"] is False


def test_scan_etf_subset_cap(capsys):
    code, _ = run(capsys, ["scan-etf", "fixture:z21", "--action", "regular"])
    assert code == 4


def test_scan_etf_subset_cap_counts_scanned_subsets(capsys):
    # 31 projections, but only the 31 + 465 subsets of size at most 2 are scanned
    code, payload = run(capsys, ["scan-etf", "fixture:z31", "--max-subset-size", "2"])
    assert code == 0
    assert payload["n_projections"] == 31
    assert len(payload["results"]) == 496


@pytest.mark.parametrize("fixture", ["m11", "sl2_f8"])
def test_scan_etf_row_order_is_seed_independent(capsys, fixture):
    # equal coherences (e.g. four rows at 1/10 on M11 pairs) are ordered by subset
    orders = []
    for seed in ("0", "7"):
        argv = ["scan-etf", f"fixture:{fixture}", "--action", "pairs", "--seed", seed]
        code, payload = run(capsys, argv)
        assert code == 0
        orders.append([row["subset"] for row in payload["results"]])
    assert orders[0] == orders[1]


def test_reduce_command(capsys, tmp_path):
    entries = np.array([[1.0, -1.0], [-1.0, 1.0]])
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(entries).to_json_dict()))
    code, payload = run(capsys, ["reduce", str(gram_path)])
    assert code == 0
    assert payload["n"] == 1
    assert payload["class_map"] == [0, 0]
    assert payload["equal_class_sizes"] is True


def test_reduce_command_unequal_classes(capsys, tmp_path):
    # lines e1, -e1, e2: classes of sizes 2 and 1
    synth = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(synth.T @ synth).to_json_dict()))
    with pytest.warns(UserWarning, match="unequal sizes"):
        code, payload = run(capsys, ["reduce", str(gram_path)])
    assert code == 0
    assert payload["class_map"] == [0, 0, 2]
    assert payload["class_count"] == 2
    assert payload["equal_class_sizes"] is False


def test_heisenberg_command_exact_and_verify(capsys):
    code, payload = run(capsys, ["heisenberg", "--moduli", "3", "--parity", "odd", "--verify"])
    assert code == 0
    assert payload["closed_equals_direct"] is True
    assert payload["report"]["n"] == 9
    assert payload["report"]["d"] == 3
    assert payload["report"]["is_etf"] is True
    assert payload["exact_entries"][0][0]["zeta_den"] == 3


def test_heisenberg_command_float_output(capsys):
    code, payload = run(capsys, ["heisenberg", "--moduli", "3", "--parity", "even", "--float"])
    assert code == 0
    assert "gram" in payload
    assert payload["report"]["d"] == 6
    assert abs(payload["report"]["coherence"] - 0.25) < 1e-9


def test_heisenberg_rejects_even_moduli(capsys):
    code, _ = run(capsys, ["heisenberg", "--moduli", "4", "--parity", "odd"])
    assert code == 2


def test_heisenberg_verify_reports_a_disagreeing_direct_gram(capsys, monkeypatch):
    import linepack.cli as cli

    direct = cli.heis_etf_gram_direct

    def shifted(spec, gamma, parity):
        rows = direct(spec, gamma, parity)
        first = next(rows)
        first[1] = np.roll(first[1], 1)
        return itertools.chain([first], rows)

    monkeypatch.setattr(cli, "heis_etf_gram_direct", shifted)
    code = main(["heisenberg", "--moduli", "3", "--parity", "odd", "--verify"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "closed-form Gram disagrees" in captured.err


def test_heisenberg_verify_past_the_direct_cap_is_refused_before_the_closed_form(capsys, monkeypatch):
    # Z_3^4: |A| = 81 is past the direct traces' cap, while the closed form's
    # 6561^2 * 3 terms are under the size limit and would be built first
    def closed_form(*args):
        raise AssertionError("the closed form was built")

    monkeypatch.setattr(cli, "heis_etf_gram", closed_form)
    code = main(["heisenberg", "--moduli", "3,3,3,3", "--verify"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "capped at |A| <= 49" in captured.err


def test_heisenberg_oversized_gram_is_refused_at_once(capsys):
    # Z_101: a 10201 x 10201 Gram over 101st roots of unity, 1.05e10 terms
    start = time.monotonic()
    code = main(["heisenberg", "--moduli", "101"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert "resource limit" in captured.err
    assert time.monotonic() - start < 10.0


def test_harmonic_command(capsys):
    # the comma form and the flat and nested JSON forms name the same subset
    for subset in ("1,2,4", "[1, 2, 4]", "[[1], [2], [4]]"):
        code, payload = run(capsys, ["harmonic", "--moduli", "7", "--subset", subset])
        assert code == 0
        assert payload["subset"] == [[1], [2], [4]]
        assert payload["difference_set"] is True
        assert payload["lambda"] == 1
        assert payload["report"]["is_etf"] is True
    code, payload = run(capsys, ["harmonic", "--moduli", "4", "--subset", "0,1"])
    assert code == 0
    assert payload["difference_set"] is False
    assert payload["report"]["is_etf"] is False


def test_harmonic_multi_moduli_json_subset(capsys):
    code, payload = run(capsys, ["harmonic", "--moduli", "2,2", "--subset", "[[0,0],[1,1]]"])
    assert code == 0
    assert payload["report"]["n"] == 4


def test_symmetry_command(capsys, tmp_path):
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(np.eye(4)).to_json_dict()))
    code, payload = run(capsys, ["symmetry", str(gram_path)])
    assert code == 0
    assert payload["order"] == 24
    assert payload["transitive"] is True


def test_symmetry_ambiguity_exit_code(capsys, tmp_path):
    entries = np.eye(3)
    entries[0, 1] = entries[1, 0] = 0.5
    entries[0, 2] = entries[2, 0] = 0.5 + 3e-7
    entries[1, 2] = entries[2, 1] = 0.25
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(entries).to_json_dict()))
    code, _ = run(capsys, ["symmetry", str(gram_path), "--tol", "1e-7"])
    assert code == 3


@pytest.mark.parametrize("drop_generator,extra", [(False, 1), (True, 0)], ids=["overcount", "undercount"])
def test_symmetry_order_disagreement_exit_code(capsys, tmp_path, monkeypatch, drop_generator, extra):
    import linepack.symmetry as symmetry

    search = symmetry.colored_graph_automorphisms

    def miscounted(color, node_cap):
        gens, order = search(color, node_cap)
        return (gens[:-1] if drop_generator else gens), order + extra

    monkeypatch.setattr(symmetry, "colored_graph_automorphisms", miscounted)
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(np.eye(4)).to_json_dict()))
    code = main(["symmetry", str(gram_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "search order bookkeeping disagrees with the stabilizer chain" in captured.err


def test_heisenberg_direct_cap_is_resource_error(capsys):
    from linepack.errors import ResourceError
    from linepack.heisenberg import GammaTwist, heis_etf_gram_direct, make_spec

    with pytest.raises(ResourceError):
        heis_etf_gram_direct(make_spec((3, 17)), GammaTwist(1), "odd")


GRAM_I2 = json.dumps(GramMatrix.from_entries(np.eye(2)).to_json_dict())


@pytest.mark.parametrize(
    "files, argv",
    [
        ({}, ["scheme", "/nonexistent/group.json"]),
        ({"g": "{not json"}, ["scheme", "@g"]),
        ({"g": "5"}, ["scheme", "@g"]),
        ({"g": '{"degree": "x", "generators": []}'}, ["scheme", "@g"]),
        ({"g": "[1, 2"}, ["symmetry", "@g"]),
        ({"g": '{"n": 1}'}, ["symmetry", "@g"]),
        ({"g": '{"n": 2, "entries": [1, 2]}'}, ["symmetry", "@g"]),
        ({"g": '{"degree": 3.9, "generators": [[1, 2, 0]]}'}, ["scheme", "@g"]),
        ({"g": '{"degree": 3, "generators": [[1.7, 2, 0]]}'}, ["scheme", "@g"]),
        ({"g": '{"degree": 3, "generators": [[true, 2, 0]]}'}, ["scheme", "@g"]),
        ({"g": '{"degree": 3, "generators": "(0 1 2)"}'}, ["scheme", "@g"]),
        ({"g": '{"n": 2.5, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}'}, ["reduce", "@g"]),
        ({"g": '{"n": true, "entries": [[[1, 0]]]}'}, ["symmetry", "@g"]),
        ({"g": GRAM_I2.replace("1.0", "true", 1)}, ["reduce", "@g"]),
        # json.loads reads the non-standard literals NaN and Infinity as floats
        ({"g": GRAM_I2.replace("1.0", "NaN", 1)}, ["reduce", "@g"]),
        ({"g": GRAM_I2.replace("1.0", "NaN", 1)}, ["symmetry", "@g"]),
        ({"g": GRAM_I2.replace("1.0", "Infinity", 1)}, ["reduce", "@g"]),
        ({"g": GRAM_I2.replace("1.0", "Infinity", 1)}, ["symmetry", "@g"]),
        ({}, ["scheme", "fixture:nosuch"]),
        ({}, ["scheme", "fixture:s1"]),
        ({}, ["scheme", "fixture:heis11"]),
        ({"g": '{"degree": -1, "generators": []}'}, ["scheme", "@g", "--action", "regular"]),
        ({"g": '{"degree": 2, "generators": ["(0 1)(0 1)"]}'}, ["scheme", "@g"]),
        ({"g": '{"degree": 3, "generators": ["(0 1)(1 2)"]}'}, ["scheme", "@g"]),
        ({}, ["heisenberg", "--moduli", "x"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "a"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "[[1, 2"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "[1.5, 2, 4]"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "[true, 2, 4]"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", '["1", 2, 4]']),
        ({}, ["harmonic", "--moduli", "7", "--subset", "[[1.0], [2], [4]]"]),
        ({}, ["harmonic", "--moduli", "3,3", "--subset", "[[0, 1], [false, 2]]"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "1,2,4,4"]),
        ({"g": GRAM_I2}, ["symmetry", "@g", "--node-cap=-1"]),
    ],
    ids=[
        "missing-group",
        "malformed-group",
        "group-not-an-object",
        "group-bad-degree",
        "malformed-gram",
        "gram-without-entries",
        "gram-bad-entries",
        "float-degree",
        "float-image",
        "bool-image",
        "generators-not-a-list",
        "float-gram-n",
        "bool-gram-n",
        "bool-gram-entry",
        "nan-gram-reduce",
        "nan-gram-symmetry",
        "infinite-gram-reduce",
        "infinite-gram-symmetry",
        "unknown-fixture",
        "s1-fixture",
        "heis11-fixture",
        "negative-degree",
        "cycles-sharing-all-points",
        "cycles-sharing-one-point",
        "bad-moduli",
        "bad-subset",
        "bad-json-subset",
        "float-subset",
        "bool-subset",
        "string-subset",
        "nested-float-subset",
        "nested-bool-subset",
        "repeated-subset",
        "negative-node-cap",
    ],
)
def test_missing_file_is_input_error(capsys, tmp_path, files, argv):
    # "@name" in argv stands for the file written from files[name]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    code = main([str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: ")
    assert captured.out == ""


@pytest.mark.parametrize("point", [3, 10**30], ids=["at-the-degree", "past-any-list"])
def test_cycle_point_past_the_degree_is_input_error(capsys, tmp_path, point):
    # 10**30 images cannot be listed: the point is refused before any image list
    path = tmp_path / "group.json"
    path.write_text(json.dumps({"degree": 3, "generators": [f"(0 {point})"]}))
    code = main(["scheme", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: cycle point {point} is not below the degree 3")
    assert captured.out == ""


@pytest.mark.parametrize("size", ["0", "-1"])
def test_scan_etf_rejects_max_subset_size_below_one(capsys, size):
    code = main(["scan-etf", "fixture:agl", "--max-subset-size", size])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-subset-size" in captured.err


# every command that once took --tol, with "@g" standing for a written Gram file;
# only reduce and symmetry, whose Gram comes from a file, still take it
TOL_COMMANDS = {
    "idempotents": ["idempotents", "fixture:sl2_f8"],
    "scan-etf": ["scan-etf", "fixture:sl2_f8"],
    "reduce": ["reduce", "@g"],
    "heisenberg": ["heisenberg", "--moduli", "3"],
    "harmonic": ["harmonic", "--moduli", "7", "--subset", "1,2,4"],
    "symmetry": ["symmetry", "@g"],
}


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("command", sorted(TOL_COMMANDS))
def test_tol_must_be_positive_and_finite(capsys, tmp_path, command, tol):
    (tmp_path / "g").write_text(GRAM_I2)
    argv = [str(tmp_path / "g") if a == "@g" else a for a in TOL_COMMANDS[command]]
    argv.append(f"--tol={tol}")
    if command in ("reduce", "symmetry"):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.err.startswith("input error: --tol must be positive and finite")
    else:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        code, captured = exc.value.code, capsys.readouterr()
        assert f"unrecognized arguments: --tol={tol}" in captured.err
    assert code == 2
    assert captured.out == ""


def test_parsed_defaults_are_the_library_constants():
    from linepack import symmetry
    from linepack.cli import build_parser

    parse = build_parser().parse_args
    assert parse(["symmetry", "g.json"]).node_cap == symmetry.DEFAULT_NODE_CAP
    assert parse(["reduce", "g.json"]).tol == frames.REDUCE_TOL
    assert parse(["symmetry", "g.json"]).tol == frames.COLOR_TOL


def test_closed_stdout_ends_quietly():
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "linepack.cli", "heisenberg", "--moduli", "13"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{\n  "exact'
    proc.stdout.close()
    assert proc.wait(timeout=60) == 0
    assert proc.stderr.read() == b""
    proc.stderr.close()


@pytest.mark.parametrize("command", ["idempotents", "scan-etf"])
def test_seed_must_be_non_negative(capsys, command):
    code = main([command, "fixture:sl2_f8", "--seed=-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: --seed must be non-negative")
    assert captured.out == ""


def test_zero_node_cap_is_a_resource_limit(capsys, tmp_path):
    # a cap of 0 is in range, and the identity Gram's search spends a node
    (tmp_path / "g").write_text(GRAM_I2)
    code = main(["symmetry", str(tmp_path / "g"), "--node-cap", "0"])
    assert code == 4
    assert capsys.readouterr().err.startswith("resource limit: ")


# `scheme` builds no idempotents, so it has no --tol or --seed to ignore
@pytest.mark.parametrize(
    "flag", ["--tol=1e-3", "--tol=-1", "--tol=0", "--tol=nan", "--tol=inf", "--seed=5", "--seed=-1"]
)
def test_scheme_refuses_tol_and_seed(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["scheme", "fixture:agl", flag])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == ""


def test_verify_figures_command(capsys):
    code, payload = run(capsys, ["verify-figures"])
    assert code == 0
    assert payload["figure2"]["passed"] is True
    assert payload["figure3"]["passed"] is True
    assert payload["figure4"]["passed"] is True


def test_verify_figures_fails_on_a_wrong_figure2(capsys, monkeypatch):
    entries = fixtures.figure2_gram().entries.copy()
    i, j = np.argwhere(np.isclose(entries, 1 / 12))[0]
    entries[i, j] = entries[j, i] = -1 / 12
    monkeypatch.setattr(fixtures, "figure2_gram", lambda: GramMatrix.from_entries(entries))
    checks = cli._verify_figure2()
    # one ±1/12 pair changes sign: the entry histogram and the isomorphism fail,
    # while the computed frame is still the 28-line ETF
    assert checks["entry_multiset_matches"] is False
    assert checks["permutation_equivalent"] is False
    assert checks["coherence_is_welch_28_7"] is True
    assert checks["passed"] is False
    code = main(["verify-figures"])
    captured = capsys.readouterr()
    assert code == 3
    assert "figure2: FAIL" in captured.err
    assert captured.out == ""


def test_output_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, _ = run(capsys, ["harmonic", "--moduli", "3", "--subset", "0,1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["is_etf"] is True


def test_unwritable_output_is_input_error(capsys, tmp_path):
    out = tmp_path / "missing" / "res.json"
    code = main(["harmonic", "--moduli", "7", "--subset", "1,2,4", "--output", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: cannot write output file {out}")
    assert captured.out == ""


@pytest.mark.parametrize("name", ["../cli.py", "../data/agl_f2_3_lines.json", ".", ""])
def test_fixture_names_stay_in_the_data_directory(capsys, name):
    code = main(["scheme", f"fixture:{name}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"input error: no such fixture: {name}")
    assert captured.out == ""


def test_malformed_fixture_is_input_error(capsys, tmp_path, monkeypatch):
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.setattr(fixtures.resources, "files", lambda package: tmp_path)
    code = main(["scheme", "fixture:broken.json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("input error: fixture broken.json is not valid JSON")


def test_determinism_byte_identical(capsys):
    argv = ["scan-etf", "fixture:z5", "--action", "regular", "--seed", "11"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


def test_scheme_past_the_array_limit_exits_4_at_once(capsys, monkeypatch):
    # an 11586-cycle: its 11586 x 11586 orbital matrix would pass 2^27 entries;
    # S_9 regular (n = 362880) is refused from its order, before any element is listed;
    # S_2000 on pairs (n = 3998000) from its degree, before any pair is listed;
    # the harmonic Gram of Z_11586 before any character value is formed
    def listed(*args):
        raise AssertionError("the points were listed")

    monkeypatch.setattr(PermutationGroup, "elements", listed)
    monkeypatch.setattr(cli, "induced_pair_action", listed)
    monkeypatch.setattr(frames, "_dual_value", listed)
    cases = [
        (["scheme", "fixture:z11586"], "orbital matrix"),
        (["idempotents", "fixture:s9", "--action", "regular"], "orbital matrix"),
        (["scheme", "fixture:s2000", "--action", "pairs"], "orbital matrix"),
        (["harmonic", "--moduli", "11586", "--subset", "1"], "harmonic Gram"),
    ]
    for argv, what in cases:
        start = time.monotonic()
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "resource limit" in captured.err and what in captured.err
        assert time.monotonic() - start < 10.0


@pytest.mark.parametrize(
    "argv",
    [
        ["scan-etf", "fixture:agl", "--multiplicity-free-only"],
        ["symmetry", "@g", "--assume-colors", "@g"],
        ["scheme", "fixture:agl", "--element-limit", "5"],
    ],
    ids=["multiplicity-free-only", "assume-colors", "element-limit"],
)
def test_retired_flags_are_unrecognized(capsys, tmp_path, argv):
    (tmp_path / "g").write_text(GRAM_I2)
    with pytest.raises(SystemExit) as exc:
        main([str(tmp_path / "g") if a == "@g" else a for a in argv])
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert f"unrecognized arguments: {argv[2]}" in captured.err


def test_every_export_has_a_caller():
    # each name the package exports is reached by a command, an acceptance
    # criterion or the README (the Library API section lists the rest)
    root = Path(__file__).resolve().parent.parent
    init = ast.parse((root / "src" / "linepack" / "__init__.py").read_text())
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    callers = "\n".join(
        (root / path).read_text()
        for path in ("src/linepack/cli.py", "tests/test_acceptance.py", "README.md")
    )
    unreached = [name for name in exported if not re.search(rf"\b{name}\b", callers)]
    assert len(exported) > 40 and unreached == []
