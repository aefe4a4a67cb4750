import json

import numpy as np
import pytest

from linepack.cli import main
from linepack.frames import GramMatrix


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


def test_scheme_regular_nonabelian(capsys, tmp_path):
    group = {"degree": 3, "generators": ["(0 1 2)", "(0 1)"]}
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(group))
    code, payload = run(capsys, ["scheme", str(path), "--action", "regular"])
    assert code == 0
    assert payload["n"] == 6
    assert payload["commutative"] is False


def test_idempotents_command(capsys, tmp_path):
    group = {"degree": 3, "generators": ["(0 1 2)", "(0 1)"]}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(group))
    code, payload = run(capsys, ["idempotents", str(path)])
    assert code == 0
    assert payload["ranks"] == [1, 2]
    assert payload["multiplicity_free"] is True


def test_scan_etf_finds_harmonic_difference_set(capsys, tmp_path):
    group = {"degree": 7, "generators": ["(0 1 2 3 4 5 6)"]}
    path = tmp_path / "z7.json"
    path.write_text(json.dumps(group))
    code, payload = run(capsys, ["scan-etf", str(path), "--action", "regular"])
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


def test_scan_etf_subset_cap(capsys, tmp_path):
    group = {"degree": 21, "generators": ["(" + " ".join(map(str, range(21))) + ")"]}
    path = tmp_path / "z21.json"
    path.write_text(json.dumps(group))
    code, _ = run(capsys, ["scan-etf", str(path), "--action", "regular"])
    assert code == 4


def test_scan_etf_subset_cap_counts_scanned_subsets(capsys, tmp_path):
    # 31 projections, but only the 31 + 465 subsets of size at most 2 are scanned
    group = {"degree": 31, "generators": ["(" + " ".join(map(str, range(31))) + ")"]}
    path = tmp_path / "z31.json"
    path.write_text(json.dumps(group))
    code, payload = run(capsys, ["scan-etf", str(path), "--max-subset-size", "2"])
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


def test_harmonic_command(capsys):
    code, payload = run(capsys, ["harmonic", "--moduli", "7", "--subset", "1,2,4"])
    assert code == 0
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


def test_symmetry_assume_colors(capsys, tmp_path):
    # a supplied coloring overrides value clustering entirely
    gram_path = tmp_path / "gram.json"
    gram_path.write_text(json.dumps(GramMatrix.from_entries(np.eye(3)).to_json_dict()))
    colors = {"color": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    colors_path = tmp_path / "colors.json"
    colors_path.write_text(json.dumps(colors))
    code, payload = run(capsys, ["symmetry", str(gram_path), "--assume-colors", str(colors_path)])
    assert code == 0
    assert payload["order"] == 6


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
        ({"g": GRAM_I2}, ["symmetry", "@g", "--assume-colors", "/nonexistent/colors.json"]),
        ({"g": GRAM_I2, "c": "{}"}, ["symmetry", "@g", "--assume-colors", "@c"]),
        ({}, ["scheme", "fixture:nosuch"]),
        ({}, ["heisenberg", "--moduli", "x"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "a"]),
        ({}, ["harmonic", "--moduli", "7", "--subset", "[[1, 2"]),
    ],
    ids=[
        "missing-group",
        "malformed-group",
        "group-not-an-object",
        "group-bad-degree",
        "malformed-gram",
        "gram-without-entries",
        "gram-bad-entries",
        "missing-colors",
        "colors-without-color",
        "unknown-fixture",
        "bad-moduli",
        "bad-subset",
        "bad-json-subset",
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


@pytest.mark.parametrize("size", ["0", "-1"])
def test_scan_etf_rejects_max_subset_size_below_one(capsys, size):
    code = main(["scan-etf", "fixture:agl", "--max-subset-size", size])
    captured = capsys.readouterr()
    assert code == 2
    assert "--max-subset-size" in captured.err


def test_verify_figures_command(capsys):
    code, payload = run(capsys, ["verify-figures"])
    assert code == 0
    assert payload["figure2"]["passed"] is True
    assert payload["figure3"]["passed"] is True
    assert payload["figure4"]["passed"] is True


def test_output_flag_writes_file(capsys, tmp_path):
    out = tmp_path / "res.json"
    code, _ = run(capsys, ["harmonic", "--moduli", "3", "--subset", "0,1", "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["is_etf"] is True


def test_determinism_byte_identical(capsys, tmp_path):
    group = {"degree": 5, "generators": ["(0 1 2 3 4)"]}
    path = tmp_path / "z5.json"
    path.write_text(json.dumps(group))
    argv = ["scan-etf", str(path), "--action", "regular", "--seed", "11"]
    code1 = main(argv)
    first = capsys.readouterr().out
    code2 = main(argv)
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second
