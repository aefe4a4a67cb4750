import json
import subprocess
import sys
import time

import numpy as np
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from linepack import errors, fixtures
from linepack.cli import main
from linepack.errors import InputError, ResourceError
from linepack.fixtures import (
    fiducial_vector,
    figure2_gram,
    figure3_gram,
    figure4_gram,
    hoggar_heisenberg_action,
    hoggar_stabilizer_generators,
    named_group,
    pauli_tensor_generators,
)
from linepack.frames import (
    coherence,
    gram_rank,
    is_etf,
    is_tight,
    matrix_group_closure,
    naimark_complement,
    projective_reduce,
    welch_bound,
)
from linepack.idempotents import (
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
)
from linepack.heisenberg import heisenberg_permutation_action
from linepack.permgroup import GroupAction, PermutationGroup, induced_pair_action, is_transitive
from linepack.scheme import is_commutative, scheme_from_action, stable_matrix_check
from linepack.symmetry import gram_symmetry_group


def sympy_group(group):
    """The group as a sympy.combinatorics group, the point stabilizer oracle."""
    return SympyGroup([SympyPermutation(list(g.images)) for g in group.generators])


def test_agl_fixture_structure():
    action = GroupAction(named_group("agl"))
    assert action.point_count == 28
    assert is_transitive(action)
    assert action.group.order == 1344  # |F_2^3| * |GL(3,2)| = 8 * 168
    assert sympy_group(action.group).stabilizer(0).order() == 48


def test_agl_is_multiplicity_free():
    scheme = scheme_from_action(GroupAction(named_group("agl")))
    assert is_commutative(scheme)
    dec = central_primitive_idempotents(scheme)
    assert multiplicity_free(dec)
    assert dec.ranks == (1, 6, 7, 14)


def test_figure2_is_etf_and_naimark_complement():
    gram = figure2_gram()
    assert is_etf(gram)
    comp = naimark_complement(gram)
    assert gram_rank(comp) == 21
    assert is_etf(comp)
    assert abs(coherence(comp.normalized()) - welch_bound(28, 21)) < 1e-9


def test_mub_figures_are_tight_not_equiangular():
    for gram in (figure3_gram(), figure4_gram()):
        assert is_tight(gram)
        assert not is_etf(gram)


def test_agl_symmetry_group_contains_the_action():
    scheme = scheme_from_action(GroupAction(named_group("agl")))
    dec = central_primitive_idempotents(scheme)
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    gram = projection_from_subset(dec, rank7)
    group = gram_symmetry_group(gram)
    assert group.order >= 1344
    for g in named_group("agl").generators:
        assert group.contains(g)
        assert stable_matrix_check(scheme, gram.entries)


def test_gelfand_pair_inherited_by_symmetry_group():
    # the full symmetry group of a Gram from a commutative scheme again
    # has a commutative orbital scheme
    scheme = scheme_from_action(GroupAction(named_group("agl")))
    dec = central_primitive_idempotents(scheme)
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    gram = projection_from_subset(dec, rank7)
    group = gram_symmetry_group(gram)
    bigger = scheme_from_action(GroupAction(group))
    assert is_commutative(bigger)
    assert stable_matrix_check(bigger, gram.entries)


def test_sl2_f8_orbital_count_matches_stabilizer_orbits():
    # orbital count of the 72-point scheme = point-stabilizer orbit count
    pairs = induced_pair_action(GroupAction(named_group("sl2_f8")))
    scheme = scheme_from_action(pairs)
    orbits = sympy_group(pairs.group).stabilizer(0).orbits()
    assert scheme.n_orbitals == len(orbits) == 12


def test_sl2_f8_fixture_structure():
    action = GroupAction(named_group("sl2_f8"))
    assert action.point_count == 9
    assert action.group.order == 504
    pairs = induced_pair_action(action)
    assert pairs.point_count == 72
    assert is_transitive(pairs)  # the source action is 2-transitive


def test_sl2_f8_decomposition_seed_independent():
    scheme = scheme_from_action(induced_pair_action(GroupAction(named_group("sl2_f8"))))
    a = central_primitive_idempotents(scheme, seed=0)
    b = central_primitive_idempotents(scheme, seed=99)
    assert a.ranks == b.ranks
    assert np.abs(a.coefficients - b.coefficients).max() < 1e-7


def test_m11_fixture_structure():
    action = GroupAction(named_group("m11"))
    assert action.point_count == 12
    assert action.group.order == 7920
    assert sympy_group(action.group).stabilizer(0).order() == 660
    pairs = induced_pair_action(action)
    assert pairs.point_count == 132
    assert is_transitive(pairs)


def test_m11_66_lines_in_r11():
    # trivial constituent plus the unique degree-10 one, reduced:
    # 66 unit vectors in R^11 with coherence 1/3, a tight frame
    pairs = induced_pair_action(GroupAction(named_group("m11")))
    dec = central_primitive_idempotents(scheme_from_action(pairs))
    ten = [
        j
        for j in range(dec.n_projections)
        if dec.degrees[j] == 10 and dec.multiplicities[j] == 1
    ]
    assert len(ten) == 1
    gram = projection_from_subset(dec, [dec.trivial_index, ten[0]])
    reduced, class_map = projective_reduce(gram)
    assert len(set(class_map)) == 66
    assert gram_rank(reduced) == 11
    assert np.abs(reduced.entries.imag).max() < 1e-9
    assert is_tight(reduced)
    assert abs(coherence(reduced.normalized()) - 1 / 3) < 1e-9


def test_hoggar_group_order():
    action = hoggar_heisenberg_action()
    assert action.group.order == 1_548_288  # 256 * 6048
    u, v = hoggar_stabilizer_generators()
    assert len(matrix_group_closure([u, v], 10_000)) == 6048


def test_hoggar_stabilizers_are_unitary_and_fix_fiducial():
    u, v = hoggar_stabilizer_generators()
    vec = fiducial_vector()
    assert abs(np.linalg.norm(vec) - 1) < 1e-12
    for h in (u, v):
        assert np.abs(h.conj().T @ h - np.eye(8)).max() < 1e-12
        assert np.abs(h @ vec - vec).max() < 1e-9


def test_pauli_tensor_group_is_irreducible_cover():
    gens = pauli_tensor_generators()
    assert len(gens) == 7
    for g in gens:
        assert np.abs(g.conj().T @ g - np.eye(8)).max() < 1e-12


# --- the named groups of ``fixture:NAME`` --------------------------------------

# each family's generator images as the test helpers it replaced wrote them
FAMILY_IMAGES = {
    **{f"s{m}": (lambda m=m: [[(i + 1) % m for i in range(m)], [1, 0, *range(2, m)]]) for m in (3, 4, 5, 6, 30, 45)},
    **{f"z{n}": (lambda n=n: [list(range(1, n)) + [0]]) for n in (3, 4, 5, 6, 7, 40)},
    **{f"d{n}": (lambda n=n: [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]) for n in (4, 20)},
}


@pytest.mark.parametrize("name", sorted(FAMILY_IMAGES))
def test_family_images_are_the_retired_helpers_images(name):
    group = named_group(name)
    images = FAMILY_IMAGES[name]()
    assert group.degree == len(images[0])
    assert [list(g.images) for g in group.generators] == images


def test_families_match_their_cycle_notation():
    def cycle(n):
        return "(" + " ".join(map(str, range(n))) + ")"

    for n in (3, 4, 5, 6, 7):
        assert named_group(f"s{n}").generators == PermutationGroup.from_cycles(n, [cycle(n), "(0 1)"]).generators
        assert named_group(f"z{n}").generators == PermutationGroup.from_cycles(n, [cycle(n)]).generators
    assert named_group("d4").generators == PermutationGroup.from_cycles(4, ["(0 1 2 3)", "(1 3)"]).generators
    assert named_group("s2").order == 2 and named_group("z1").order == 1 and named_group("d3").order == 6


def test_named_actions_are_the_one_builders():
    for p in (3, 5, 7):
        assert named_group(f"heis{p}").generators == heisenberg_permutation_action(p).group.generators
    assert named_group("hoggar").generators == hoggar_heisenberg_action().group.generators


@pytest.mark.parametrize(
    "name, file, degree, order",
    [
        ("agl", "agl_f2_3_lines.json", 28, 1344),
        ("sl2_f8", "sl2_f8_projective.json", 9, 504),
        ("m11", "m11_on_12_points.json", 12, 7920),
    ],
)
def test_shipped_names_read_their_files(name, file, degree, order):
    group = named_group(name)
    assert (group.degree, group.order) == (degree, order)
    assert group.generators == named_group(file).generators


@pytest.mark.parametrize("name", ["s0", "s1", "z0", "d0", "d2", "heis4", "heis9", "heis2", "z07", "s", "heis", "S3", "nosuch"])
def test_names_outside_the_table_are_input_errors(name):
    with pytest.raises(InputError):
        named_group(name)


def test_family_images_are_refused_before_any_is_built(monkeypatch, capsys):
    def built(*args):
        raise AssertionError("an image list was built")

    for family, (least, count, _) in list(fixtures._FAMILIES.items()):
        monkeypatch.setitem(fixtures._FAMILIES, family, (least, count, built))
    start = time.monotonic()
    assert main(["scheme", "fixture:z1000000000"]) == 4
    assert time.monotonic() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == "" and "generator images of z1000000000" in captured.err
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 99)
    for name in ("z100", "s50", "d50"):
        with pytest.raises(ResourceError, match=f"generator images of {name}"):
            named_group(name)
    monkeypatch.undo()
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 100)
    assert named_group("s50").degree == named_group("d50").degree == 50


def test_group_file_images_are_refused_before_any_is_parsed(monkeypatch, capsys, tmp_path):
    # degree x generators counts the images, so a short file cannot ask for a huge list
    def built(*args):
        raise AssertionError("an image list was built")

    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 10**5)
    monkeypatch.setattr(fixtures, "parse_cycles", built)
    monkeypatch.setattr(fixtures, "Permutation", built)
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"degree": 2_000_000, "generators": ["(0 1)"]}))
    assert main(["scheme", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "generator images" in captured.err
    with pytest.raises(ResourceError):
        fixtures.group_from_json({"degree": 50_001, "generators": ["(0 1)", [1, 0]]})
    monkeypatch.undo()
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 10**5)
    assert fixtures.group_from_json({"degree": 50_000, "generators": ["(0 1)", "(1 2)"]}).degree == 50_000
    assert fixtures.group_from_json({"degree": 0, "generators": []}).order == 1


def test_group_argument_help_lists_the_named_groups(capsys):
    for command in ("scheme", "idempotents", "scan-etf"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert " ".join(f"fixture:NAME, NAME one of {fixtures.GROUP_NAMES}".split()) in text


def test_no_group_is_built_at_import():
    probe = (
        "import linepack.permgroup as p\n"
        "built = []\n"
        "init = p.PermutationGroup.__init__\n"
        "p.PermutationGroup.__init__ = lambda self, *a: built.append(a) or init(self, *a)\n"
        "import linepack.cli\n"
        "print(len(built))\n"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "0"
