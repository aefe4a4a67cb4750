import numpy as np
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from linepack.fixtures import (
    agl_line_action,
    fiducial_vector,
    figure2_gram,
    figure3_gram,
    figure4_gram,
    hoggar_heisenberg_action,
    hoggar_stabilizer_generators,
    m11_action,
    pauli_tensor_generators,
    sl2_f8_action,
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
from linepack.permgroup import induced_pair_action, is_transitive
from linepack.scheme import is_commutative, scheme_from_action, stable_matrix_check
from linepack.symmetry import gram_symmetry_group


def sympy_group(group):
    """The group as a sympy.combinatorics group, the point stabilizer oracle."""
    return SympyGroup([SympyPermutation(list(g.images)) for g in group.generators])


def test_agl_fixture_structure():
    action = agl_line_action()
    assert action.point_count == 28
    assert is_transitive(action)
    assert action.group.order == 1344  # |F_2^3| * |GL(3,2)| = 8 * 168
    assert sympy_group(action.group).stabilizer(0).order() == 48


def test_agl_is_multiplicity_free():
    scheme = scheme_from_action(agl_line_action())
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
    scheme = scheme_from_action(agl_line_action())
    dec = central_primitive_idempotents(scheme)
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    gram = projection_from_subset(dec, rank7)
    group = gram_symmetry_group(gram)
    assert group.order >= 1344
    for g in agl_line_action().group.generators:
        assert group.contains(g)
        assert stable_matrix_check(scheme, gram.entries)


def test_gelfand_pair_inherited_by_symmetry_group():
    # the full symmetry group of a Gram from a commutative scheme again
    # has a commutative orbital scheme
    scheme = scheme_from_action(agl_line_action())
    dec = central_primitive_idempotents(scheme)
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    gram = projection_from_subset(dec, rank7)
    group = gram_symmetry_group(gram)
    from linepack.permgroup import GroupAction

    bigger = scheme_from_action(GroupAction(group))
    assert is_commutative(bigger)
    assert stable_matrix_check(bigger, gram.entries)


def test_sl2_f8_orbital_count_matches_stabilizer_orbits():
    # orbital count of the 72-point scheme = point-stabilizer orbit count
    pairs = induced_pair_action(sl2_f8_action())
    scheme = scheme_from_action(pairs)
    orbits = sympy_group(pairs.group).stabilizer(0).orbits()
    assert scheme.n_orbitals == len(orbits) == 12


def test_sl2_f8_fixture_structure():
    action = sl2_f8_action()
    assert action.point_count == 9
    assert action.group.order == 504
    pairs = induced_pair_action(action)
    assert pairs.point_count == 72
    assert is_transitive(pairs)  # the source action is 2-transitive


def test_sl2_f8_decomposition_seed_independent():
    scheme = scheme_from_action(induced_pair_action(sl2_f8_action()))
    a = central_primitive_idempotents(scheme, seed=0)
    b = central_primitive_idempotents(scheme, seed=99)
    assert a.ranks == b.ranks
    assert np.abs(a.coefficients - b.coefficients).max() < 1e-7


def test_m11_fixture_structure():
    action = m11_action()
    assert action.point_count == 12
    assert action.group.order == 7920
    assert sympy_group(action.group).stabilizer(0).order() == 660
    pairs = induced_pair_action(action)
    assert pairs.point_count == 132
    assert is_transitive(pairs)


def test_m11_66_lines_in_r11():
    # trivial constituent plus the unique degree-10 one, reduced:
    # 66 unit vectors in R^11 with coherence 1/3, a tight frame
    pairs = induced_pair_action(m11_action())
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
