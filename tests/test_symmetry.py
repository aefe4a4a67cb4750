import itertools
import math

import numpy as np
import pytest

from linepack import symmetry
from linepack.errors import InputError, NumericError
from linepack.frames import GramMatrix, harmonic_gram
from linepack.idempotents import central_primitive_idempotents, projection_from_subset
from linepack.permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    parse_cycles,
    regular_action,
)
from linepack.scheme import scheme_from_action
from linepack.symmetry import (
    ColoredDigraph,
    color_matrix_from_gram,
    find_gram_isomorphism,
    gram_symmetry_group,
    is_homogeneous,
    regular_subgroup_check,
)

S3 = PermutationGroup.from_cycles(3, ["(0 1 2)", "(0 1)"])


def brute_force_symmetries(entries, tol=1e-9):
    """Oracle: all permutations commuting with the matrix, by enumeration."""
    n = entries.shape[0]
    found = []
    for images in itertools.permutations(range(n)):
        p = np.zeros((n, n))
        for y, x in enumerate(images):
            p[x, y] = 1.0
        if np.abs(p @ entries - entries @ p).max() <= tol:
            found.append(images)
    return found


def test_identity_gives_full_symmetric_group():
    for n in (3, 5, 6):
        g = gram_symmetry_group(GramMatrix.from_entries(np.eye(n)))
        assert g.order == math.factorial(n)


def test_simplex_gives_full_symmetric_group():
    n = 5
    simplex = GramMatrix.from_entries(np.eye(n) - np.full((n, n), 1 / n))
    assert gram_symmetry_group(simplex).order == math.factorial(n)
    assert is_homogeneous(simplex)


def test_blocked_diagonal_not_homogeneous():
    g = GramMatrix.from_entries(np.diag([1.0, 2.0]))
    assert not is_homogeneous(g)


def test_all_ones_homogeneous():
    g = GramMatrix.from_entries(np.full((4, 4), 0.25))
    assert is_homogeneous(g)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_completeness_against_brute_force(n):
    # circulant Gram: symmetries computed two ways must agree exactly
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n // 2 + 1)
    entries = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d = min((i - j) % n, (j - i) % n)
            entries[i, j] = c[d] if i != j else 2.0
    gram = GramMatrix.from_entries(entries)
    group = gram_symmetry_group(gram)
    oracle = brute_force_symmetries(entries)
    assert group.order == len(oracle)
    for images in oracle:
        assert group.contains(Permutation(images))


def test_symmetry_group_soundness():
    gram = harmonic_gram([5], [(0,), (1,), (4,)])
    group = gram_symmetry_group(gram)
    for g in group.generators:
        p = np.zeros((5, 5))
        for y in range(5):
            p[g(y), y] = 1.0
        assert np.abs(p @ gram.entries - gram.entries @ p).max() < 1e-6


def test_non_commuting_generator_raises(monkeypatch):
    gram = GramMatrix.from_entries(np.diag([1.0, 2.0, 3.0]))
    swap = parse_cycles("(0 1)", 3)
    monkeypatch.setattr(symmetry, "colored_graph_automorphisms", lambda colors, node_cap: ([swap], 2))
    with pytest.raises(NumericError, match="non-commuting generator"):
        gram_symmetry_group(gram)


@pytest.mark.parametrize("defect,raises", [(0.5e-6, False), (2e-6, True)])
def test_commute_check_bound_is_ten_tol(defect, raises):
    # swapping points 0 and 1 moves the diagonal by `defect`; the bound is 10 * tol * scale
    entries = np.array([[1.0, 0.5], [0.5, 1.0 + defect]])
    colors = ColoredDigraph(2, np.array([[0, 1], [1, 0]]))
    gram = GramMatrix.from_entries(entries)
    if raises:
        with pytest.raises(NumericError, match="non-commuting generator"):
            gram_symmetry_group(gram, tol=1e-7, colors=colors)
    else:
        assert gram_symmetry_group(gram, tol=1e-7, colors=colors).order == 2


def true_simplex_symmetries(n):
    simplex = GramMatrix.from_entries(np.eye(n) - np.full((n, n), 1 / n))
    gens, order = symmetry.colored_graph_automorphisms(color_matrix_from_gram(simplex))
    return simplex, gens, order


@pytest.mark.parametrize(
    "corrupt",
    [
        pytest.param(lambda gens, order: (gens, order + 1), id="order-overcount"),
        pytest.param(lambda gens, order: (gens[:-1], order), id="lost-generator"),
        pytest.param(lambda gens, order: (gens, order // 2), id="order-undercount"),
    ],
)
def test_order_cross_check_catches_bookkeeping_errors(monkeypatch, corrupt):
    simplex, gens, order = true_simplex_symmetries(5)
    bad_gens, bad_order = corrupt(gens, order)
    assert PermutationGroup(5, bad_gens).order != bad_order
    monkeypatch.setattr(
        symmetry, "colored_graph_automorphisms", lambda colors, node_cap: (bad_gens, bad_order)
    )
    with pytest.raises(NumericError, match="search order bookkeeping disagrees"):
        gram_symmetry_group(simplex)


def test_scheme_action_contained_in_symmetry_group():
    # generators of the acting group commute with every G_D by construction
    act = regular_action(PermutationGroup.from_cycles(5, ["(0 1 2 3 4)"]))
    sch = scheme_from_action(act)
    dec = central_primitive_idempotents(sch)
    gram = projection_from_subset(dec, [0, 1])
    group = gram_symmetry_group(gram)
    for g in act.group.generators:
        assert group.contains(g)
    assert is_homogeneous(gram)


def test_ambiguous_values_raise():
    entries = np.eye(3)
    entries[0, 1] = entries[1, 0] = 0.5
    entries[0, 2] = entries[2, 0] = 0.5 + 3e-7
    entries[1, 2] = entries[2, 1] = 0.25
    with pytest.raises(NumericError):
        gram_symmetry_group(GramMatrix.from_entries(entries), tol=1e-7)


def test_exact_color_path():
    from fractions import Fraction

    n = 3
    entries = np.full((n, n), 1 / 3)
    exact = [[(Fraction(1, 3), 0)] * n for _ in range(n)]
    gram = GramMatrix(n, np.array(entries), "rational", exact)
    colored = color_matrix_from_gram(gram)
    assert len(np.unique(colored.color)) == 1
    assert gram_symmetry_group(gram).order == 6


def test_find_gram_isomorphism():
    base = harmonic_gram([7], [(1,), (2,), (4,)])
    perm = parse_cycles("(0 3 5)(1 2 6 4)", 7)
    idx = np.array([perm(i) for i in range(7)])
    shuffled = np.empty_like(base.entries)
    for x in range(7):
        for y in range(7):
            shuffled[perm(x), perm(y)] = base.entries[x, y]
    other = GramMatrix.from_entries(shuffled)
    found = find_gram_isomorphism(base, other)
    assert found is not None
    # found carries base onto other entrywise
    for x in range(7):
        for y in range(7):
            assert abs(other.entries[found(x), found(y)] - base.entries[x, y]) < 1e-9
    # a genuinely different matrix does not match
    different = GramMatrix.from_entries(np.eye(7))
    assert find_gram_isomorphism(base, different) is None


def test_node_budget_exhaustion():
    from linepack.errors import ResourceError

    g = GramMatrix.from_entries(np.eye(6))
    with pytest.raises(ResourceError):
        gram_symmetry_group(g, node_cap=2)


def test_regular_subgroup_check_examples():
    act = regular_action(S3)
    assert regular_subgroup_check(act, act.group.generators)
    natural = GroupAction(S3)
    assert regular_subgroup_check(natural, [parse_cycles("(0 1 2)", 3)])
    assert not regular_subgroup_check(natural, [parse_cycles("(0 1)", 3)])
    with pytest.raises(InputError):
        regular_subgroup_check(natural, [parse_cycles("(0 1 2 3)", 4)])
