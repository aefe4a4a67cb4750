import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from linepack.errors import MAX_ARRAY_ENTRIES, InputError, ResourceError
from linepack.fixtures import named_group
from linepack.permgroup import (
    GroupAction,
    PermutationGroup,
    induced_pair_action,
    regular_action,
)
from linepack.scheme import (
    SchurianScheme,
    conjugacy_class_scheme,
    is_commutative,
    scheme_from_action,
    stable_matrix_check,
)
from test_group_arrays import reference_structure_constants

S3 = named_group("s3")
Z4 = named_group("z4")
Q8_GENS = ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"]  # i, j acting on {±1,±i,±j,±k}


def brute_force_class_sizes(group):
    """Oracle: conjugacy class sizes by full enumeration."""
    elems = group.elements()
    index = {p.images: i for i, p in enumerate(elems)}
    unseen = set(range(len(elems)))
    sizes = []
    while unseen:
        i = min(unseen)
        frontier = [elems[i]]
        cls = {i}
        unseen.remove(i)
        while frontier:
            x = frontier.pop()
            for g in elems:
                y = g * x * g.inverse()
                j = index[y.images]
                if j in unseen:
                    unseen.remove(j)
                    cls.add(j)
                    frontier.append(y)
        sizes.append(len(cls))
    return sorted(sizes)


def test_s3_natural_scheme():
    sch = scheme_from_action(GroupAction(S3))
    assert sch.n_orbitals == 2
    assert sch.valencies == (1, 2)
    assert np.array_equal((sch.orbital_of == 0).astype(np.int64), np.eye(3, dtype=np.int64))
    assert is_commutative(sch)


def test_z4_regular_scheme():
    sch = scheme_from_action(regular_action(Z4))
    assert sch.n_orbitals == 4
    assert sch.valencies == (1, 1, 1, 1)
    for i in range(4):
        a = (sch.orbital_of == i).astype(np.int64)
        assert np.array_equal(a.sum(axis=0), np.ones(4, dtype=np.int64))
        assert np.array_equal(a.sum(axis=1), np.ones(4, dtype=np.int64))
    assert is_commutative(sch)


def test_nontransitive_rejected():
    act = GroupAction(PermutationGroup.from_cycles(3, ["(0 1)"]))
    with pytest.raises(InputError):
        scheme_from_action(act)


def test_pair_scheme_orbital_count_matches_stabilizer_orbits():
    # orbital count of a transitive scheme = number of point-stabilizer orbits
    for group in (S3, named_group("s5")):
        act = induced_pair_action(GroupAction(group))
        sch = scheme_from_action(act)
        sym = SympyGroup([SympyPermutation(list(g.images)) for g in act.group.generators])
        assert sch.n_orbitals == len(sym.stabilizer(0).orbits())


def test_partition_and_valency_invariants():
    for act in (
        GroupAction(S3),
        regular_action(S3),
        regular_action(Z4),
        induced_pair_action(GroupAction(S3)),
    ):
        sch = scheme_from_action(act)
        total = sum((sch.orbital_of == i).astype(np.int64) for i in range(sch.n_orbitals))
        assert np.array_equal(total, np.ones_like(total))
        assert sum(sch.valencies) == sch.point_count
        for i in range(sch.n_orbitals):
            a = (sch.orbital_of == i).astype(np.int64)
            a_t = (sch.orbital_of == sch.transpose_pairing[i]).astype(np.int64)
            assert np.array_equal(a.T, a_t)
            assert np.all(a.sum(axis=1) == sch.valencies[i])
            assert np.all(a.sum(axis=0) == sch.valencies[sch.transpose_pairing[i]])


def test_two_transitive_gives_two_orbitals():
    for group in (S3, named_group("s4")):
        sch = scheme_from_action(GroupAction(group))
        assert sch.n_orbitals == 2


def test_algebra_closure_exact():
    sch = scheme_from_action(regular_action(S3))
    p = sch.structure_constants
    # recompute one product densely and compare
    mats = [(sch.orbital_of == k).astype(np.int64) for k in range(sch.n_orbitals)]
    a1, a2 = mats[1], mats[2]
    prod = a1 @ a2
    expected = sum(p[1, 2, k] * mats[k] for k in range(sch.n_orbitals))
    assert np.array_equal(prod, expected)


def test_structure_constants_match_dense_products(fixture_schemes):
    for name, sch in fixture_schemes.items():
        p = sch.structure_constants
        mats = [(sch.orbital_of == i).astype(np.int64) for i in range(sch.n_orbitals)]
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                expected = sum(p[i, j, k] * mats[k] for k in range(sch.n_orbitals))
                assert np.array_equal(a @ b, expected), (name, i, j)


def test_structure_constants_reject_non_orbital_partition():
    # distance classes {0}, {1, 3}, {2} of Z_4, with two entries of row 1 swapped;
    # no group action has these orbitals, so only the test oracle checks closure
    orbital_of = np.array([[0, 1, 2, 1], [2, 0, 1, 1], [2, 1, 0, 1], [1, 2, 1, 0]])
    sch = SchurianScheme(
        point_count=4, orbital_of=orbital_of, valencies=(1, 2, 1), transpose_pairing=(0, 1, 2)
    )
    with pytest.raises(InputError, match="do not close over the orbitals"):
        reference_structure_constants(sch)


def test_pair_codes_allocate_no_n_by_n_array():
    # S_30 on ordered pairs: n = 870, c = 7; a full n x n sort of the codes
    # peaks near 2 * 8 n^2 bytes, the c reference columns near 2 * 8 n c
    sch = scheme_from_action(induced_pair_action(GroupAction(named_group("s30"))))
    n, c = sch.point_count, sch.n_orbitals
    assert (n, c) == (870, 7)
    tracemalloc.start()
    try:
        sch._pair_codes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * n * c


@pytest.mark.parametrize(
    "build, commutative",
    [
        (lambda: GroupAction(named_group("z520")), True),
        (lambda: regular_action(named_group("agl")), False),
    ],
    ids=["z520_natural", "agl_regular"],
)
def test_gelfand_test_runs_past_the_tensor_limit(build, commutative):
    sch = scheme_from_action(build())
    assert sch.n_orbitals**3 > MAX_ARRAY_ENTRIES
    assert is_commutative(sch) is commutative
    with pytest.raises(ResourceError, match=f"structure constants of {sch.n_orbitals} orbitals"):
        sch.structure_constants


def test_commutativity_examples():
    assert is_commutative(scheme_from_action(regular_action(S3))) is False
    assert is_commutative(conjugacy_class_scheme(S3)) is True
    for n in (3, 5, 6):
        zn = named_group(f"z{n}")
        assert is_commutative(scheme_from_action(regular_action(zn))) is True


def test_conjugacy_class_scheme_examples():
    z3 = named_group("z3")
    sch = conjugacy_class_scheme(z3)
    reg = scheme_from_action(regular_action(z3))
    assert sch.n_orbitals == reg.n_orbitals == 3
    assert sch.valencies == (1, 1, 1)

    sch = conjugacy_class_scheme(S3)
    assert sch.n_orbitals == 3
    assert sorted(sch.valencies) == brute_force_class_sizes(S3)
    assert sch.valencies == (1, 2, 3)

    q8 = PermutationGroup.from_cycles(8, Q8_GENS)
    assert q8.order == 8
    sch = conjugacy_class_scheme(q8)
    assert sch.n_orbitals == 5
    assert sorted(sch.valencies) == brute_force_class_sizes(q8)
    assert is_commutative(sch)


@pytest.mark.parametrize(
    "group",
    [named_group("z6"), PermutationGroup.from_cycles(6, ["(0 1)", "(2 3 4 5)"])],
    ids=["Z6", "Z2xZ4"],
)
def test_abelian_class_scheme_is_regular_scheme(group):
    # for abelian G both entry points label the pair (x, y) by x^-1 y, so
    # the canonical relabelling must give the same scheme from both
    classes = conjugacy_class_scheme(group)
    regular = scheme_from_action(regular_action(group))
    assert classes.n_orbitals == regular.n_orbitals == group.order
    assert np.array_equal(classes.orbital_of, regular.orbital_of)
    assert classes.valencies == regular.valencies
    assert classes.transpose_pairing == regular.transpose_pairing


def test_stable_matrix_check():
    sch = scheme_from_action(GroupAction(S3))
    n = 3
    assert stable_matrix_check(sch, np.ones((n, n)))
    assert stable_matrix_check(sch, np.eye(n))
    assert not stable_matrix_check(sch, np.diag([1.0, 2.0, 3.0]))
    with pytest.raises(InputError):
        stable_matrix_check(sch, np.ones((2, 2)))
    # exact rational path
    j = [[Fraction(1, 3)] * 3 for _ in range(3)]
    assert stable_matrix_check(sch, j)
    j[0][1] = Fraction(1, 4)
    assert not stable_matrix_check(sch, j)
    # Fractions are compared exactly, with no float slack
    j[0][1] = Fraction(1, 3) + Fraction(1, 10**12)
    assert not stable_matrix_check(sch, j)
    with pytest.raises(InputError):
        stable_matrix_check(sch, [[1, 1, 1], [1, 1], [1, 1, 1]])


def test_one_point_degenerate_scheme():
    from linepack.idempotents import central_primitive_idempotents

    trivial = PermutationGroup(1, [])
    sch = scheme_from_action(GroupAction(trivial))
    assert sch.n_orbitals == 1
    assert is_commutative(sch)
    dec = central_primitive_idempotents(sch)
    assert dec.ranks == (1,)
    assert dec.trivial_index == 0


def test_scheme_json_export():
    sch = scheme_from_action(GroupAction(S3))
    d = sch.to_json_dict()
    assert d["n"] == 3
    assert d["valencies"] == [1, 2]
    assert d["orbitals"][0][0] == [0, [0]]
