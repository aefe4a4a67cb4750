import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation as SympyPermutation
from sympy.combinatorics import PermutationGroup as SympyGroup

from linepack import errors, fixtures
from linepack.errors import InputError, ResourceError
from linepack.permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    _StabilizerChain,
    induced_pair_action,
    is_transitive,
    orbit,
    parse_cycles,
    regular_action,
)

S3 = fixtures.named_group("s3")
Z4 = fixtures.named_group("z4")


def brute_force_elements(group):
    """Oracle: full closure by repeated multiplication, no chain involved."""
    seen = {Permutation.identity(group.degree).images}
    frontier = list(seen)
    while frontier:
        new = []
        for imgs in frontier:
            for g in group.generators:
                q = tuple(g.images[j] for j in imgs)
                if q not in seen:
                    seen.add(q)
                    new.append(q)
        frontier = new
    return seen


def test_permutation_validation():
    with pytest.raises(InputError):
        Permutation((0, 0, 1))


def test_compose_and_inverse():
    p = parse_cycles("(0 1 2)", 4)
    q = parse_cycles("(2 3)", 4)
    assert (p * q).images == tuple(p(q(x)) for x in range(4))
    assert (p * p.inverse()).is_identity()
    assert p.inverse().inverse() == p


def test_cycle_parse_roundtrip():
    p = parse_cycles("(0 1 2)(3 4)")
    assert p.degree == 5
    assert parse_cycles("(0 2)", 4).degree == 4 and parse_cycles("", 0).degree == 0
    assert parse_cycles(p.cycle_string()) == p
    assert parse_cycles("( 0 , 1 ) (3 4)", 6) == parse_cycles("(0 1)(3 4)", 6)
    with pytest.raises(InputError):
        parse_cycles("(0 1 junk)")


@pytest.mark.parametrize("text", ["(0 1 0)", "(0 1)(0 1)", "(0 1)(1 2)", "(2)(0 1 2)"])
def test_cycle_parse_refuses_a_repeated_point(text):
    # "(0 1)(0 1)" once read as (0 1), and "(0 1)(1 2)" failed as no permutation
    with pytest.raises(InputError, match="repeated point"):
        parse_cycles(text)
    with pytest.raises(InputError, match="repeated point"):
        PermutationGroup.from_cycles(3, [text])


@pytest.mark.parametrize(
    "text, degree, point",
    [("(0 3)", 3, 3), ("(1 2)(0 4)", 4, 4), ("(0 1)", 0, 1), (f"(0 {10**30})", 3, 10**30)],
    ids=["at-the-degree", "in-a-later-cycle", "degree-0", "past-any-list"],
)
def test_cycle_point_past_the_degree_is_refused(text, degree, point):
    # 10**30 images cannot be listed: the refusal comes before any image list
    message = f"cycle point {point} is not below the degree {degree}"
    with pytest.raises(InputError, match=message):
        parse_cycles(text, degree)
    with pytest.raises(InputError, match=message):
        PermutationGroup.from_cycles(degree, [text])


def test_degree_below_zero_is_refused():
    with pytest.raises(InputError, match="non-negative"):
        PermutationGroup(-3, [])
    assert PermutationGroup(0, []).order == 1
    assert PermutationGroup(0, [Permutation(())]).degree == 0


def test_orbit_examples():
    assert orbit(S3, 0) == {0, 1, 2}
    trivial = PermutationGroup(5, [])
    assert orbit(trivial, 2) == {2}
    g = PermutationGroup.from_cycles(4, ["(0 1)(2 3)"])
    assert orbit(g, 0) == {0, 1}
    with pytest.raises(InputError):
        orbit(S3, 3)


def test_is_transitive_examples():
    assert is_transitive(GroupAction(S3)) is True
    assert is_transitive(GroupAction(PermutationGroup.from_cycles(3, ["(0 1)"]))) is False


@pytest.mark.parametrize(
    "group,expected",
    [
        (S3, 6),
        (Z4, 4),
        (PermutationGroup(4, []), 1),
        (fixtures.named_group("s5"), 120),
        (PermutationGroup.from_cycles(7, ["(0 1 2 3 4 5 6)", "(0 1 2)"]), 2520),
    ],
)
def test_group_order_small(group, expected):
    assert group.order == expected
    assert len(brute_force_elements(group)) == expected


def test_group_order_mathieu12():
    # Mongean-shuffle generators: reversal and the over/under shuffle.
    rev = Permutation(tuple(11 - i for i in range(12)))
    shuf = Permutation(tuple(2 * i + 1 if i < 6 else 22 - 2 * i for i in range(12)))
    m12 = PermutationGroup(12, [rev, shuf])
    assert m12.order == 95040


def test_membership():
    assert S3.contains(parse_cycles("(1 2)", 3))
    a4 = PermutationGroup.from_cycles(4, ["(0 1 2)", "(1 2 3)"])
    assert a4.order == 12
    assert not a4.contains(parse_cycles("(0 1)", 4))


@pytest.mark.parametrize("group", [S3, Z4, fixtures.named_group("d6")])
def test_orbit_stabilizer_invariant(group):
    for x in range(group.degree):
        assert len(orbit(group, x)) * oracle(group).stabilizer(x).order() == group.order


def test_generator_closure_invariant():
    g = fixtures.named_group("d6")
    orb = orbit(g, 0)
    for gen in g.generators:
        assert all(gen(x) in orb for x in orb)


def brute_force_pair_orbits(action):
    """Oracle: orbit count of the pair action by direct closure on pairs."""
    n = action.point_count
    gens = action.group.generators
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    unseen = set(pairs)
    orbits = 0
    while unseen:
        seed = unseen.pop()
        frontier = [seed]
        while frontier:
            (i, j) = frontier.pop()
            for g in gens:
                im = (g(i), g(j))
                if im in unseen:
                    unseen.remove(im)
                    frontier.append(im)
        orbits += 1
    return orbits


def test_induced_pair_action_examples():
    act = induced_pair_action(GroupAction(S3))
    assert act.point_count == 6
    assert is_transitive(act)
    z3 = GroupAction(fixtures.named_group("z3"))
    act = induced_pair_action(z3)
    assert act.point_count == 6
    assert not is_transitive(act)


@pytest.mark.parametrize(
    "group",
    [
        S3,
        fixtures.named_group("s4"),
        fixtures.named_group("z5"),
        PermutationGroup.from_cycles(8, ["(0 1 2 3 4 5 6 7)", "(0 2)(1 3)"]),
    ],
)
def test_pair_action_properties(group):
    src = GroupAction(group)
    act = induced_pair_action(src)
    assert act.group.order == group.order
    # transitive on pairs exactly when the pair-orbit oracle finds one orbit
    assert is_transitive(act) == (brute_force_pair_orbits(src) == 1)


def test_regular_action_examples(monkeypatch):
    act = regular_action(Z4)
    assert act.point_count == 4
    assert is_transitive(act)
    act = regular_action(S3)
    assert act.point_count == 6
    assert is_transitive(act)
    assert act.group.order == 6
    act = regular_action(PermutationGroup(3, []))
    assert act.point_count == 1
    # S_3's 6 elements of degree 3 are 18 entries
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 17)
    with pytest.raises(ResourceError, match="6 elements of degree 3"):
        regular_action(S3)


def test_element_enumeration_deterministic():
    elems1 = S3.elements()
    elems2 = fixtures.named_group("s3").elements()
    assert [p.images for p in elems1] == [p.images for p in elems2]
    assert elems1[0].is_identity()


# --- the stabilizer chain against sympy.combinatorics as an oracle -----------


def alternating_group(n):
    return PermutationGroup.from_cycles(n, [f"(0 1 {k})" for k in range(2, n)])


def wreath_z2_z4():
    """Z_2 wr Z_4 on 8 points: a swap inside block {0, 1}, and the blocks rotated."""
    return PermutationGroup.from_cycles(8, ["(0 1)", "(0 2 4 6)(1 3 5 7)"])


def oracle(group):
    return SympyGroup([SympyPermutation(list(g.images)) for g in group.generators])


ORACLE_GROUPS = {
    "m11": lambda: fixtures.named_group("m11"),
    "sl2_f8": lambda: fixtures.named_group("sl2_f8"),
    "agl_lines": lambda: fixtures.named_group("agl"),
    "m11_pairs": lambda: induced_pair_action(GroupAction(fixtures.named_group("m11"))).group,
    "sl2_f8_pairs": lambda: induced_pair_action(GroupAction(fixtures.named_group("sl2_f8"))).group,
    "agl_lines_pairs": lambda: induced_pair_action(GroupAction(fixtures.named_group("agl"))).group,
    "z2_wr_z4": wreath_z2_z4,
    **{f"S{n}": (lambda n=n: fixtures.named_group(f"s{n}")) for n in range(2, 10)},
    **{f"A{n}": (lambda n=n: alternating_group(n)) for n in range(3, 10)},
}


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_chain_order_matches_sympy(name):
    group = ORACLE_GROUPS[name]()
    assert group.order == oracle(group).order()


def test_oracle_orders_are_the_known_ones():
    assert ORACLE_GROUPS["m11"]().order == 7920
    assert ORACLE_GROUPS["sl2_f8"]().order == 504
    assert ORACLE_GROUPS["agl_lines"]().order == 1344
    assert wreath_z2_z4().order == 2**4 * 4
    assert fixtures.named_group("s9").order == math.factorial(9)
    assert alternating_group(9).order == math.factorial(9) // 2


@st.composite
def generator_sets(draw):
    n = draw(st.integers(2, 8))
    perm = st.permutations(list(range(n)))
    return n, draw(st.lists(perm, max_size=3)), draw(perm)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(generator_sets())
def test_chain_matches_sympy_on_random_generators(case):
    n, gens, probe = case
    group = PermutationGroup(n, [Permutation(tuple(g)) for g in gens])
    sym = SympyGroup([SympyPermutation(g) for g in gens] or [SympyPermutation(list(range(n)))])
    assert group.order == sym.order()
    assert group.contains(Permutation(tuple(probe))) == sym.contains(SympyPermutation(probe))
    assert len(orbit(group, 0)) * sym.stabilizer(0).order() == group.order


def random_word(group, rng, length=30):
    g = group.identity()
    for _ in range(length):
        g = rng.choice(group.generators) * g
    return g


@pytest.mark.parametrize("name", ["m11", "sl2_f8", "agl_lines", "sl2_f8_pairs", "z2_wr_z4", "A7", "A8"])
def test_chain_membership_matches_sympy(name):
    group = ORACLE_GROUPS[name]()
    sym = oracle(group)
    rng = random.Random(name)
    for _ in range(20):
        assert group.contains(random_word(group, rng))
    rejected = 0
    for _ in range(40):
        images = list(range(group.degree))
        rng.shuffle(images)
        g = Permutation(tuple(images))
        member = sym.contains(SympyPermutation(images))
        assert group.contains(g) == member
        rejected += not member
    assert rejected > 0


def test_chain_sifts_each_schreier_pair_at_most_once(monkeypatch):
    calls = []
    sift = _StabilizerChain._sift

    def counting_sift(self, g, start):
        calls.append(start)
        return sift(self, g, start)

    monkeypatch.setattr(_StabilizerChain, "_sift", counting_sift)
    group = fixtures.named_group("s12")
    chain = group.chain()
    assert chain.order() == math.factorial(12)
    pairs = sum(len(level.orbit) * len(level.gens) for level in chain.levels)
    assert len(calls) <= pairs + len(group.generators)
    # one sift from level 0 per input generator; the rest are Schreier pairs
    assert calls.count(0) == len(group.generators)


def python_int_images(perm):
    return isinstance(perm.images, tuple) and all(type(v) is int for v in perm.images)


def test_boundary_permutations_hold_python_ints():
    from linepack.frames import GramMatrix
    from linepack.symmetry import gram_symmetry_group

    m11 = fixtures.named_group("m11")
    assert all(python_int_images(g) for g in m11.generators)
    # array input is converted at the boundary
    group = PermutationGroup(4, [np.array([1, 2, 3, 0]), np.arange(4)[::-1]])
    assert all(python_int_images(g) for g in group.generators)
    n = 6
    simplex = np.full((n, n), -1.0 / (n - 1))
    np.fill_diagonal(simplex, 1.0)
    sym = gram_symmetry_group(GramMatrix(n, simplex))
    assert sym.order == math.factorial(n)
    assert sym.generators and all(python_int_images(g) for g in sym.generators)


def test_permutation_rejects_non_integer_images():
    with pytest.raises(InputError):
        Permutation((0.0, 1.0))
