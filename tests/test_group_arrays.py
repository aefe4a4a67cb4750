"""The array forms of the group layers against the loop code they replaced.

The reference functions are the previous implementations, kept verbatim
as oracles: the breadth-first orbital labelling of ``scheme_from_action``,
the ``np.unique`` ranking inside ``symmetry._joint_refine`` and the
per-(orbital, row) loop of ``SchurianScheme.to_json_dict``.
"""

import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linepack import errors, fixtures
from linepack import scheme as scheme_module
from linepack.errors import InputError, ResourceError
from linepack.permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    induced_pair_action,
    is_transitive,
    orbit,
    regular_action,
)
from linepack.scheme import (
    _canonical_scheme,
    _suborbits,
    conjugacy_class_scheme,
    scheme_from_action,
)
from linepack.symmetry import _rank_rows


def reference_scheme_from_action(action):
    """The breadth-first labelling over all n^2 pairs."""
    if not is_transitive(action):
        raise InputError("scheme construction requires a transitive action")
    n = action.point_count
    gens = [g.images for g in action.group.generators]
    orbital_of = np.full((n, n), -1, dtype=np.int64)
    next_id = 0
    for y0 in range(n):
        if orbital_of[0, y0] >= 0:
            continue
        members = [(0, y0)]
        orbital_of[0, y0] = next_id
        while members:
            new_members = []
            for (x, y) in members:
                for g in gens:
                    gx, gy = g[x], g[y]
                    if orbital_of[gx, gy] < 0:
                        orbital_of[gx, gy] = next_id
                        new_members.append((gx, gy))
            members = new_members
        next_id += 1
    if np.any(orbital_of < 0):
        raise InputError("pair orbits failed to cover X x X")
    return _canonical_scheme(orbital_of)


def reference_rank_rows(rows):
    _, inverse = np.unique(rows, axis=0, return_inverse=True)
    return inverse.ravel()


def reference_to_json_dict(scheme):
    orbitals = []
    for i in range(scheme.n_orbitals):
        rows = []
        for x in range(scheme.point_count):
            cols = np.nonzero(scheme.orbital_of[x] == i)[0]
            rows.append([int(x), [int(c) for c in cols]])
        orbitals.append(rows)
    return {
        "n": scheme.point_count,
        "orbitals": orbitals,
        "valencies": list(scheme.valencies),
    }


def outcome(build, action):
    """The scheme, or the type and text of the input error raised instead."""
    try:
        return build(action)
    except InputError as exc:
        return ("InputError", str(exc))


def assert_same_scheme(action):
    got = outcome(scheme_from_action, action)
    want = outcome(reference_scheme_from_action, action)
    if isinstance(want, tuple):
        assert got == want
        return
    assert got.orbital_of.dtype == want.orbital_of.dtype
    assert np.array_equal(got.orbital_of, want.orbital_of)
    assert got.valencies == want.valencies
    assert got.transpose_pairing == want.transpose_pairing
    assert json.dumps(got.to_json_dict()) == json.dumps(reference_to_json_dict(want))


def cyclic(n):
    return PermutationGroup.from_cycles(n, ["(" + " ".join(map(str, range(n))) + ")"])


def test_battery_matches_reference(fixture_actions):
    for action in fixture_actions.values():
        assert_same_scheme(action)


SHIPPED = {
    "agl": fixtures.agl_line_action,
    "sl2_f8": fixtures.sl2_f8_action,
    "m11": fixtures.m11_action,
}


@pytest.mark.parametrize("label", ["natural", "pairs"])
@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_fixtures_match_reference(name, label):
    # the AGL pair action is intransitive: both must refuse it alike
    action = SHIPPED[name]()
    assert_same_scheme(action if label == "natural" else induced_pair_action(action))


@pytest.mark.parametrize(
    "group",
    [
        cyclic(5),
        cyclic(12),
        PermutationGroup.from_cycles(3, ["(0 1 2)", "(0 1)"]),
        PermutationGroup.from_cycles(4, ["(0 1 2 3)", "(1 3)"]),
        PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"]),
        PermutationGroup.from_cycles(4, ["(0 1 2)", "(1 2 3)"]),
    ],
    ids=["z5", "z12", "s3", "d4", "q8", "a4"],
)
def test_small_regular_actions_match_reference(group):
    assert_same_scheme(regular_action(group))


def test_hoggar_action_matches_reference():
    assert_same_scheme(fixtures.hoggar_heisenberg_action())


@pytest.mark.parametrize(
    "degree,generators",
    [
        (1, []),
        (3, []),
        (1, ["()"]),
        (4, ["()", "(0 1 2 3)", "()"]),
        (4, ["(0 1)(2 3)"]),
        (5, ["(0 1 2)", "(3 4)"]),
    ],
    ids=[
        "degree-1",
        "no-generators",
        "identity-degree-1",
        "identity-generators",
        "intransitive",
        "two-orbits",
    ],
)
def test_edge_cases_match_reference(degree, generators):
    assert_same_scheme(GroupAction(PermutationGroup.from_cycles(degree, generators)))


def test_intransitive_action_raises_the_same_error():
    action = GroupAction(PermutationGroup.from_cycles(4, ["(0 1)(2 3)"]))
    with pytest.raises(InputError, match="^scheme construction requires a transitive action$"):
        scheme_from_action(action)


@st.composite
def random_actions(draw):
    n = draw(st.integers(1, 9))
    perm = st.permutations(list(range(n)))
    gens = draw(st.lists(perm, max_size=3))
    if draw(st.booleans()):
        # conjugate an n-cycle in, which makes the action transitive
        s = draw(perm)
        cycle = [0] * n
        for i in range(n):
            cycle[s[i]] = s[(i + 1) % n]
        gens.append(cycle)
    group = PermutationGroup(n, [Permutation(tuple(g)) for g in gens])
    label = draw(st.sampled_from(["natural", "pairs", "regular"]))
    if label == "pairs" and 2 <= n <= 6 and is_transitive(GroupAction(group)):
        return induced_pair_action(GroupAction(group))
    if label == "regular" and group.order <= 120:
        return regular_action(group)
    return GroupAction(group)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_actions())
def test_random_actions_match_reference(action):
    assert_same_scheme(action)


@st.composite
def permutation_lists(draw):
    n = draw(st.integers(1, 16))
    return n, draw(st.lists(st.permutations(list(range(n))), max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_lists())
def test_suborbits_are_the_least_orbit_points(case):
    n, gens = case
    group = PermutationGroup(n, [Permutation(tuple(g)) for g in gens])
    want = [min(orbit(group, x)) for x in range(n)]
    arrays = [np.array(g, dtype=np.intp) for g in gens]
    assert _suborbits(arrays, n).tolist() == want


def test_suborbits_need_more_than_one_hooking_round():
    # the 4-cycle (0 2 1 3): one round hooks 2 and 3 onto 0 but leaves 1 alone
    assert _suborbits([np.array([2, 3, 1, 0], dtype=np.intp)], 4).tolist() == [0, 0, 0, 0]


def test_class_schemes_serialise_as_before():
    for group in (
        PermutationGroup.from_cycles(3, ["(0 1 2)", "(0 1)"]),
        PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"]),
    ):
        sch = conjugacy_class_scheme(group)
        assert json.dumps(sch.to_json_dict()) == json.dumps(reference_to_json_dict(sch))


def test_scheme_past_the_array_limit_is_refused_before_labelling(monkeypatch):
    # 11586^2 > 2^27: refused without building the transversal or the matrix
    action = GroupAction(cyclic(11586))
    assert 11586**2 > errors.MAX_ARRAY_ENTRIES >= 11585**2

    def no_transversal(*args):
        raise AssertionError("the transversal was built")

    monkeypatch.setattr(scheme_module, "_generator_transversal", no_transversal)
    with pytest.raises(ResourceError, match="orbital matrix of 11586 points"):
        scheme_from_action(action)


def test_scheme_at_a_lowered_limit(monkeypatch):
    s4 = PermutationGroup.from_cycles(4, ["(0 1 2 3)", "(0 1)"])
    monkeypatch.setattr(scheme_module, "MAX_ARRAY_ENTRIES", 15)
    with pytest.raises(ResourceError):
        scheme_from_action(GroupAction(s4))
    monkeypatch.setattr(scheme_module, "MAX_ARRAY_ENTRIES", 16)
    assert scheme_from_action(GroupAction(s4)).valencies == (1, 3)


def signature_block(rng, rows, cols, values):
    block = [[rng.randrange(values) for _ in range(cols)] for _ in range(rows)]
    return np.array(block, dtype=np.int64)


@pytest.mark.parametrize("seed", range(20))
def test_rank_rows_matches_unique(seed):
    rng = random.Random(seed)
    values = rng.choice([2, 3, 10**12])
    rows = signature_block(rng, rng.randrange(1, 40), rng.randrange(1, 12), values)
    if rng.random() < 0.5:
        rows = rows[[rng.randrange(len(rows)) for _ in range(2 * len(rows))]]  # repeated rows
    assert np.array_equal(_rank_rows(rows), reference_rank_rows(rows))


def test_rank_rows_edge_blocks():
    for rows in (
        np.zeros((1, 1), dtype=np.int64),
        np.zeros((5, 3), dtype=np.int64),
        np.array([[1, 0], [0, 9], [0, 1], [1, 0]], dtype=np.int64),
    ):
        assert np.array_equal(_rank_rows(rows), reference_rank_rows(rows))
