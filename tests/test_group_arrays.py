"""The array forms of the group layers against the loop code they replaced.

The reference functions are the previous implementations, kept verbatim
as oracles: the breadth-first orbital labelling of ``scheme_from_action``,
the set-based point orbit that ``permgroup.orbit`` replaced with the
suborbit labelling, the ``np.unique`` ranking inside ``symmetry._joint_refine``, the
per-(orbital, row) loop of ``SchurianScheme.to_json_dict``, and the
index-dict loop of each action builder (pairs, regular, Heisenberg and
Hoggar) and of ``conjugacy_class_scheme``, which ``permgroup.action_on``,
index arithmetic (Heisenberg, whose reference reads the group law from the
oracle in ``test_heisenberg.py``) and ``scheme_from_action`` replaced, and
the float products of
``SchurianScheme.structure_constants`` and the tensor comparison of
``is_commutative``, which the counted pair codes replaced, and the n x n
sort of ``_pair_codes`` with its closure check, which its c reference
columns replaced; the reference tensor contracted against x is also the
oracle for ``SchurianScheme.left_multiplication`` and ``SchurianScheme.commutator``,
and the reference tensor is the source of the center oracle in
``test_center.py``.
"""

import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linepack import errors, fixtures
from linepack.cli import main
from linepack.errors import InputError, NumericError, ResourceError
from linepack.fixtures import hoggar_stabilizer_generators, pauli_tensor_generators
from linepack.frames import matrix_group_closure, matrix_key
from linepack.heisenberg import heisenberg_permutation_action, make_spec
from linepack.permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    action_on,
    induced_pair_action,
    _suborbits,
    is_transitive,
    regular_action,
)
from linepack.scheme import (
    _canonical_scheme,
    conjugacy_class_scheme,
    is_commutative,
    scheme_from_action,
)
from linepack.symmetry import _rank_rows
from test_heisenberg import HeisenbergElement, heisenberg_multiply, sp_membership


def reference_orbit(group, point):
    """The set-based breadth-first orbit of `point` that `permgroup.orbit` replaced."""
    seen = {point}
    frontier = [point]
    while frontier:
        p = frontier.pop()
        for g in group.generators:
            q = g(p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


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


def reference_structure_constants(scheme):
    """Row 0 of every A_i A_j as one float64 matrix product per orbital j."""
    c1 = scheme.n_orbitals
    row0 = scheme.orbital_of[0]
    onehot = (row0[:, None] == np.arange(c1)).astype(np.float64)  # [z, i] = A_i[0, z]
    p = np.zeros((c1, c1, c1), dtype=np.int64)
    for j in range(c1):
        a_j = (scheme.orbital_of == j).astype(np.float64)
        counts = (onehot.T @ a_j).astype(np.int64)  # [i, y] = (A_i A_j)[0, y]
        p[:, j] = counts[:, scheme.columns]
        if not np.array_equal(counts, p[:, j, row0]):
            raise InputError("orbital products do not close over the orbitals")
    return p


def reference_pair_codes(scheme):
    """Row y: the codes o(0, z) * c + o(z, y) over all z, sorted, for all n columns y.

    This full n x n sort is the table that ``_pair_codes`` cut to its rows
    ``columns`` after checking, column by column, that the products close.
    """
    c = scheme.n_orbitals
    codes = scheme.orbital_of.T + c * scheme.orbital_of[0]
    codes.sort(axis=1)
    return codes


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


def test_battery_matches_reference(fixture_actions):
    for action in fixture_actions.values():
        assert_same_scheme(action)


@pytest.mark.parametrize("label", ["natural", "pairs"])
@pytest.mark.parametrize("name", ["agl", "m11", "sl2_f8"])
def test_shipped_fixtures_match_reference(name, label):
    # the AGL pair action is intransitive: both must refuse it alike
    action = GroupAction(fixtures.named_group(name))
    assert_same_scheme(action if label == "natural" else induced_pair_action(action))


@pytest.mark.parametrize(
    "group",
    [
        fixtures.named_group("z5"),
        fixtures.named_group("z12"),
        fixtures.named_group("s3"),
        fixtures.named_group("d4"),
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


def assert_pair_codes_match_reference(scheme):
    """`_pair_codes` is the full table's rows `columns`, and every column y has its orbital's row."""
    codes = reference_pair_codes(scheme)
    assert np.array_equal(scheme._pair_codes, codes[scheme.columns])
    assert np.array_equal(codes, scheme._pair_codes[scheme.orbital_of[0]])


def test_pair_codes_match_reference_on_the_battery(fixture_schemes):
    for scheme in fixture_schemes.values():
        assert_pair_codes_match_reference(scheme)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_actions())
def test_pair_codes_match_reference_on_random_actions(action):
    assume(is_transitive(action))
    assert_pair_codes_match_reference(scheme_from_action(action))


def assert_commutator_matches_reference(scheme, p):
    """C_y = R_y - L_y for a small y (int64 count) and a large one (Python integers)."""
    rng = random.Random(scheme.point_count)
    small = [rng.randint(-9, 9) for _ in range(scheme.n_orbitals)]
    for y, dtype in ((small, np.int64), ([2**63 + v for v in small], object)):
        exact, weights = p.astype(dtype), np.array(y, dtype=dtype)
        right = np.tensordot(weights, exact, axes=([0], [1])).T  # [k, i] = sum_j y_j p[i, j, k]
        left = np.tensordot(weights, exact, axes=([0], [0])).T  # [k, j] = sum_i y_i p[i, j, k]
        commutator = scheme.commutator(y)
        assert commutator.dtype == dtype
        assert commutator.shape == right.shape and (commutator == right - left).all()


def test_commutator_matches_reference_on_the_battery(fixture_schemes):
    for scheme in fixture_schemes.values():
        assert_commutator_matches_reference(scheme, reference_structure_constants(scheme))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_actions())
def test_counted_structure_constants_match_reference(action):
    assume(is_transitive(action))
    scheme = scheme_from_action(action)
    p = reference_structure_constants(scheme)
    assert scheme.structure_constants.dtype == p.dtype
    assert np.array_equal(scheme.structure_constants, p)
    assert_commutator_matches_reference(scheme, p)
    assert is_commutative(scheme) == np.array_equal(p, p.transpose(1, 0, 2))
    rng = np.random.default_rng(scheme.point_count)
    x = rng.normal(size=scheme.n_orbitals) + 1j * rng.normal(size=scheme.n_orbitals)
    expected = np.einsum("i,ijk->kj", x, p)  # L_x[k, j] = sum_i x_i p[i, j, k]
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(scheme.left_multiplication(x) - expected).max() <= 1e-12 * scale


@st.composite
def permutation_lists(draw):
    n = draw(st.integers(1, 16))
    return n, draw(st.lists(st.permutations(list(range(n))), max_size=4))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(permutation_lists())
def test_suborbits_are_the_least_orbit_points(case):
    n, gens = case
    group = PermutationGroup(n, [Permutation(tuple(g)) for g in gens])
    want = [min(reference_orbit(group, x)) for x in range(n)]
    arrays = [np.array(g, dtype=np.intp) for g in gens]
    assert _suborbits(arrays, n).tolist() == want


def test_suborbits_need_more_than_one_hooking_round():
    # the 4-cycle (0 2 1 3): one round hooks 2 and 3 onto 0 but leaves 1 alone
    assert _suborbits([np.array([2, 3, 1, 0], dtype=np.intp)], 4).tolist() == [0, 0, 0, 0]


def test_class_schemes_serialise_as_before():
    for group in (
        fixtures.named_group("s3"),
        PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"]),
    ):
        sch = conjugacy_class_scheme(group)
        assert json.dumps(sch.to_json_dict()) == json.dumps(reference_to_json_dict(sch))


def traced_peak(build):
    """The traced peak of build(), in bytes, from a fresh tracemalloc start."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scheme_past_the_array_limit_is_refused_before_labelling():
    # 11586^2 > 2^27: refused before any row of the matrix is formed
    action = GroupAction(fixtures.named_group("z11586"))
    assert 11586**2 > errors.MAX_ARRAY_ENTRIES >= 11585**2

    def build():
        with pytest.raises(ResourceError, match="orbital matrix of 11586 points"):
            scheme_from_action(action)

    assert traced_peak(build) < 16 * 11586 * np.dtype(np.int64).itemsize


@pytest.mark.parametrize("name, pairs", [("s20", True), ("heis7", False)])
def test_scheme_holds_one_orbital_matrix(name, pairs):
    # the rows t_x^-1 of the breadth-first tree become the orbital matrix in place
    action = GroupAction(fixtures.named_group(name))
    action = induced_pair_action(action) if pairs else action
    n = action.point_count
    assert traced_peak(lambda: scheme_from_action(action)) < 1.25 * n * n * np.dtype(np.int64).itemsize


def test_scheme_at_a_lowered_limit(monkeypatch):
    s4 = fixtures.named_group("s4")
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 15)
    with pytest.raises(ResourceError):
        scheme_from_action(GroupAction(s4))
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 16)
    assert scheme_from_action(GroupAction(s4)).valencies == (1, 3)


def test_chain_is_refused_as_a_level_grows(monkeypatch, capsys, tmp_path):
    # a 10-cycle on 100 points: its 10 x 10 orbital matrix and its 10 elements of
    # degree 100 fit a limit of 1000, but its chain's level of 10 orbit points
    # would keep two tables of 10 * 100 entries
    cycle = PermutationGroup(100, [[(i + 1) % 10 if i < 10 else i for i in range(100)]])
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 1000)
    with pytest.raises(ResourceError, match="transversal of point 0 of degree 100"):
        cycle.order
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"degree": 100, "generators": [cycle.generators[0].images]}))
    assert main(["idempotents", str(path), "--action", "regular"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "transversal" in captured.err


def test_chain_is_refused_before_a_level_grows(monkeypatch):
    # a 1000-cycle on 10^4 points: two tables of 1000 * 10^4 entries pass a limit
    # of 10^6, and the refusal comes before any table has grown, at O(degree) memory
    degree = 10**4
    cycle = PermutationGroup(degree, [[(i + 1) % 1000 if i < 1000 else i for i in range(degree)]])
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceError, match="transversal of point 0 of degree 10000"):
            cycle.order
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * degree * np.dtype(np.intp).itemsize


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


# --- the action builders against the per-builder loops they replaced ----------


def reference_pair_index(n: int, i: int, j: int) -> int:
    """Index of the ordered pair (i, j), i != j, in lexicographic order."""
    return i * (n - 1) + (j if j < i else j - 1)


def reference_induced_pair_action(action: GroupAction) -> GroupAction:
    """Action on ordered pairs of distinct points, indexed lexicographically."""
    n = action.point_count
    if n < 2:
        raise InputError("pair action needs at least 2 points")
    if not is_transitive(action):
        raise InputError("pair action requires a transitive source action")
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    gens = []
    for g in action.group.generators:
        images = [0] * len(pairs)
        for idx, (i, j) in enumerate(pairs):
            images[idx] = reference_pair_index(n, g(i), g(j))
        gens.append(Permutation(tuple(images)))
    return GroupAction(PermutationGroup(n * (n - 1), gens))


def reference_regular_action(group: PermutationGroup) -> GroupAction:
    """Left-translation action of the group on its own elements.

    Elements are enumerated by the deterministic BFS of
    :meth:`PermutationGroup.elements`, so point indexing is reproducible.
    """
    elems = group.elements()
    index = {p.images: i for i, p in enumerate(elems)}
    gens = []
    for g in group.generators:
        images = tuple(index[(g * p).images] for p in elems)
        gens.append(Permutation(images))
    return GroupAction(PermutationGroup(len(elems), gens))


def reference_conjugacy_class_scheme(group: PermutationGroup):
    """Scheme on the group's elements whose orbitals are conjugacy class sums.

    A pair (x, y) lies in orbital i exactly when x y^{-1} belongs to the
    i-th conjugacy class; the result is always commutative.
    """
    elems = group.elements()
    index = {p.images: i for i, p in enumerate(elems)}
    m = len(elems)
    class_of = [-1] * m
    n_classes = 0
    for i, e in enumerate(elems):
        if class_of[i] >= 0:
            continue
        frontier = [e]
        class_of[i] = n_classes
        while frontier:
            x = frontier.pop()
            for g in group.generators:
                y = g * x * g.inverse()
                j = index[y.images]
                if class_of[j] < 0:
                    class_of[j] = n_classes
                    frontier.append(y)
        n_classes += 1
    inverses = [index[e.inverse().images] for e in elems]
    class_of = np.asarray(class_of, dtype=np.int64)
    orbital_of = np.empty((m, m), dtype=np.int64)
    for y in range(m):
        # column y: orbital_of[x, y] = class of x * y^{-1}
        y_inv = elems[inverses[y]]
        col = np.array([class_of[index[(x * y_inv).images]] for x in elems], dtype=np.int64)
        orbital_of[:, y] = col
    return _canonical_scheme(orbital_of)


def reference_heisenberg_permutation_action(p: int) -> GroupAction:
    """Permutation action of (Heisenberg) x| SL(2, p) on the p^3 group elements.

    Generators: left translations by the three standard Heisenberg
    generators, plus the two standard SL(2, p) generators acting on the
    K-part coordinatewise.  Any odd prime p.
    """
    if p < 3 or any(p % d == 0 for d in range(2, p)):
        raise InputError(f"p must be an odd prime; got {p}")
    spec = make_spec((p,))
    elems = [
        HeisenbergElement((a,), (alpha,), z)
        for a in range(p)
        for alpha in range(p)
        for z in range(p)
    ]
    index = {(e.a, e.alpha, e.z): i for i, e in enumerate(elems)}
    gens = []
    for translate in (
        HeisenbergElement((1,), (0,), 0),
        HeisenbergElement((0,), (1,), 0),
        HeisenbergElement((0,), (0,), 1),
    ):
        images = tuple(
            index[
                (lambda y: (y.a, y.alpha, y.z))(heisenberg_multiply(spec, translate, e))
            ]
            for e in elems
        )
        gens.append(Permutation(images))
    for mat in ([[0, p - 1], [1, 0]], [[1, 1], [0, 1]]):
        if not sp_membership(p, mat):
            raise NumericError("standard SL(2, p) generator failed the symplectic check")
        images = []
        for e in elems:
            a, alpha = e.a[0], e.alpha[0]
            a2 = (mat[0][0] * a + mat[0][1] * alpha) % p
            alpha2 = (mat[1][0] * a + mat[1][1] * alpha) % p
            images.append(index[((a2,), (alpha2,), e.z)])
        gens.append(Permutation(tuple(images)))
    return GroupAction(PermutationGroup(p**3, gens))


def reference_hoggar_heisenberg_action(include_order_check: bool = False) -> GroupAction:
    """Permutation action behind the Hoggar scheme, on 256 points.

    The points are the elements of the 256-element tensor-Pauli group K.
    Generators: left translation by each generator of K, plus conjugation
    by the fiducial stabilizers U and V (which normalize K).  This is the
    coset action of the 1,548,288-element product group on K.
    """
    kgens = pauli_tensor_generators()
    elements = matrix_group_closure(kgens, 512)
    if len(elements) != 256:
        raise NumericError(f"tensor-Pauli closure has {len(elements)} elements, expected 256")
    index = {matrix_key(m): i for i, m in enumerate(elements)}
    gens = []
    for g in kgens:
        images = tuple(index[matrix_key(g @ x)] for x in elements)
        gens.append(Permutation(images))
    u, v = hoggar_stabilizer_generators()
    for h in (u, v):
        h_inv = h.conj().T
        images = []
        for x in elements:
            y = h @ x @ h_inv
            key = matrix_key(y)
            if key not in index:
                raise NumericError("stabilizer generator does not normalize the group")
            images.append(index[key])
        gens.append(Permutation(tuple(images)))
    group = PermutationGroup(256, gens)
    if include_order_check:
        stab = matrix_group_closure([u, v], 10_000)
        if len(stab) != 6048:
            raise NumericError(f"stabilizer closure has {len(stab)} elements, expected 6048")
    return GroupAction(group)


def images_or_error(build, *args):
    """The generator image tuples and point count, or the input error raised instead."""
    try:
        action = build(*args)
    except InputError as exc:
        return ("InputError", str(exc))
    return action.point_count, [g.images for g in action.group.generators]


BUILDER_GROUPS = {
    **{
        name: (lambda name=name: fixtures.named_group(name))
        for name in ("s3", "s4", "s5", "s6", "d20", "z6", "sl2_f8", "agl")
    },
    "q8": lambda: PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"]),
    # Z_2 x Z_4 in its regular action
    "z2xz4": lambda: PermutationGroup.from_cycles(
        8, ["(0 1)(2 3)(4 5)(6 7)", "(0 2 4 6)(1 3 5 7)"]
    ),
    "trivial": lambda: PermutationGroup(1, []),
}


@pytest.mark.parametrize("name", sorted(BUILDER_GROUPS))
def test_regular_and_pair_actions_match_reference(name):
    group = BUILDER_GROUPS[name]()
    assert images_or_error(regular_action, group) == images_or_error(
        reference_regular_action, group
    )
    assert images_or_error(induced_pair_action, GroupAction(group)) == images_or_error(
        reference_induced_pair_action, GroupAction(group)
    )


@pytest.mark.parametrize("name", sorted(BUILDER_GROUPS))
def test_class_schemes_match_reference(name):
    group = BUILDER_GROUPS[name]()
    got, want = conjugacy_class_scheme(group), reference_conjugacy_class_scheme(group)
    assert got.orbital_of.dtype == want.orbital_of.dtype
    assert np.array_equal(got.orbital_of, want.orbital_of)
    assert got.valencies == want.valencies
    assert got.transpose_pairing == want.transpose_pairing


@pytest.mark.parametrize("p", [3, 4, 5, 7, 11])
def test_heisenberg_action_matches_reference(p):
    assert images_or_error(heisenberg_permutation_action, p) == images_or_error(
        reference_heisenberg_permutation_action, p
    )


def test_hoggar_builder_matches_reference():
    got = images_or_error(fixtures.hoggar_heisenberg_action)
    assert got == images_or_error(reference_hoggar_heisenberg_action)


def test_hoggar_central_indices_as_before():
    # the indices the reference enumeration of K gives the named elements
    assert fixtures.hoggar_central_element_indices() == {
        "identity": 0,
        "i_identity": 1,
        "t_slot0": 2,
        "m_slot0": 3,
        "minus_identity": 8,
        "tm_slot0": 20,
        "tm_slot1": 28,
        "minus_i_identity": 33,
    }


def test_action_on_refuses_a_map_that_leaves_the_set():
    with pytest.raises(NumericError, match="outside the acted-on set"):
        action_on([0, 1, 2], int, [lambda x: (x + 1) % 4])


def test_action_on_refuses_a_map_that_is_not_injective():
    with pytest.raises(InputError, match="not a permutation"):
        action_on([0, 1, 2], int, [lambda x: min(x + 1, 2)])


def test_action_on_refuses_repeated_keys():
    with pytest.raises(InputError, match="distinct keys"):
        action_on([0, 1, 3], lambda x: x % 2, [])


def test_agl_class_scheme_is_commutative_with_eleven_classes():
    sch = conjugacy_class_scheme(BUILDER_GROUPS["agl"]())
    assert sch.point_count == 1344
    assert sch.n_orbitals == 11
    assert sum(sch.valencies) == 1344
    assert is_commutative(sch)
