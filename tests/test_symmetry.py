import itertools
import math

import numpy as np
import pytest

from linepack import symmetry
from linepack.errors import NumericError
from linepack.fixtures import named_group
from linepack.frames import COLOR_TOL, GramMatrix, harmonic_gram
from linepack.idempotents import central_primitive_idempotents, projection_from_subset
from linepack.permgroup import Permutation, PermutationGroup, orbit, parse_cycles, regular_action
from linepack.scheme import scheme_from_action
from linepack.symmetry import find_gram_isomorphism, gram_symmetry_group


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
    group = gram_symmetry_group(simplex)
    assert group.order == math.factorial(n)
    assert len(orbit(group, 0)) == simplex.n


def test_blocked_diagonal_not_homogeneous():
    g = GramMatrix.from_entries(np.diag([1.0, 2.0]))
    assert len(orbit(gram_symmetry_group(g), 0)) != g.n


def test_all_ones_homogeneous():
    g = GramMatrix.from_entries(np.full((4, 4), 0.25))
    assert len(orbit(gram_symmetry_group(g), 0)) == g.n


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
    monkeypatch.setattr(symmetry, "colored_graph_automorphisms", lambda color, node_cap: ([swap], 2))
    with pytest.raises(NumericError, match="non-commuting generator"):
        gram_symmetry_group(gram)


@pytest.mark.parametrize("defect,raises", [(0.5e-6, False), (2e-6, True)])
def test_commute_check_bound_is_ten_tol(monkeypatch, defect, raises):
    # swapping points 0 and 1 moves the diagonal by `defect`; the bound is 10 * tol * scale
    entries = np.array([[1.0, 0.5], [0.5, 1.0 + defect]])
    colors = np.array([[0, 1], [1, 0]])
    monkeypatch.setattr(symmetry, "_cluster_values", lambda values, tol: colors)
    gram = GramMatrix.from_entries(entries)
    if raises:
        with pytest.raises(NumericError, match="non-commuting generator"):
            gram_symmetry_group(gram, tol=1e-7)
    else:
        assert gram_symmetry_group(gram, tol=1e-7).order == 2


def true_simplex_symmetries(n):
    simplex = GramMatrix.from_entries(np.eye(n) - np.full((n, n), 1 / n))
    gens, order = symmetry.colored_graph_automorphisms(symmetry._cluster_values(simplex.entries, COLOR_TOL))
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
        symmetry, "colored_graph_automorphisms", lambda color, node_cap: (bad_gens, bad_order)
    )
    with pytest.raises(NumericError, match="search order bookkeeping disagrees"):
        gram_symmetry_group(simplex)


def test_scheme_action_contained_in_symmetry_group():
    # generators of the acting group commute with every G_D by construction
    act = regular_action(named_group("z5"))
    sch = scheme_from_action(act)
    dec = central_primitive_idempotents(sch)
    gram = projection_from_subset(dec, [0, 1])
    group = gram_symmetry_group(gram)
    for g in act.group.generators:
        assert group.contains(g)
    assert len(orbit(group, 0)) == gram.n


def test_ambiguous_values_raise():
    entries = np.eye(3)
    entries[0, 1] = entries[1, 0] = 0.5
    entries[0, 2] = entries[2, 0] = 0.5 + 3e-7
    entries[1, 2] = entries[2, 1] = 0.25
    with pytest.raises(NumericError):
        gram_symmetry_group(GramMatrix.from_entries(entries), tol=1e-7)


def test_exact_color_path():
    # J/3 has one entry value, so one colour and the whole symmetric group
    n = 3
    gram = GramMatrix(n, np.full((n, n), 1 / 3))
    assert len(np.unique(symmetry._cluster_values(gram.entries, COLOR_TOL))) == 1
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


def _reference_cluster_values(values, tol):
    """The pairwise union-find `_cluster_values` replaced, kept verbatim as the oracle."""
    rounded = np.round(values, 9)
    unique = np.unique(rounded)
    pts = sorted((float(z.real), float(z.imag)) for z in unique)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = abs(complex(*pts[i]) - complex(*pts[j]))
            if dist <= tol:
                parent[find(i)] = find(j)
    roots = sorted({find(i) for i in range(len(pts))})
    color_of_root = {r: c for c, r in enumerate(roots)}
    colors = {complex(*pts[i]): color_of_root[find(i)] for i in range(len(pts))}
    reps: dict[int, list[complex]] = {}
    for z, c in colors.items():
        reps.setdefault(c, []).append(z)
    for c, vals in reps.items():
        diameter = max(abs(a - b) for a in vals for b in vals)
        if diameter > tol:
            raise NumericError(
                f"chained value cluster has diameter {diameter:.3e} > tol {tol:.1e}"
            )
    for ci in roots:
        for cj in roots:
            if ci >= cj:
                continue
            dmin = min(
                abs(a - b) for a in reps[color_of_root[ci]] for b in reps[color_of_root[cj]]
            )
            if dmin < 10 * tol:
                raise NumericError(
                    f"entry values {dmin:.3e} apart cannot be clustered at tol {tol:.1e}"
                )
    return colors


def _reference_ids(values, tol):
    """The reference colors as `_cluster_values` gives them: one id per value."""
    colors = _reference_cluster_values(values, tol)
    return [colors[complex(z)] for z in np.round(values, 9)]


def _cluster_outcome(fn, values, tol):
    try:
        return list(fn(values, tol))
    except NumericError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_cluster_values_match_the_pairwise_reference(seed):
    # clusters of values with noise from none to 20 tol, over R and over C,
    # where real parts of distinct clusters may coincide
    rng = np.random.default_rng(seed)
    outcomes = {"clustered": 0, "refused": 0}
    for _ in range(150):
        tol = 10.0 ** int(rng.integers(-8, -3))
        k = int(rng.integers(1, 10))
        step = rng.choice([1e-3, 1e-1, 1.0])
        imag_step = rng.choice([0, 1e-3, 1.0])
        centers = rng.integers(-3, 4, k) * step + 1j * rng.integers(-3, 4, k) * imag_step
        noise = rng.choice([0.0, 0.1, 0.3, 0.4, 3.0, 20.0], p=[0.3, 0.2, 0.2, 0.1, 0.1, 0.1])
        values = np.repeat(centers, rng.integers(1, 4, k))
        jitter = rng.standard_normal(values.size) + 1j * rng.standard_normal(values.size)
        values = values + jitter * tol * noise
        if rng.random() < 0.4:
            values = values.real + 0j
        ref = _cluster_outcome(_reference_ids, values, tol)
        assert _cluster_outcome(symmetry._cluster_values, values, tol) == ref
        outcomes["refused" if isinstance(ref, str) else "clustered"] += 1
    assert min(outcomes.values()) >= 10


def test_cluster_values_keeps_union_find_color_order():
    tol = 1e-7
    # a chain a0 ~ a2 ~ a1 whose ends sit more than tol apart is refused
    values = np.array([0.0, 0.4e-7 + 5j, 0.8e-7 - 0.7e-7j, 0.9e-7 + 0.1e-7j])
    with pytest.raises(NumericError, match="diameter"):
        symmetry._cluster_values(values, tol)
    # a0 ~ a1 with b between them in (re, im) order: the union makes a1 the
    # a-cluster's root, which comes after b's, so b takes color 0
    values = np.array([0.0, 0.4e-7 + 5j, 0.5e-7 + 0.5e-7j])
    colors = symmetry._cluster_values(values, tol)
    assert colors.tolist() == _reference_ids(values, tol)
    assert colors[1] == 0 and colors[0] == 1


@pytest.mark.parametrize("tol, order", [(1e-7, 6), (1e-11, 2), (1e-12, 2), (1e-15, 2), (1e-300, 2)])
def test_cluster_grid_follows_a_fine_tolerance(tol, order):
    # entries (1, 2) and (2, 1) sit 3e-10 above the other off-diagonal 0.1:
    # one color at 1e-7, and their own color at any tolerance below 3e-11,
    # which a fixed 9-decimal rounding would merge back into 0.1
    entries = np.full((3, 3), 0.1)
    np.fill_diagonal(entries, 1.0)
    entries[1, 2] = entries[2, 1] = 0.1 + 3e-10
    group = gram_symmetry_group(GramMatrix.from_entries(entries), tol=tol)
    assert group.order == order
    if order == 2:
        assert [g.images for g in group.generators] == [(0, 2, 1)]
