import itertools

import numpy as np
import pytest

from linepack.errors import InputError, ResourceError
from linepack.frames import (
    GramMatrix,
    coherence,
    difference_set_check,
    distinct_moduli,
    gap_clusters,
    gram_rank,
    harmonic_gram,
    is_etf,
    matrix_group_orbit_gram,
    naimark_complement,
    packing_report,
    projective_reduce,
    secondary_bounds,
    vectors_from_gram,
    welch_bound,
)


def brute_force_welch(n, d):
    """Oracle: the bound evaluated directly from its defining expression."""
    return ((n - d) / (d * (n - 1))) ** 0.5


def test_vectors_from_gram_rank_one():
    g = GramMatrix.from_entries(np.full((3, 3), 1 / 3))
    f = vectors_from_gram(g)
    assert f.d == 1
    assert np.allclose(np.abs(f.synthesis), 1 / np.sqrt(3))
    assert np.abs(f.gram().entries - g.entries).max() < 1e-9


def test_vectors_from_gram_identity():
    g = GramMatrix.from_entries(np.eye(4))
    f = vectors_from_gram(g)
    assert f.d == 4
    assert np.abs(f.synthesis.conj().T @ f.synthesis - np.eye(4)).max() < 1e-9


def test_vectors_from_gram_rejects_indefinite():
    m = np.diag([1.0, -1.0])
    with pytest.raises(InputError):
        vectors_from_gram(GramMatrix.from_entries(m))


def test_round_trip_random_psd():
    rng = np.random.default_rng(5)
    for n in (3, 6, 10):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g = GramMatrix.from_entries(a.conj().T @ a)
        f = vectors_from_gram(g)
        assert np.abs(f.gram().entries - g.entries).max() < 1e-9 * np.abs(g.entries).max()


def test_welch_bound_values():
    assert abs(welch_bound(28, 7) - 1 / 3) < 1e-12
    assert welch_bound(5, 5) == 0.0
    assert abs(welch_bound(64, 8) - 1 / 3) < 1e-12
    assert abs(welch_bound(28, 7) - brute_force_welch(28, 7)) < 1e-15
    with pytest.raises(InputError):
        welch_bound(1, 1)


def test_secondary_bounds():
    orthoplex, lev = secondary_bounds(12, 4, "real")
    assert abs(orthoplex - 0.5) < 1e-12
    assert abs(lev - 0.5) < 1e-12
    orthoplex, lev = secondary_bounds(6, 2, "complex")
    assert abs(orthoplex - 1 / np.sqrt(2)) < 1e-12
    assert abs(lev - 1 / np.sqrt(2)) < 1e-12
    assert secondary_bounds(28, 7, "real") == (None, None)
    with pytest.raises(InputError):
        secondary_bounds(6, 2, "quaternionic")


def test_is_etf_simplex_and_identity():
    n = 5
    simplex = np.eye(n) - np.full((n, n), 1 / n)
    assert is_etf(GramMatrix.from_entries(simplex))
    assert is_etf(GramMatrix.from_entries(np.eye(n)))
    assert is_etf(GramMatrix.from_entries(np.full((n, n), 1 / n)))
    not_etf = np.eye(3)
    not_etf[0, 1] = not_etf[1, 0] = 0.5
    assert not is_etf(GramMatrix.from_entries(not_etf))


def test_coherence_requires_positive_diagonal():
    m = np.eye(3)
    m[2, 2] = 0.0
    with pytest.raises(InputError):
        coherence(GramMatrix.from_entries(m))


def test_naimark_complement():
    n = 4
    j = GramMatrix.from_entries(np.full((n, n), 1 / n))
    comp = naimark_complement(j)
    assert np.abs(comp.entries - (np.eye(n) - 1 / n)).max() < 1e-12
    assert np.abs(naimark_complement(comp).entries - j.entries).max() < 1e-12
    zero = naimark_complement(GramMatrix.from_entries(np.eye(n)))
    assert np.abs(zero.entries).max() < 1e-12
    with pytest.raises(InputError):
        naimark_complement(GramMatrix.from_entries(2 * np.eye(n)))


def test_projective_reduce_examples():
    g = GramMatrix.from_entries(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    red, class_map = projective_reduce(g)
    assert red.n == 1
    assert class_map == [0, 0]
    ident = GramMatrix.from_entries(np.eye(4))
    red, class_map = projective_reduce(ident)
    assert red.n == 4
    assert class_map == [0, 1, 2, 3]
    with pytest.raises(InputError):
        projective_reduce(GramMatrix.from_entries(np.diag([1.0, 2.0])))


def test_projective_reduce_phase_classes():
    # 6 vectors: 3 distinct lines, each appearing with phases 1 and i
    rng = np.random.default_rng(11)
    base = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
    base /= np.linalg.norm(base, axis=0)
    synth = np.column_stack([base[:, 0], 1j * base[:, 0], base[:, 1], 1j * base[:, 1], base[:, 2], 1j * base[:, 2]])
    g = GramMatrix.from_entries(synth.conj().T @ synth)
    red, class_map = projective_reduce(g)
    assert red.n == 3
    assert class_map == [0, 0, 2, 2, 4, 4]


def test_projective_reduce_unequal_classes_warns():
    synth = np.array([[1.0, -1.0, 0.0], [0.0, 0.0, 1.0]])
    g = GramMatrix.from_entries(synth.T @ synth)
    with pytest.warns(UserWarning):
        projective_reduce(g)


def test_harmonic_gram_examples():
    g = harmonic_gram([3], [(0,)])
    assert np.abs(g.entries - 1 / 3).max() < 1e-12
    g = harmonic_gram([3], [(0,), (1,)])
    assert gram_rank(g) == 2
    assert is_etf(g)
    assert abs(coherence(g) - 0.5) < 1e-9
    g = harmonic_gram([7], [(1,), (2,), (4,)])
    assert gram_rank(g) == 3
    assert is_etf(g)
    assert abs(coherence(g.normalized()) - welch_bound(7, 3)) < 1e-9
    with pytest.raises(InputError):
        harmonic_gram([3], [(3,)])
    with pytest.raises(InputError):
        harmonic_gram([3], [])


def test_difference_set_check_examples():
    assert difference_set_check([7], [(1,), (2,), (4,)]) == (True, 1)
    ok, lam = difference_set_check([4], [(0,), (1,)])
    assert not ok and lam is None
    assert difference_set_check([5], [(a,) for a in range(5)]) == (True, 5)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_harmonic_etf_iff_difference_set(n):
    # brute force over all nonempty subsets of the dual of Z_n
    for r in range(1, n + 1):
        for subset in itertools.combinations(range(n), r):
            d = [(a,) for a in subset]
            flag, _ = difference_set_check([n], d)
            g = harmonic_gram([n], d)
            assert is_etf(g) == flag, (n, subset)


def test_matrix_group_orbit_gram_trivial():
    v = np.array([1.0, 2.0]) / np.sqrt(5)
    g = matrix_group_orbit_gram([np.eye(2)], v)
    assert g.n == 1
    assert abs(g.entries[0, 0] - 1.0) < 1e-12


def test_matrix_group_orbit_gram_sign_pair():
    v = np.array([1.0, 0.0])
    g = matrix_group_orbit_gram([-np.eye(2)], v)
    assert g.n == 2
    assert np.abs(g.entries - np.array([[1, -1], [-1, 1]])).max() < 1e-12


def test_matrix_group_orbit_gram_errors():
    v = np.array([1.0, 0.0])
    with pytest.raises(InputError):
        matrix_group_orbit_gram([np.array([[2.0, 0.0], [0.0, 1.0]])], v)
    shift = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ResourceError):
        matrix_group_orbit_gram([shift], v, order_cap=1)


def test_distinct_moduli():
    m = np.eye(3)
    m[0, 1] = m[1, 0] = 0.5
    m[0, 2] = m[2, 0] = 0.5
    m[1, 2] = m[2, 1] = 0.25
    vals = distinct_moduli(GramMatrix.from_entries(m))
    assert np.allclose(vals, [0.25, 0.5])


def test_gap_clusters():
    values = np.array([0.5, 0.1, 0.3, 0.1, 0.5, 0.2])
    clusters = gap_clusters(values, 0.15)
    # unsorted input with ties; the returned indices point into the input
    assert [sorted(values[idx].tolist()) for idx in clusters] == [[0.1, 0.1, 0.2, 0.3], [0.5, 0.5]]
    assert sorted(np.concatenate(clusters).tolist()) == list(range(len(values)))
    assert all(np.all(np.diff(values[idx]) >= 0) for idx in clusters)
    # a gap exactly equal to the threshold does not split; a larger one does
    assert len(gap_clusters(np.array([1.0, 0.0, 2.0]), 1.0)) == 1
    assert [idx.tolist() for idx in gap_clusters(np.array([1.0, 0.0, 2.0]), 0.5)] == [[1], [0], [2]]


def test_packing_report_on_simplex():
    n = 4
    simplex = GramMatrix.from_entries((np.eye(n) - np.full((n, n), 1 / n)))
    rep = packing_report(simplex)
    assert rep.n == 4 and rep.d == 3
    assert rep.is_etf and rep.is_tight and rep.welch_met
    assert rep.field == "real"
    assert abs(rep.coherence - 1 / 3) < 1e-9


def test_welch_consistency_for_etfs():
    # is_etf and unit norm implies coherence equals the Welch bound
    for g in (
        harmonic_gram([7], [(1,), (2,), (4,)]),
        harmonic_gram([4], [(0,), (1,), (2,)]),
        GramMatrix.from_entries(np.eye(5) - np.full((5, 5), 1 / 5)),
    ):
        if not is_etf(g):
            continue
        gn = g.normalized()
        d = gram_rank(g)
        assert abs(coherence(gn) - welch_bound(g.n, d)) < 1e-9


def test_coherence_at_least_welch():
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        a /= np.linalg.norm(a, axis=0)
        g = GramMatrix.from_entries(a.conj().T @ a)
        assert coherence(g) >= welch_bound(7, 3) - 1e-9


def test_two_value_criterion(fixture_schemes):
    # the reduction of a scheme projection is an ETF exactly when its
    # entries take a single modulus outside the reduction classes
    from linepack.idempotents import central_primitive_idempotents, projection_from_subset

    for name, scheme in fixture_schemes.items():
        dec = central_primitive_idempotents(scheme)
        for r in range(1, dec.n_projections + 1):
            for subset in itertools.combinations(range(dec.n_projections), r):
                gram = projection_from_subset(dec, subset)
                reduced, class_map = projective_reduce(gram)
                if reduced.n < 2:
                    continue
                cls = np.asarray(class_map)
                cross = np.abs(gram.entries[cls[:, None] != cls[None, :]])
                cross.sort()
                n_moduli = 1 + int((np.diff(cross) > 1e-7).sum())
                assert is_etf(reduced) == (n_moduli == 1), (name, subset)
