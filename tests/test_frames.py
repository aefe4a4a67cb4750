import itertools
import warnings

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
    is_tight,
    matrix_group_orbit_gram,
    naimark_complement,
    packing_report,
    projective_reduce,
    secondary_bounds,
    welch_bound,
)


def brute_force_welch(n, d):
    """Oracle: the bound evaluated directly from its defining expression."""
    return ((n - d) / (d * (n - 1))) ** 0.5


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
    assert _assert_reduce_matches_reference(g) == [0, 0, 2]


def _reference_projective_reduce(gram, tol=1e-7):
    """The pairwise loop projective_reduce replaced, kept verbatim as the oracle."""
    entries = gram.entries
    n = gram.n
    diag = np.real(np.diag(entries))
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(diag - diag[0]).max() > tol * scale:
        raise InputError("projective reduction requires a constant diagonal")
    class_map = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if class_map[x] >= 0:
            continue
        class_map[x] = x
        reps.append(x)
        col_x = entries[:, x]
        anchor = int(np.argmax(np.abs(col_x)))
        for y in range(x + 1, n):
            if class_map[y] >= 0:
                continue
            col_y = entries[:, y]
            ax, ay = col_x[anchor], col_y[anchor]
            if abs(abs(ax) - abs(ay)) > tol * scale or abs(ax) <= tol * scale:
                continue
            alpha = ay / ax
            if abs(abs(alpha) - 1.0) > tol:
                continue
            if np.abs(col_y - alpha * col_x).max() <= tol * scale:
                class_map[y] = x
        # a vector proportional to nothing keeps its own singleton class
    sizes = [class_map.count(r) for r in reps]
    if len(set(sizes)) > 1:
        warnings.warn("projective reduction classes have unequal sizes", stacklevel=2)
    sub = entries[np.ix_(reps, reps)]
    return GramMatrix.from_entries(sub), class_map


def _assert_reduce_matches_reference(gram, tol=1e-7):
    with warnings.catch_warnings(record=True) as ref_warnings:
        warnings.simplefilter("always")
        ref_red, ref_map = _reference_projective_reduce(gram, tol)
    with warnings.catch_warnings(record=True) as new_warnings:
        warnings.simplefilter("always")
        red, class_map = projective_reduce(gram, tol)
    assert class_map == ref_map
    assert all(type(r) is int for r in class_map)
    assert red.entries.tobytes() == ref_red.entries.tobytes()
    assert len(new_warnings) == len(ref_warnings)
    return class_map


def _duplicated_lines_gram(rng, d, lines, copies, field):
    """Gram of `lines` random unit vectors in dimension d, each repeated `copies`
    times with random unit phases (signs over R), columns shuffled."""
    base = rng.standard_normal((d, lines))
    if field == "complex":
        base = base + 1j * rng.standard_normal((d, lines))
    base /= np.linalg.norm(base, axis=0)
    cols = np.repeat(np.arange(lines), copies)
    if field == "complex":
        phases = np.exp(2j * np.pi * rng.random(cols.size))
    else:
        phases = rng.choice([-1.0, 1.0], cols.size)
    synth = base[:, cols] * phases
    synth = synth[:, rng.permutation(cols.size)]
    return GramMatrix.from_entries(synth.conj().T @ synth)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("field", ["real", "complex"])
def test_projective_reduce_matches_reference_on_duplicated_lines(seed, field):
    rng = np.random.default_rng(seed)
    lines, copies = int(rng.integers(2, 9)), int(rng.integers(1, 5))
    gram = _duplicated_lines_gram(rng, 4, lines, copies, field)
    class_map = _assert_reduce_matches_reference(gram)
    assert len(set(class_map)) == lines


def test_projective_reduce_matches_reference_with_zero_columns():
    _assert_reduce_matches_reference(GramMatrix.from_entries(np.zeros((5, 5))))
    # zero diagonal (Hermitian, not PSD): column 2 is zero, column 3 is
    # -1 times column 1 and column 4 is i times column 0
    m = np.zeros((5, 5), dtype=complex)
    m[0, 1], m[0, 3], m[1, 4], m[3, 4] = 1.0, -1.0, 1j, -1j
    m = m + m.conj().T
    assert _assert_reduce_matches_reference(GramMatrix.from_entries(m)) == [0, 1, 2, 1, 0]


def test_projective_reduce_matches_reference_on_non_unimodular_multiple():
    # zero diagonal again: column 1 is 1.001 times column 0, which passes
    # the anchor modulus test at scale 100 but not the phase test
    m = np.zeros((4, 4))
    m[0, 2], m[1, 2], m[2, 3] = 1e-3, 1.001e-3, 100.0
    m = m + m.T
    assert _assert_reduce_matches_reference(GramMatrix.from_entries(m)) == [0, 1, 2, 3]


@pytest.mark.parametrize("steps, expected", [((0, 2, 1), [0, 1, 0, 3]), ((0, 1, 2), [0, 0, 2, 3])])
def test_projective_reduce_tolerance_chain_keeps_first_representative(steps, expected):
    # lines u + k eps w, k = steps[i], with eps = 0.7 tol: neighbours in the
    # chain are within tol of each other, its two ends are not; a vector
    # along w makes the differences show in the Gram columns
    tol = 1e-7
    u, w = np.eye(2)
    vecs = [u + k * 0.7 * tol * w for k in steps] + [w]
    synth = np.column_stack([v / np.linalg.norm(v) for v in vecs])
    gram = GramMatrix.from_entries(synth.T @ synth)
    assert _assert_reduce_matches_reference(gram, tol) == expected


@pytest.mark.parametrize("offset, merged", [(0.5, True), (2.0, False)])
def test_projective_reduce_matches_reference_near_tol(offset, merged):
    tol = 1e-7
    rng = np.random.default_rng(5)
    gram = _duplicated_lines_gram(rng, 3, 4, 2, "complex")
    ref = _reference_projective_reduce(gram, tol)[1]
    x = 0
    y = next(j for j in range(1, gram.n) if ref[j] == x)
    k = next(j for j in range(gram.n) if j not in (x, y))
    entries = gram.entries.copy()
    # column y is off parallel to column x by offset * tol in row k only
    entries[k, y] += offset * tol
    entries[y, k] = np.conj(entries[k, y])
    class_map = _assert_reduce_matches_reference(GramMatrix.from_entries(entries), tol)
    assert (class_map[y] == x) == merged


def test_packing_report_rank_and_flags_match_public_tests(fixture_schemes, monkeypatch):
    from linepack import frames
    from linepack.idempotents import central_primitive_idempotents, projection_from_subset

    eig_calls = []

    def counted_gram_rank(gram, *args, **kwargs):
        eig_calls.append(gram)
        return gram_rank(gram, *args, **kwargs)

    monkeypatch.setattr(frames, "gram_rank", counted_gram_rank)
    grams = []
    for scheme in fixture_schemes.values():
        dec = central_primitive_idempotents(scheme)
        for r in range(1, dec.n_projections + 1):
            for subset in itertools.combinations(range(dec.n_projections), r):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    grams.append(projective_reduce(projection_from_subset(dec, subset))[0])
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
    random_gram = GramMatrix.from_entries(a.conj().T @ a)
    for g in grams + [random_gram]:
        before = len(eig_calls)
        rep = packing_report(g)
        assert rep.d == gram_rank(g)
        assert rep.is_etf == is_etf(g)
        assert rep.is_tight == is_tight(g)
        # tight Grams take d from tr G / c; only the others reach eigvalsh
        assert len(eig_calls) - before == (0 if rep.is_tight else 1)
    assert not is_tight(random_gram) and packing_report(random_gram).d == 3
    assert sum(packing_report(g).is_tight for g in grams) > 0


def test_packing_report_rank_needs_a_certifying_margin():
    # REPORT_TOL accepts G as tight, and tr G / c rounds to 2, but the
    # third eigenvalue 1.5e-8 is above gram_rank's threshold
    q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))
    g = GramMatrix.from_entries(q @ np.diag([1.0, 1.0, 1.5e-8, 0.0, 0.0, 0.0]) @ q.T)
    rep = packing_report(g)
    assert rep.is_tight
    tr, tr_sq = np.trace(g.entries).real, np.trace(g.entries @ g.entries).real
    assert round(tr / (tr_sq / tr)) == 2
    assert rep.d == gram_rank(g) == 3


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


def test_repeated_dual_elements_are_refused():
    # a multiset of characters is no subset: its Gram is not a projection
    for check in (harmonic_gram, difference_set_check):
        with pytest.raises(InputError, match=r"\(1,\) is repeated"):
            check([7], [(1,), (1,)])


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
