import tracemalloc

import numpy as np
import pytest

from linepack import idempotents
from linepack.cli import main
from linepack.errors import NumericError
from linepack.fixtures import named_group
from linepack.idempotents import (
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
    spherical_function_values,
)
from linepack.permgroup import (
    GroupAction,
    PermutationGroup,
    induced_pair_action,
    regular_action,
)
from linepack.scheme import (
    conjugacy_class_scheme,
    is_commutative,
    scheme_from_action,
    stable_matrix_check,
)

S3 = named_group("s3")


def m11_pairs_scheme():
    return scheme_from_action(induced_pair_action(GroupAction(named_group("m11"))))


def d20_regular_scheme():
    return scheme_from_action(regular_action(named_group("d20")))


def fixture_schemes():
    return [
        scheme_from_action(GroupAction(S3)),
        scheme_from_action(regular_action(named_group("z3"))),
        scheme_from_action(regular_action(named_group("z4"))),
        scheme_from_action(regular_action(named_group("z7"))),
        scheme_from_action(regular_action(S3)),
        scheme_from_action(induced_pair_action(GroupAction(S3))),
        conjugacy_class_scheme(S3),
        conjugacy_class_scheme(PermutationGroup.from_cycles(8, ["(0 1 2 3)(4 6 5 7)", "(0 4 2 5)(1 7 3 6)"])),
        scheme_from_action(GroupAction(named_group("s5"))),
        scheme_from_action(regular_action(PermutationGroup.from_cycles(6, ["(0 1 2)", "(3 4)"]))),
    ]


def dft_projections(n):
    """Oracle: rank-1 idempotents of the cyclic regular scheme via the DFT."""
    omega = np.exp(2j * np.pi / n)
    out = []
    for a in range(n):
        chi = omega ** (a * np.arange(n))
        out.append(np.outer(chi, chi.conj()) / n)
    return out


def test_s3_natural_two_projections():
    sch = scheme_from_action(GroupAction(S3))
    dec = central_primitive_idempotents(sch)
    assert dec.n_projections == 2
    assert dec.ranks == (1, 2)
    j3 = np.full((3, 3), 1 / 3)
    assert np.abs(dec.projection_matrix(dec.trivial_index) - j3).max() < 1e-9
    other = 1 - dec.trivial_index
    assert np.abs(dec.projection_matrix(other) - (np.eye(3) - j3)).max() < 1e-9


def test_z3_regular_matches_dft_oracle():
    sch = scheme_from_action(regular_action(named_group("z3")))
    dec = central_primitive_idempotents(sch)
    assert dec.ranks == (1, 1, 1)
    oracle = dft_projections(3)
    for j in range(3):
        p = dec.projection_matrix(j)
        assert any(np.abs(p - q).max() < 1e-9 for q in oracle)


@pytest.mark.parametrize("n", [48, 97])
def test_cyclic_regular_matches_dft_oracle(n):
    sch = scheme_from_action(regular_action(named_group(f"z{n}")))
    dec = central_primitive_idempotents(sch)
    assert dec.ranks == (1,) * n
    oracle = dft_projections(n)
    matched = set()
    for j in range(n):
        p = dec.projection_matrix(j)
        # E_a[0, 1] = omega^(-a) / n names the character
        a = int(round(-np.angle(p[0, 1]) * n / (2 * np.pi))) % n
        assert np.abs(p - oracle[a]).max() < 1e-9
        matched.add(a)
    assert len(matched) == n


def test_z3_spherical_values_are_inverse_characters():
    sch = scheme_from_action(regular_action(named_group("z3")))
    dec = central_primitive_idempotents(sch)
    omega = np.exp(2j * np.pi / 3)
    rows = {
        tuple(np.round(spherical_function_values(dec, j), 9)) for j in range(3)
    }
    # one row per dual character alpha, with values conj(alpha) on the orbitals
    expected = set()
    for a in range(3):
        expected.add(tuple(np.round(np.conj(omega ** (a * np.arange(3))), 9)))
    # orbital order may permute the nontrivial classes; compare as value multisets
    flat = sorted(sorted((v.real, v.imag) for v in row) for row in rows)
    flat_expected = sorted(sorted((v.real, v.imag) for v in row) for row in expected)
    assert np.allclose(flat, flat_expected, atol=1e-9)


def test_trivial_projection_values_all_one():
    sch = scheme_from_action(GroupAction(S3))
    dec = central_primitive_idempotents(sch)
    vals = spherical_function_values(dec, dec.trivial_index)
    assert np.abs(vals - 1).max() < 1e-9


@pytest.mark.parametrize("idx,scheme", list(enumerate(fixture_schemes())))
def test_idempotent_axioms(idx, scheme):
    dec = central_primitive_idempotents(scheme)
    n = scheme.point_count
    projs = [dec.projection_matrix(j) for j in range(dec.n_projections)]
    total = np.zeros((n, n), dtype=complex)
    for p in projs:
        assert np.abs(p @ p - p).max() < 1e-8
        assert np.abs(p - p.conj().T).max() < 1e-12
        assert stable_matrix_check(scheme, p)
        total += p
    assert np.abs(total - np.eye(n)).max() < 1e-8
    for a in range(len(projs)):
        for b in range(a + 1, len(projs)):
            assert np.abs(projs[a] @ projs[b]).max() < 1e-8
    traces = [np.trace(p).real for p in projs]
    assert all(abs(t - round(t)) < 1e-6 for t in traces)
    assert sum(dec.ranks) == n
    if is_commutative(scheme):
        assert dec.n_projections == scheme.n_orbitals
    assert multiplicity_free(dec) == is_commutative(scheme)


@pytest.mark.parametrize("idx,scheme", list(enumerate(fixture_schemes())))
def test_commutative_schemes_decompose_without_the_tensor(idx, scheme):
    # products and the commutators of a non-commutative center are read off the
    # pair codes, so no scheme, commutative or not, forms the tensor
    central_primitive_idempotents(scheme)
    assert "structure_constants" not in scheme.__dict__


def test_s5_regular_decomposes_below_a_quarter_of_the_tensor():
    # c = 120, non-commutative: the int64 tensor alone would take c^3 * 8 bytes
    scheme = scheme_from_action(regular_action(named_group("s5")))
    c = scheme.n_orbitals
    assert c == 120 and not is_commutative(scheme)
    tracemalloc.start()
    try:
        central_primitive_idempotents(scheme)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < c**3 * 8 / 4


@pytest.mark.parametrize("seed", [1, 7, 12345])
def test_seed_independence(seed):
    for scheme in (
        scheme_from_action(regular_action(S3)),
        conjugacy_class_scheme(S3),
        m11_pairs_scheme(),
        d20_regular_scheme(),
    ):
        base = central_primitive_idempotents(scheme, seed=0)
        other = central_primitive_idempotents(scheme, seed=seed)
        assert base.ranks == other.ranks
        assert np.abs(base.coefficients - other.coefficients).max() < 1e-7


def test_s3_regular_multiplicities():
    # the 2-dimensional constituent appears twice in the regular representation
    sch = scheme_from_action(regular_action(S3))
    dec = central_primitive_idempotents(sch)
    assert not multiplicity_free(dec)
    stats = sorted(zip(dec.ranks, dec.degrees, dec.multiplicities))
    assert stats == [(1, 1, 1), (1, 1, 1), (4, 2, 2)]


def test_m11_pairs_multiplicities():
    dec = central_primitive_idempotents(m11_pairs_scheme())
    assert dec.multiplicities == (1, 1, 2, 1, 1)
    assert all(r == d * m for r, d, m in zip(dec.ranks, dec.degrees, dec.multiplicities))


def test_d20_regular_multiplicities():
    # four linear characters and nine of degree 2, each twice in the regular representation
    dec = central_primitive_idempotents(d20_regular_scheme())
    stats = sorted(zip(dec.ranks, dec.degrees, dec.multiplicities))
    assert stats == [(1, 1, 1)] * 4 + [(4, 2, 2)] * 9


def test_projection_from_subset():
    sch = scheme_from_action(GroupAction(S3))
    dec = central_primitive_idempotents(sch)
    full = projection_from_subset(dec, range(dec.n_projections))
    assert np.abs(full.entries - np.eye(3)).max() < 1e-9
    triv = projection_from_subset(dec, [dec.trivial_index])
    assert np.abs(triv.entries - 1 / 3).max() < 1e-9
    from linepack.errors import InputError

    with pytest.raises(InputError):
        projection_from_subset(dec, [5])


def test_json_export():
    sch = scheme_from_action(GroupAction(S3))
    dec = central_primitive_idempotents(sch)
    d = dec.to_json_dict()
    assert d["ranks"] == [1, 2]
    assert d["m"] == [1, 2]
    assert d["n"] == [1, 1]
    assert "projections" not in d
    assert "projections" in dec.to_json_dict(include_projections=True)


# --- certification and reseeding ---------------------------------------------


def _half_block(scheme, projectors):
    """The rank-4 block E of S_3's regular scheme cut to E (1 + t) / 2 for an involution t.

    A Hermitian idempotent orthogonal to the other two projectors, so only
    the sum check can refuse it.
    """
    t = next(i for i in range(1, scheme.n_orbitals) if scheme.transpose_pairing[i] == i)
    h = np.zeros(scheme.n_orbitals, dtype=complex)
    h[0] = h[t] = 0.5
    out = []
    for e, size in projectors:
        if round(scheme.trace(e).real) == 4:
            e = scheme.left_multiplication(e) @ h
            e = (e + scheme.adjoint(e)) / 2
        out.append((e, size))
    return out


# each corruption of seed's projectors, with the failure it must raise
CORRUPTIONS = {
    "count": (lambda sch, ps: ps[:-1], "found 2 projectors, center dimension is 3"),
    "rank-zero": (lambda sch, ps: [(0 * ps[0][0], ps[0][1])] + ps[1:], "projector has rank zero"),
    "hermitian": (
        lambda sch, ps: [(ps[0][0] + 1e-3j, ps[0][1])] + ps[1:],
        "projector is not Hermitian",
    ),
    "idempotent": (
        lambda sch, ps: [(1.5 * ps[0][0], ps[0][1])] + ps[1:],
        "projector is not idempotent",
    ),
    "orthogonal": (lambda sch, ps: [ps[0], ps[0]] + ps[2:], "projectors are not mutually orthogonal"),
    "sum": (_half_block, "projectors do not sum to the identity"),
}


def _corrupt_seeds(monkeypatch, corrupt, bad_seeds):
    """Patch `_decompose_once` to corrupt the projectors of bad_seeds; return the seeds it saw."""
    seen = []
    decompose = idempotents._decompose_once

    def corrupted(scheme, herm, seed):
        seen.append(seed)
        projectors = decompose(scheme, herm, seed)
        return corrupt(scheme, projectors) if seed in bad_seeds else projectors

    monkeypatch.setattr(idempotents, "_decompose_once", corrupted)
    return seen


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_failed_certification_reseeds(monkeypatch, name):
    scheme = scheme_from_action(regular_action(S3))
    expected = central_primitive_idempotents(scheme, seed=1)
    seen = _corrupt_seeds(monkeypatch, CORRUPTIONS[name][0], {0})
    dec = central_primitive_idempotents(scheme, seed=0)
    assert seen == [0, 1]
    assert np.array_equal(dec.coefficients, expected.coefficients)
    assert (dec.ranks, dec.degrees, dec.multiplicities, dec.trivial_index) == (
        expected.ranks,
        expected.degrees,
        expected.multiplicities,
        expected.trivial_index,
    )


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_three_failed_certifications_raise(monkeypatch, name):
    corrupt, message = CORRUPTIONS[name]
    seen = _corrupt_seeds(monkeypatch, corrupt, {0, 1, 2})
    with pytest.raises(NumericError) as exc:
        central_primitive_idempotents(scheme_from_action(regular_action(S3)), seed=0)
    assert seen == [0, 1, 2]
    assert str(exc.value) == "idempotent decomposition failed: " + "; ".join(
        f"seed {s}: {message}" for s in seen
    )


def test_failed_decomposition_exits_3(monkeypatch, capsys):
    _corrupt_seeds(monkeypatch, CORRUPTIONS["idempotent"][0], {0, 1, 2})
    assert main(["idempotents", "fixture:s3", "--action", "regular"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("numeric error: idempotent decomposition failed: seed 0: ")
    assert "seed 1: " in captured.err and "seed 2: " in captured.err


def test_cluster_size_must_be_a_block_of_the_rank(monkeypatch):
    # a cluster of 2 eigenvalues is no block of dimension multiplicity^2
    _corrupt_seeds(monkeypatch, lambda sch, ps: [(e, size + 1) for e, size in ps], {0})
    with pytest.raises(NumericError, match="a block of dimension 2 does not fit a rank-1 projector"):
        central_primitive_idempotents(scheme_from_action(regular_action(S3)), seed=0)
