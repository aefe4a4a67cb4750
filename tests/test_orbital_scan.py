"""The scan's coefficient-space path against the dense path it stands in for.

`projection_from_subset` returns a Gram held in its orbital form, and
`projective_reduce` and `packing_report` read such a Gram per orbital.  The
dense path, run on the same Gram stripped of its form, is the reference:
class maps, reduced entries and scan rows must agree exactly.
"""

import itertools
import json
import warnings

import numpy as np
import pytest
from test_stdout_digest import DIGESTS, LIMITED_CASES, idempotent_fingerprint

from linepack import errors, fixtures, frames, idempotents
from linepack.cli import build_parser, cmd_scan_etf, main, scan_row
from linepack.errors import InputError, ResourceError
from linepack.frames import (
    IDEMPOTENT_TOL,
    REDUCE_TOL,
    REPORT_TOL,
    GramMatrix,
    packing_report,
    projective_reduce,
)
from linepack.idempotents import central_primitive_idempotents, projection_from_subset
from linepack.permgroup import GroupAction, induced_pair_action, regular_action
from linepack.scheme import SchurianScheme, scheme_from_action



def _shipped_schemes():
    return {
        "agl_natural": scheme_from_action(GroupAction(fixtures.named_group("agl"))),
        "sl2_f8_pairs": scheme_from_action(induced_pair_action(GroupAction(fixtures.named_group("sl2_f8")))),
        "m11_pairs": scheme_from_action(induced_pair_action(GroupAction(fixtures.named_group("m11")))),
    }


@pytest.fixture(scope="module")
def decompositions(fixture_schemes):
    schemes = {**fixture_schemes, **_shipped_schemes()}
    return {name: central_primitive_idempotents(sch) for name, sch in schemes.items()}


def _subsets(r):
    largest = 3 if r > 12 else r
    for k in range(1, largest + 1):
        yield from itertools.combinations(range(r), k)


class _Fallbacks:
    """Counts the subsets whose orbital-form Gram left coefficient space."""

    def __init__(self, monkeypatch):
        self.reduce = self.report = 0
        reduce_orbitals, orbital_facts = frames._reduce_orbitals, frames._orbital_facts

        def counted_reduce(*args):
            out = reduce_orbitals(*args)
            self.reduce += out is None
            return out

        def counted_facts(*args):
            out = orbital_facts(*args)
            self.report += out is None
            return out

        monkeypatch.setattr(frames, "_reduce_orbitals", counted_reduce)
        monkeypatch.setattr(frames, "_orbital_facts", counted_facts)


def _dense(gram):
    return GramMatrix.from_entries(gram.entries)


def test_projection_form_matches_the_dense_symmetrised_sum(decompositions):
    for dec in decompositions.values():
        for subset in itertools.islice(_subsets(dec.n_projections), 40):
            gram = projection_from_subset(dec, subset)
            entries = dec.coefficients[list(subset)].sum(axis=0)[dec.scheme.orbital_of]
            entries = (entries + entries.conj().T) / 2
            assert gram.entries.tobytes() == entries.tobytes()


def test_coefficient_scan_matches_dense_scan(decompositions, monkeypatch):
    fallbacks = _Fallbacks(monkeypatch)
    scored = 0
    for name, dec in decompositions.items():
        for subset in _subsets(dec.n_projections):
            rank = sum(dec.ranks[j] for j in subset)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                gram = projection_from_subset(dec, subset)
                red, class_map = projective_reduce(gram, REDUCE_TOL)
                report = packing_report(red) if red.n >= 2 else None
                # scored without forming a dense matrix
                assert gram._entries is None and red._entries is None
                dense_red, dense_map = projective_reduce(_dense(gram), REDUCE_TOL)
                assert class_map == dense_map, (name, subset)
                assert red.entries.tobytes() == dense_red.entries.tobytes(), (name, subset)
                if report is not None:
                    dense_report = packing_report(dense_red)
                    assert report.to_json_dict() == dense_report.to_json_dict(), (name, subset)
                for reduce in (True, False):
                    row = scan_row(subset, rank, gram, reduce)
                    dense_row = scan_row(subset, rank, _dense(gram), reduce)
                    assert row == dense_row, (name, subset, reduce)
            scored += 1
    assert scored > 800
    # every decision was clear of its tolerance, so none of them fell back
    assert (fallbacks.reduce, fallbacks.report) == (0, 0)


def test_z7_collapsed_phases_do_not_reach_the_field(decompositions):
    # one character of Z_7: all seven lines coincide up to complex phases,
    # and the one-point reduced Gram keeps only the real diagonal
    dec = decompositions["z7_regular"]
    for j in range(dec.n_projections):
        gram = projection_from_subset(dec, [j])
        red, class_map = projective_reduce(gram, REDUCE_TOL)
        assert red.n == 1 and class_map == [0] * 7
    complex_rows = 0
    for subset in _subsets(dec.n_projections):
        row = scan_row(subset, len(subset), projection_from_subset(dec, subset), True)
        dense = scan_row(subset, len(subset), _dense(projection_from_subset(dec, subset)), True)
        assert row == dense
        complex_rows += row["field"] == "complex"
    assert complex_rows > 0


@pytest.mark.parametrize("offset", [0.05, 0.5, 2.0])
def test_orbital_modulus_near_tolerance_falls_back_and_matches(decompositions, monkeypatch, offset):
    # a rank-one projection of Z_7: every orbital has modulus x_0 = 1/7; pull
    # one orbital (and its transpose) offset * tol below it.  At 0.5 and 2 the
    # modulus test lands within 10x of tol; at 0.05 it passes, and the phase
    # test, at 7 * 0.05 tol from unimodular, lands there instead
    dec = decompositions["z7_regular"]
    gram = projection_from_subset(dec, [1])
    x = gram.orbital.x.copy()
    pairing = list(dec.scheme.transpose_pairing)
    i = 1
    x[i] *= 1 - offset * REDUCE_TOL / abs(x[i])
    x[pairing[i]] = np.conj(x[i])
    near = GramMatrix.from_orbitals(dec.scheme, x)
    assert abs(abs(x[i]) - x[0].real) == pytest.approx(offset * REDUCE_TOL, rel=1e-6)
    fallbacks = _Fallbacks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        red, class_map = projective_reduce(near, REDUCE_TOL)
        dense_red, dense_map = projective_reduce(_dense(near), REDUCE_TOL)
        row = scan_row([1], 1, near, True)
        assert row == scan_row([1], 1, _dense(near), True)
    assert fallbacks.reduce == 2
    assert class_map == dense_map
    assert red.entries.tobytes() == dense_red.entries.tobytes()


# perturbations of Z_7's rank-one projection, where every orbital has modulus
# x_0 = 1/7, that land a test other than the modulus test within 10x of its
# tolerance
NEAR_TOLERANCE = {
    # the anchor's modulus x_0 below 10 tol, and n x_0 below 10 REPORT_TOL
    "anchor": lambda x: x * 5e-8,
    # moduli unchanged, one orbital turned so the column residual is 0.5 tol
    "column": lambda x: x * np.exp(3.5j * REDUCE_TOL * (np.arange(len(x)) == 1)),
}


@pytest.mark.parametrize("case", sorted(NEAR_TOLERANCE))
def test_near_tolerance_form_falls_back_to_the_dense_path(decompositions, monkeypatch, case):
    dec = decompositions["z7_regular"]
    x = NEAR_TOLERANCE[case](projection_from_subset(dec, [1]).orbital.x)
    x[dec.scheme.transpose_pairing[1]] = np.conj(x[1])
    near = GramMatrix.from_orbitals(dec.scheme, x)
    fallbacks = _Fallbacks(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        red, class_map = projective_reduce(near)
        dense_red, dense_map = projective_reduce(_dense(near))
    report = packing_report(near)
    assert (fallbacks.reduce, fallbacks.report) == (1, 1)
    assert class_map == dense_map
    assert red.entries.tobytes() == dense_red.entries.tobytes()
    assert report.to_json_dict() == packing_report(_dense(near)).to_json_dict()


def test_report_falls_back_when_the_certified_rank_is_fractional(decompositions, monkeypatch):
    # a cut-down form whose certificate claims G^2 = c G with tr G / c half
    # way between two integers
    dec = decompositions["s4_pairs"]
    gram = projection_from_subset(dec, [0, 1])
    form = gram.orbital
    rank = round(gram.n * form.x[0].real)
    claimed = GramMatrix._of_form(
        frames.OrbitalForm(form.orbital_of, form.x, certificate=(rank / (rank + 0.5), 0.0))
    )
    fallbacks = _Fallbacks(monkeypatch)
    report = packing_report(claimed)
    assert fallbacks.report == 1
    assert report.to_json_dict() == packing_report(_dense(gram)).to_json_dict()


def test_report_falls_back_when_the_certificate_is_loose(decompositions, monkeypatch):
    dec = decompositions["s4_pairs"]
    gram = projection_from_subset(dec, [0, 1])
    form = gram.orbital
    loose = GramMatrix._of_form(
        frames.OrbitalForm(form.orbital_of, form.x, certificate=(1.0, REPORT_TOL / 5))
    )
    fallbacks = _Fallbacks(monkeypatch)
    report = packing_report(loose)
    assert fallbacks.report == 1
    assert report.to_json_dict() == packing_report(_dense(gram)).to_json_dict()


def test_orbital_form_that_is_no_projection_is_read_densely(decompositions, monkeypatch):
    # identity plus one symmetric orbital: constant on orbitals, not tight
    dec = decompositions["s4_pairs"]
    pairing = dec.scheme.transpose_pairing
    i = next(i for i in range(1, len(pairing)) if pairing[i] == i)
    x = np.zeros(len(pairing), dtype=complex)
    x[0], x[i] = 1.0, 0.25
    gram = GramMatrix.from_orbitals(dec.scheme, x)
    fallbacks = _Fallbacks(monkeypatch)
    report = packing_report(gram)
    assert fallbacks.report == 1 and not report.is_tight
    assert report.to_json_dict() == packing_report(_dense(gram)).to_json_dict()


def test_subset_certificate_bounds_the_dense_residual(decompositions):
    # the certificate summed from the verified pair bounds bounds the 2-norm
    # of G^2 - c G on every subset, with c read off x; a form built by hand
    # carries none, so its report takes the dense path
    for name, dec in decompositions.items():
        for subset in _subsets(dec.n_projections):
            gram = projection_from_subset(dec, subset)
            c, bound = gram.orbital.certificate
            x = gram.orbital.x
            assert c == float(np.asarray(dec.scheme.valencies) @ np.abs(x) ** 2) / x[0].real
            g = gram.entries
            assert float(np.linalg.norm(g @ g - c * g, 2)) <= bound < REPORT_TOL / 100, (name, subset)
    scheme = decompositions["s4_pairs"].scheme
    x = np.zeros(scheme.n_orbitals, dtype=complex)
    x[0], x[1:] = 1.0, 0.2
    assert GramMatrix.from_orbitals(scheme, x).orbital.certificate is None


def test_a_perturbed_projector_sends_its_subsets_to_the_dense_path(fixture_schemes, monkeypatch):
    # a projector moved by 4e-9 along one symmetric orbital still passes the
    # IDEMPOTENT_TOL checks, but its pair bounds now exceed the report's
    # threshold: exactly the subsets that hold it are reported densely
    scheme = fixture_schemes["s4_pairs"]
    clean = central_primitive_idempotents(scheme)
    pairing = scheme.transpose_pairing
    i = next(i for i in range(1, scheme.n_orbitals) if pairing[i] == i)
    decompose = idempotents._decompose_once

    def perturbed(scheme, herm, seed):
        projectors = decompose(scheme, herm, seed)
        e, size = projectors[-1]
        projectors[-1] = (e + 4e-9 * (np.arange(len(e)) == i), size)
        return projectors

    monkeypatch.setattr(idempotents, "_decompose_once", perturbed)
    dec = central_primitive_idempotents(scheme)
    moved = np.abs(dec.coefficients - clean.coefficients).max(axis=1)
    assert np.count_nonzero(moved) == 1 and moved.max() < IDEMPOTENT_TOL
    j = int(moved.argmax())
    fallbacks = _Fallbacks(monkeypatch)
    holding = 0
    for subset in _subsets(dec.n_projections):
        rank = sum(dec.ranks[a] for a in subset)
        gram = projection_from_subset(dec, subset)
        before = fallbacks.report
        row = scan_row(subset, rank, gram, False)
        assert fallbacks.report - before == (j in subset), subset
        holding += j in subset
        assert row == scan_row(subset, rank, _dense(gram), False), subset
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert scan_row(subset, rank, gram, True) == scan_row(subset, rank, _dense(gram), True)
    assert holding == 2 ** (dec.n_projections - 1)


def test_zero_diagonal_form_raises_the_dense_input_error():
    # x = e_1 on AGL natural: a Hermitian orbital form whose diagonal is 0
    scheme = scheme_from_action(GroupAction(fixtures.named_group("agl")))
    x = np.zeros(scheme.n_orbitals, dtype=complex)
    x[1] = 1.0
    gram = GramMatrix.from_orbitals(scheme, x)
    for form in (gram, _dense(gram)):
        with pytest.raises(InputError, match="coherence requires a strictly positive diagonal"):
            packing_report(form)
    assert projective_reduce(gram)[1] == projective_reduce(_dense(gram))[1]


def test_equal_anchor_moduli_without_parallel_columns_stay_apart(decompositions, monkeypatch):
    # a matching orbital i (valency 1, self-paired) gets modulus x_0, so the
    # modulus and phase tests pass on it; the other orbitals get distinct
    # values, so only the column residual keeps the matched points apart
    scheme = decompositions["s4_pairs"].scheme
    pairing = scheme.transpose_pairing
    i = next(i for i in range(1, scheme.n_orbitals) if scheme.valencies[i] == 1 and pairing[i] == i)
    x = np.array([0.1 * min(j, pairing[j]) for j in range(scheme.n_orbitals)], dtype=complex)
    x[0] = x[i] = 1.0
    gram = GramMatrix.from_orbitals(scheme, x)
    fallbacks = _Fallbacks(monkeypatch)
    red, class_map = projective_reduce(gram, REDUCE_TOL)
    assert fallbacks.reduce == 0
    assert class_map == projective_reduce(_dense(gram), REDUCE_TOL)[1] == list(range(gram.n))


def test_from_orbitals_checks_its_form(decompositions):
    dec = decompositions["s4_pairs"]
    x = projection_from_subset(dec, [0]).orbital.x.copy()
    asymmetric = next(i for i, j in enumerate(dec.scheme.transpose_pairing) if i != j)
    x[asymmetric] += 1e-3
    with pytest.raises(InputError):
        GramMatrix.from_orbitals(dec.scheme, x)
    with pytest.raises(InputError):
        GramMatrix.from_orbitals(dec.scheme, np.append(x, 0.0))


# schemes whose transpose-closed orbital sets S, with 0, are all run through
# the reduction, and how many of them are closed (the block systems)
BLOCK_SCHEMES = {
    "s4_pairs": (lambda: induced_pair_action(GroupAction(fixtures.named_group("s4"))), 32, 6),
    "z12_regular": (lambda: regular_action(fixtures.named_group("z12")), 64, 6),
    "d6_regular": (lambda: regular_action(fixtures.named_group("d6")), 512, 16),
    "agl_natural": (lambda: GroupAction(fixtures.named_group("agl")), 8, 3),
}


@pytest.mark.parametrize("case", sorted(BLOCK_SCHEMES))
def test_every_block_system_reduces_in_coefficient_space(case, monkeypatch):
    # x = 1_S is constant on orbitals; where S is closed its columns agree on
    # the blocks, which the old argmax over the n x n array 1_S[of] reads
    action, subsets, blocks = BLOCK_SCHEMES[case]
    scheme = scheme_from_action(action())
    of, pairing = scheme.orbital_of, scheme.transpose_pairing
    pairs = sorted({frozenset((i, pairing[i])) for i in range(1, scheme.n_orbitals)}, key=min)
    fallbacks = _Fallbacks(monkeypatch)
    closed = 0
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        x = np.zeros(scheme.n_orbitals)
        x[[0, *(i for pair, on in zip(pairs, chosen) if on for i in pair)]] = 1.0
        gram = GramMatrix.from_orbitals(scheme, x)
        red, class_map = projective_reduce(gram)
        dense_red, dense_map = projective_reduce(_dense(gram))
        assert class_map == dense_map, chosen
        assert red.entries.tobytes() == dense_red.entries.tobytes(), chosen
        same = x[of] > 0
        if np.array_equal((same.astype(np.int64) @ same) > 0, same):  # S is transitive: closed
            closed += 1
            assert class_map == np.argmax(same, axis=0).tolist(), chosen
    assert (2 ** len(pairs), closed) == (subsets, blocks)
    assert (fallbacks.reduce, fallbacks.report) == (0, 0)


# scans whose every subset is decided in coefficient space: the S_m pair
# ladder, the shipped fixtures, the benchmark's scan commands and SL(2,8)
# regular, whose c = 504 orbitals give the widest rounding terms of the
# pair bounds
SCANS = {
    "s20_pairs": ("s20", ["--action", "pairs"]),
    "sl2_f8_regular": ("sl2_f8", ["--action", "regular"]),
    "s30_pairs": ("s30", ["--action", "pairs"]),
    "s45_pairs": ("s45", ["--action", "pairs"]),
    "hoggar": ("hoggar", ["--max-subset-size", "2"]),
    "heis5": ("heis5", []),
    **{
        f"{name}_{action}{suffix}": (name, ["--action", action, *flags])
        for name in ("agl", "sl2_f8", "m11")
        for action in ("natural", "pairs")
        for suffix, flags in (("", []), ("_no_reduce", ["--no-reduce"]))
        if (name, action) != ("agl", "pairs")  # AGL on pairs is not transitive
    },
}


@pytest.mark.parametrize("case", sorted(SCANS))
def test_scan_takes_no_dense_fallback(case, monkeypatch, capsys):
    group, flags = SCANS[case]
    fallbacks = _Fallbacks(monkeypatch)
    assert main(["scan-etf", f"fixture:{group}", *flags]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    assert rows
    assert (fallbacks.reduce, fallbacks.report) == (0, 0)


def _gerzon(row):
    d, n = row["rank"], row["n"]
    return n <= (d * d if row["field"] == "complex" else d * (d + 1) // 2)


@pytest.mark.parametrize(
    "group, action",
    [
        ("fixture:agl", "natural"),
        ("fixture:sl2_f8", "natural"),
        ("fixture:m11", "natural"),
        ("fixture:sl2_f8", "pairs"),
        ("fixture:m11", "pairs"),
    ],
)
def test_scan_etf_rows_obey_the_gerzon_bound(group, action):
    args = build_parser().parse_args(["scan-etf", group, "--action", action])
    rows = cmd_scan_etf(args)["results"]
    etfs = [row for row in rows if row["is_etf"]]
    assert etfs
    assert all(_gerzon(row) for row in etfs), [r for r in etfs if not _gerzon(r)]


def test_fixture_scheme_etf_rows_obey_the_gerzon_bound(decompositions):
    etfs = 0
    for dec in decompositions.values():
        for subset in _subsets(dec.n_projections):
            rank = sum(dec.ranks[j] for j in subset)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                row = scan_row(subset, rank, projection_from_subset(dec, subset), True)
            if row["is_etf"]:
                etfs += 1
                assert _gerzon(row), row
    assert etfs > 50


def test_structure_constants_refuse_an_oversized_tensor():
    c = 513  # c^3 just above 2^27
    scheme = SchurianScheme(1, np.zeros((1, 1), dtype=np.int64), (1,) * c, tuple(range(c)))
    with pytest.raises(ResourceError, match="structure constants of 513 orbitals"):
        scheme.structure_constants


def test_no_center_is_refused_past_the_tensor_limit(monkeypatch):
    # 144 <= limit < 12^3: the orbital matrices fit and no tensor of 12
    # orbitals does; the center, commutative or not, reads no tensor
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 1000)
    z12 = scheme_from_action(regular_action(fixtures.named_group("z12")))
    assert central_primitive_idempotents(z12).ranks == (1,) * 12
    d6 = scheme_from_action(regular_action(fixtures.named_group("d6")))
    assert sorted(central_primitive_idempotents(d6).ranks) == [1, 1, 1, 1, 4, 4]
    assert "structure_constants" not in z12.__dict__ and "structure_constants" not in d6.__dict__


def test_regular_sl2_f8_idempotents_run_below_the_tensor_limit(monkeypatch, capsys):
    # c = 504: below 504^3 the orbital matrix fits and the tensor does not,
    # and the center needs none of it
    monkeypatch.setattr(errors, "MAX_ARRAY_ENTRIES", 504**3 - 1)
    case = "idempotent_fields_sl2_f8_regular"
    assert main(LIMITED_CASES[case]) == 0
    digest = idempotent_fingerprint(capsys.readouterr().out)
    assert digest == json.loads(DIGESTS.read_text())[case]
