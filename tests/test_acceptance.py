"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6 was first stated with coherence 1/3 for 36 lines in R^7;
its target is corrected to 3/7.  The stated 1/3 is impossible: for 36 real
lines in R^7 the orthoplex bound 1/sqrt(7) ~ 0.378 and the Levenstein bound
sqrt(45/261) ~ 0.415 both exceed it.  The value 3/7 is certified exactly:
M = round(7 * normalized reduced Gram) is an integer matrix with entries in
{7, +-1, +-3} and M @ M == 36 * M, so the 36 lines form a tight frame for
R^7 at coherence exactly 3/7.  The companion test below it pins the
two-distance angle set and the 21x36 ETF from the Galois triple.
"""

import itertools
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linepack.fixtures import (
    fiducial_vector,
    figure2_gram,
    figure3_gram,
    figure4_gram,
    hoggar_central_element_indices,
    hoggar_heisenberg_action,
    named_group,
    pauli_tensor_generators,
)
from linepack.frames import (
    coherence,
    difference_set_check,
    distinct_moduli,
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
from linepack.heisenberg import (
    GammaTwist,
    exact_is_etf,
    exact_scaled_projection_check,
    heis_etf_gram,
    heis_etf_gram_direct,
    heisenberg_permutation_action,
    make_spec,
)
from linepack.idempotents import (
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
    spherical_function_values,
)
from linepack.permgroup import GroupAction, induced_pair_action
from linepack.scheme import is_commutative, scheme_from_action, stable_matrix_check
from linepack.symmetry import find_gram_isomorphism


def _report(num: int, desc: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] criterion {num} ({desc}): {status}")
    assert not failures, f"criterion {num}: {failures}"


@pytest.fixture(scope="module")
def agl_decomposition():
    action = GroupAction(named_group("agl"))
    scheme = scheme_from_action(action)
    return scheme, central_primitive_idempotents(scheme)


@pytest.fixture(scope="module")
def hoggar_scheme_decomposition():
    action = hoggar_heisenberg_action()
    scheme = scheme_from_action(action)
    return scheme, central_primitive_idempotents(scheme)


def test_criterion_1_figure2_reproduction(agl_decomposition):
    start = time.monotonic()
    failures = []
    scheme, dec = agl_decomposition
    if not multiplicity_free(dec):
        failures.append("decomposition is not multiplicity free")
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    if len(rank7) != 1:
        failures.append(f"expected one rank-7 idempotent, found {len(rank7)}")
    computed = projection_from_subset(dec, rank7)
    diag = np.diag(computed.entries)
    if np.abs(diag - 0.25).max() > 1e-9 or np.abs(computed.entries.imag).max() > 1e-9:
        failures.append("diagonal is not 28 copies of 1/4")
    off = computed.entries.real[~np.eye(28, dtype=bool)]
    target = figure2_gram()
    target_off = target.entries.real[~np.eye(28, dtype=bool)]
    for value in (1 / 12, -1 / 12):
        got = int((np.abs(off - value) < 1e-9).sum())
        expected = int((np.abs(target_off - value) < 1e-9).sum())
        if got != expected:
            failures.append(f"off-diagonal multiset mismatch at {value}: {got} vs {expected}")
    if int((np.abs(np.abs(off) - 1 / 12) < 1e-9).sum()) != off.size:
        failures.append("off-diagonal entries are not all +-1/12")
    if find_gram_isomorphism(computed, target) is None:
        failures.append("no simultaneous permutation carries the idempotent onto the figure")
    coh = coherence(computed.normalized())
    if abs(coh - 1 / 3) > 1e-9 or abs(coh - welch_bound(28, 7)) > 1e-9:
        failures.append(f"normalized coherence {coh} is not 1/3")
    elapsed = time.monotonic() - start
    if elapsed > 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "AGL(3,2) reproduces the 7x28 ETF", failures)


def test_criterion_2_heisenberg_family():
    start = time.monotonic()
    failures = []
    for moduli in ((3,), (5,), (7,), (3, 3)):
        spec = make_spec(moduli)
        size = spec.order
        for parity in ("even", "odd"):
            gram = heis_etf_gram(spec, GammaTwist(1), parity)
            if not exact_is_etf(gram):
                failures.append(f"{moduli} {parity}: exact ETF certificate failed")
            if not exact_scaled_projection_check(gram, Fraction(size)):
                failures.append(f"{moduli} {parity}: frame constant is not |A|")
            direct = heis_etf_gram_direct(spec, GammaTwist(1), parity)
            if not gram.equals(direct):
                failures.append(f"{moduli} {parity}: closed form != direct computation")
            gm = gram.to_gram_matrix()
            d = size * (size + 1) // 2 if parity == "even" else size * (size - 1) // 2
            if gram_rank(gm) != d:
                failures.append(f"{moduli} {parity}: rank {gram_rank(gm)} != {d}")
            coh = coherence(gm)
            expected = 1 / (size + 1) if parity == "even" else 1 / (size - 1)
            if abs(coh - expected) > 1e-9:
                failures.append(f"{moduli} {parity}: coherence {coh} != {expected}")
            if abs(coh - welch_bound(size * size, d)) > 1e-9:
                failures.append(f"{moduli} {parity}: coherence is not Welch({size*size},{d})")
            # the sizes called out in the examples: 10x25 and 15x25
            if moduli == (5,):
                if parity == "odd" and (gm.n, d) != (25, 10):
                    failures.append("expected the 10x25 ETF")
                if parity == "even" and (gm.n, d) != (25, 15):
                    failures.append("expected the 15x25 ETF")
    elapsed = time.monotonic() - start
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    _report(2, "Heisenberg parity ETF family, exact", failures)


def test_criterion_3_heisenberg_gelfand_pair():
    failures = []
    act3 = heisenberg_permutation_action(3)
    if act3.group.order != 648:
        failures.append(f"p=3 group order {act3.group.order} != 648")
    if not is_commutative(scheme_from_action(act3)):
        failures.append("p=3 scheme is not commutative")
    start = time.monotonic()
    act5 = heisenberg_permutation_action(5)
    if act5.point_count != 125:
        failures.append("p=5 action is not on 125 points")
    if not is_commutative(scheme_from_action(act5)):
        failures.append("p=5 scheme is not commutative")
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"p=5 runtime {elapsed:.1f}s exceeds 60s")
    _report(3, "Heisenberg-symplectic Gelfand pairs at p=3,5", failures)


# Example 4.1's spherical value table, keyed by constituent degree; the two
# degree-8 and degree-56 rows are complex-conjugate partners.
HOGGAR_TABLE = {
    1: [{"m_slot0": 1, "t_slot0": 1, "tm_slot0": 1, "tm_slot1": 1,
         "minus_identity": 1, "i_identity": 1, "minus_i_identity": 1}],
    8: [{"m_slot0": 1 / 3, "t_slot0": -1 / 3, "tm_slot0": 1j / 3, "tm_slot1": -1j / 3,
         "minus_identity": -1, "i_identity": 1j, "minus_i_identity": -1j},
        {"m_slot0": 1 / 3, "t_slot0": -1 / 3, "tm_slot0": -1j / 3, "tm_slot1": 1j / 3,
         "minus_identity": -1, "i_identity": -1j, "minus_i_identity": 1j}],
    28: [{"m_slot0": -1 / 7, "t_slot0": -1 / 7, "tm_slot0": 1 / 7, "tm_slot1": 1 / 7,
          "minus_identity": 1, "i_identity": -1, "minus_i_identity": -1}],
    36: [{"m_slot0": 1 / 9, "t_slot0": 1 / 9, "tm_slot0": -1 / 9, "tm_slot1": -1 / 9,
          "minus_identity": 1, "i_identity": -1, "minus_i_identity": -1}],
    56: [{"m_slot0": -1 / 21, "t_slot0": 1 / 21, "tm_slot0": -1j / 21, "tm_slot1": 1j / 21,
          "minus_identity": -1, "i_identity": 1j, "minus_i_identity": -1j},
         {"m_slot0": -1 / 21, "t_slot0": 1 / 21, "tm_slot0": 1j / 21, "tm_slot1": -1j / 21,
          "minus_identity": -1, "i_identity": -1j, "minus_i_identity": 1j}],
    63: [{"m_slot0": -1 / 63, "t_slot0": -1 / 63, "tm_slot0": -1 / 63, "tm_slot1": -1 / 63,
          "minus_identity": 1, "i_identity": 1, "minus_i_identity": 1}],
}


def test_criterion_4_hoggar_lines(hoggar_scheme_decomposition):
    failures = []
    # orbit route: the fiducial orbit reduces to the 64 Hoggar lines
    orbit_gram = matrix_group_orbit_gram(pauli_tensor_generators(), fiducial_vector(), order_cap=512)
    if orbit_gram.n != 256:
        failures.append(f"orbit produced {orbit_gram.n} vectors, expected 256")
    reduced, class_map = projective_reduce(orbit_gram)
    if len(set(class_map)) != 64:
        failures.append(f"projective reduction found {len(set(class_map))} classes, expected 64")
    rep = packing_report(reduced)
    if not rep.is_etf or rep.d != 8 or abs(rep.coherence - 1 / 3) > 1e-8:
        failures.append(f"reduced orbit is not the 8x64 ETF (d={rep.d}, coh={rep.coherence})")

    # scheme route: rank-28 constituent gives the real 28x64 ETF
    scheme, dec = hoggar_scheme_decomposition
    if not multiplicity_free(dec):
        failures.append("Hoggar scheme decomposition is not multiplicity free")
    rank28 = [j for j in range(dec.n_projections) if dec.ranks[j] == 28]
    if len(rank28) != 1:
        failures.append("expected a unique rank-28 constituent")
    e28 = projection_from_subset(dec, rank28)
    red28, cmap28 = projective_reduce(e28)
    if len(set(cmap28)) != 64:
        failures.append("rank-28 reduction does not have 64 classes")
    rep28 = packing_report(red28)
    if not (rep28.is_etf and rep28.d == 28 and abs(rep28.coherence - 1 / 7) <= 1e-8):
        failures.append(f"28x64 route failed (d={rep28.d}, coh={rep28.coherence})")
    if np.abs(red28.entries.imag).max() > 1e-8:
        failures.append("28x64 ETF is not real")

    # spherical values against the printed table
    idx = hoggar_central_element_indices()
    identity_point = idx["identity"]
    rows_by_rank: dict[int, list[dict]] = {}
    for j in range(dec.n_projections):
        vals = spherical_function_values(dec, j)
        row = {
            name: complex(vals[scheme.orbital_of[identity_point, point]])
            for name, point in idx.items()
            if name != "identity"
        }
        rows_by_rank.setdefault(dec.ranks[j], []).append(row)
    for rank, expected_rows in HOGGAR_TABLE.items():
        got_rows = rows_by_rank.get(rank, [])
        if len(got_rows) != len(expected_rows):
            failures.append(f"rank {rank}: expected {len(expected_rows)} constituents")
            continue
        unmatched = list(range(len(expected_rows)))
        for got in got_rows:
            hit = None
            for k in unmatched:
                if all(abs(got[name] - val) <= 1e-8 for name, val in expected_rows[k].items()):
                    hit = k
                    break
            if hit is None:
                failures.append(f"rank {rank}: spherical values do not match the table")
            else:
                unmatched.remove(hit)
    _report(4, "Hoggar 64 lines and the Example 4.1 table", failures)


def test_criterion_5_mub_figures():
    failures = []
    rep3 = packing_report(figure3_gram())
    if abs(rep3.coherence - 0.5) > 1e-9 or rep3.d != 4 or rep3.field != "real":
        failures.append(f"figure 3 is not 12 lines in R^4 at coherence 1/2 (got {rep3})")
    if not (rep3.orthoplex_applicable and rep3.orthoplex_met):
        failures.append("figure 3 does not meet the orthoplex bound")
    if not (rep3.levenstein_applicable and rep3.levenstein_met):
        failures.append("figure 3 does not meet the Levenstein bound")
    rep4 = packing_report(figure4_gram())
    if abs(rep4.coherence - 1 / np.sqrt(2)) > 1e-9 or rep4.d != 2 or rep4.field != "complex":
        failures.append(f"figure 4 is not 6 lines in C^2 at coherence 1/sqrt(2) (got {rep4})")
    if not (rep4.orthoplex_applicable and rep4.orthoplex_met):
        failures.append("figure 4 does not meet the orthoplex bound")
    if not (rep4.levenstein_applicable and rep4.levenstein_met):
        failures.append("figure 4 does not meet the Levenstein bound")
    _report(5, "MUB figure fixtures meet the orthoplex bound", failures)


def _sl2_f8_rank7_constituents():
    action = induced_pair_action(GroupAction(named_group("sl2_f8")))
    scheme = scheme_from_action(action)
    dec = central_primitive_idempotents(scheme)
    real7 = [
        j
        for j in range(dec.n_projections)
        if dec.ranks[j] == 7
        and dec.multiplicities[j] == 1
        and np.abs(dec.coefficients[j].imag).max() < 1e-8
    ]
    return scheme, dec, real7


def _rational_valued(dec, indices):
    """The constituents whose spherical values all lie in (1/7)Z."""
    return [
        j
        for j in indices
        if all(
            abs(v * 7 - round(v * 7)) < 1e-8
            for v in np.real(spherical_function_values(dec, j))
        )
    ]


# Criterion 6 as corrected: the stated 1/3 lies below the orthoplex and
# Levenstein bounds for 36 real lines in R^7; 3/7 is certified exactly by the test below.
SL2_F8_STATED_COHERENCE = 1 / 3
SL2_F8_COHERENCE = 3 / 7


def test_criterion_6_sl2_f8_packing_as_stated():
    """SL(2,8) on ordered pairs of the 9 points of PG(1,8): every real
    rank-7 multiplicity-one constituent is reduced to lines and the best
    coherence is taken.  There are four such constituents (SL(2,8) has four
    real irreducibles of degree 7); each reduces to 36 lines, and the best,
    the unique rational-valued one, has coherence exactly 3/7, proved by an
    integer certificate.  The originally stated 1/3 is below both secondary
    bounds, so no 36 lines in R^7 reach it."""
    start = time.monotonic()
    failures = []
    scheme, dec, real7 = _sl2_f8_rank7_constituents()
    if len(real7) != 4:
        failures.append(f"expected four real rank-7 constituents, found {len(real7)}")
    best = None
    best_j = None
    best_reduced = None
    reduced_to_36 = []
    for j in real7:
        gram = projection_from_subset(dec, [j])
        reduced, class_map = projective_reduce(gram)
        if len(set(class_map)) != 36:
            continue
        reduced_to_36.append(j)
        coh = coherence(reduced.normalized())
        if best is None or coh < best:
            best, best_j, best_reduced = coh, j, reduced
    if reduced_to_36 != real7:
        failures.append(f"constituents {sorted(set(real7) - set(reduced_to_36))} do not give 36 lines")
    if best is None or abs(best - SL2_F8_COHERENCE) > 1e-8:
        failures.append(f"reduced coherence {best} is not 3/7")
    if best_j is None or _rational_valued(dec, real7) != [best_j]:
        failures.append("the best coherence does not come from the unique rational-valued constituent")

    orthoplex, levenstein = secondary_bounds(36, 7, "real")
    if not (SL2_F8_STATED_COHERENCE < orthoplex and SL2_F8_STATED_COHERENCE < levenstein):
        failures.append(f"stated 1/3 is not below the bounds ({orthoplex}, {levenstein})")
    if best_reduced is not None:
        if best < levenstein:
            failures.append(f"coherence {best} beats the Levenstein bound {levenstein}")
        rep = packing_report(best_reduced)
        if not (rep.orthoplex_applicable and rep.levenstein_applicable):
            failures.append("packing_report does not apply both secondary bounds")

        # exact certificate: 7 * normalized Gram is an integer matrix M with
        # M @ M == 36 * M, i.e. 36 unit vectors tight in R^7 at angles 1/7, 3/7
        scaled = 7 * best_reduced.normalized().entries
        cert = np.rint(scaled.real).astype(np.int64)
        residual = float(np.abs(scaled - cert).max())
        if residual > 1e-9:
            failures.append(f"7 * normalized Gram is {residual} from an integer matrix")
        if set(np.unique(cert).tolist()) != {7, 1, -1, 3, -3} or set(np.diag(cert).tolist()) != {7}:
            entries = sorted(set(np.unique(cert).tolist()))
            failures.append(f"certificate entries {entries} are not 7 on the diagonal and +-1, +-3 off it")
        if not np.array_equal(cert @ cert, 36 * cert):
            failures.append("certificate fails M @ M == 36 * M")
        if int(np.trace(cert)) != 36 * 7 or np.linalg.matrix_rank(cert) != 7:
            failures.append("certificate does not have rank 7")
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(6, "SL(2,8) 36 lines in R^7 at coherence 3/7; the bounds forbid the stated 1/3", failures)


def test_criterion_6_companion_verified_sl2_f8_packing():
    """What the construction actually yields, pinned exactly: four real
    rank-7 multiplicity-one constituents; the unique rational-valued one
    reduces to 36 unit vectors spanning R^7 with coherence exactly 3/7
    (a two-distance tight frame); the other three are Galois conjugates
    with irrational angles.  The sum of those three is a rank-21
    projection whose reduction is the 21x36 real ETF at the Welch bound."""
    start = time.monotonic()
    failures = []
    scheme, dec, real7 = _sl2_f8_rank7_constituents()
    if len(real7) != 4:
        failures.append(f"expected four real rank-7 constituents, found {len(real7)}")
    rational = _rational_valued(dec, real7)
    if len(rational) != 1:
        failures.append(f"expected one rational-valued constituent, found {len(rational)}")
    gram = projection_from_subset(dec, rational)
    reduced, class_map = projective_reduce(gram)
    if len(set(class_map)) != 36:
        failures.append("reduction does not give 36 lines")
    normalized = reduced.normalized()
    if gram_rank(reduced) != 7 or np.abs(reduced.entries.imag).max() > 1e-9:
        failures.append("packing does not span R^7")
    coh = coherence(normalized)
    if abs(coh - 3 / 7) > 1e-9:
        failures.append(f"coherence {coh} is not 3/7")
    if not is_tight(reduced):
        failures.append("reduced frame is not tight")
    moduli = distinct_moduli(normalized)
    if len(moduli) != 2 or abs(moduli[0] - 1 / 7) > 1e-8 or abs(moduli[1] - 3 / 7) > 1e-8:
        failures.append(f"angle set {moduli} is not {{1/7, 3/7}}")
    # the Galois triple sums to the 21x36 real ETF of the survey tables
    triple = sorted(set(real7) - set(rational))
    gram21 = projection_from_subset(dec, triple)
    red21, _ = projective_reduce(gram21)
    rep21 = packing_report(red21)
    if not (rep21.is_etf and rep21.d == 21 and rep21.n == 36 and rep21.welch_met):
        failures.append(f"Galois-triple sum is not the 21x36 ETF (d={rep21.d}, n={rep21.n})")
    elapsed = time.monotonic() - start
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report(6, "SL(2,8) verified packing: 36 lines at 3/7 plus the 21x36 ETF", failures)


def test_criterion_7_property_suites(fixture_schemes):
    failures = []
    if len(fixture_schemes) < 10:
        failures.append("fewer than 10 fixture schemes")
    for name, scheme in fixture_schemes.items():
        dec = central_primitive_idempotents(scheme)
        n = scheme.point_count
        projections = [dec.projection_matrix(j) for j in range(dec.n_projections)]
        total = np.zeros((n, n), dtype=complex)
        for p in projections:
            if np.abs(p @ p - p).max() > 1e-8:
                failures.append(f"{name}: idempotency failed")
            if np.abs(p - p.conj().T).max() > 1e-12:
                failures.append(f"{name}: hermiticity failed")
            if not stable_matrix_check(scheme, p):
                failures.append(f"{name}: stability failed")
            total += p
        if np.abs(total - np.eye(n)).max() > 1e-8:
            failures.append(f"{name}: completeness failed")
        for a in range(len(projections)):
            for b in range(a + 1, len(projections)):
                if np.abs(projections[a] @ projections[b]).max() > 1e-8:
                    failures.append(f"{name}: orthogonality failed")

        # Welch equality <-> ETF, Naimark involution, reduction tightness
        indices = range(dec.n_projections)
        for r in range(1, dec.n_projections + 1):
            for subset in itertools.combinations(indices, r):
                gram = projection_from_subset(dec, subset)
                normalized = gram.normalized()
                d = sum(dec.ranks[j] for j in subset)
                welch_eq = abs(coherence(normalized) - welch_bound(n, d)) < 1e-9
                if welch_eq != is_etf(normalized):
                    failures.append(f"{name} D={subset}: Welch equality vs ETF mismatch")
                comp = naimark_complement(gram)
                if np.abs(naimark_complement(comp).entries - gram.entries).max() > 1e-9:
                    failures.append(f"{name} D={subset}: Naimark is not an involution")
                diag = float(np.real(gram.entries[0, 0]))
                if is_etf(gram) and 1e-9 < diag < 1 - 1e-9 and not is_etf(comp):
                    failures.append(f"{name} D={subset}: complement of an ETF is not an ETF")
                # group-frame reduction preserves tightness with the class-size scale
                reduced, class_map = projective_reduce(gram)
                sizes = {class_map.count(rep) for rep in set(class_map)}
                if len(sizes) == 1 and reduced.n >= 2:
                    size = sizes.pop()
                    scaled = reduced.entries @ reduced.entries - reduced.entries / size
                    if np.abs(scaled).max() > 1e-8:
                        failures.append(f"{name} D={subset}: reduction broke tightness")

    # harmonic ETF <-> difference set, brute force over Z_n for n <= 8
    for n in range(2, 9):
        for r in range(1, n + 1):
            for subset in itertools.combinations(range(n), r):
                dual = [(a,) for a in subset]
                flag, _ = difference_set_check([n], dual)
                if is_etf(harmonic_gram([n], dual)) != flag:
                    failures.append(f"Z_{n} D={subset}: harmonic ETF vs difference set")
    _report(7, "property suites over the scheme battery", failures)


def test_criterion_8_worked_table_rows():
    failures = []
    readme = Path(__file__).resolve().parent.parent / "README.md"
    if not readme.exists():
        failures.append("README.md is missing")
        text = ""
    else:
        text = readme.read_text()
    for marker in ("(d, n, m, t) = (7, 28, 28, 1)", "(d, n, m, t) = (3, 7, 7, 1)"):
        if marker not in text:
            failures.append(f"README does not document the worked row {marker}")
    # the real-table row: degree-28 transitive action reproducing the 7x28 ETF
    action = GroupAction(named_group("agl"))
    dec = central_primitive_idempotents(scheme_from_action(action))
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    gram = projection_from_subset(dec, rank7)
    if not (is_etf(gram) and gram_rank(gram) == 7 and gram.n == 28):
        failures.append("real-table worked row failed to reproduce")
    # the complex-table row: harmonic 3x7 from the quadratic-residue set
    gram = harmonic_gram([7], [(1,), (2,), (4,)])
    if not (is_etf(gram) and gram_rank(gram) == 3):
        failures.append("complex-table worked row failed to reproduce")
    _report(8, "worked table rows documented and reproducible", failures)
