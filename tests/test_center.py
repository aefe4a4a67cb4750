"""The exact center of the adjacency algebra, solved modulo primes.

`_center_basis` solves the commutation constraints of seeded probes modulo
primes, lifts the result by rational reconstruction and certifies it
central in exact integers, drawing more probes until it is.  The
Gauss-Jordan elimination over `Fraction` that the modular solve replaced
is kept here as the oracle: the reduced echelon basis of a nullspace is
unique, so both must give equal arrays.  The oracle's constraints come
from the dense products of `test_group_arrays.reference_structure_constants`,
not from the pair codes that `_center_basis` reads.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_group_arrays import random_actions, reference_structure_constants

from linepack import idempotents
from linepack.fixtures import hoggar_heisenberg_action, named_group
from linepack.idempotents import central_primitive_idempotents
from linepack.permgroup import (
    GroupAction,
    Permutation,
    PermutationGroup,
    induced_pair_action,
    is_transitive,
    regular_action,
)
from linepack.scheme import is_commutative, scheme_from_action


def rational_nullspace(rows: list[list[int]], width: int) -> list[list[Fraction]]:
    """Basis of the rational nullspace of an integer constraint matrix."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * width
        vec[f] = Fraction(1)
        for i, col in enumerate(pivots):
            vec[col] = -mat[i][f]
        basis.append(vec)
    return basis


def oracle_center(scheme) -> np.ndarray:
    """The center from the whole dense commutator tensor, deduplicated, through the oracle."""
    p = reference_structure_constants(scheme)
    c1 = scheme.n_orbitals
    diff = p - p.transpose(1, 0, 2)
    rows = diff.transpose(1, 2, 0).reshape(-1, c1)
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows = rows[lead != 0] * np.sign(lead[lead != 0])[:, None]
    if not len(rows):
        return np.eye(c1, dtype=np.complex128)
    _, first = np.unique(rows, axis=0, return_index=True)
    basis = rational_nullspace(rows[np.sort(first)].tolist(), c1)
    return np.array([[complex(x) for x in vec] for vec in basis], dtype=np.complex128)


SCHEMES = {
    "agl": lambda: scheme_from_action(GroupAction(named_group("agl"))),
    "sl2_f8_pairs": lambda: scheme_from_action(induced_pair_action(GroupAction(named_group("sl2_f8")))),
    "m11_pairs": lambda: scheme_from_action(induced_pair_action(GroupAction(named_group("m11")))),
    "d20_regular": lambda: scheme_from_action(regular_action(named_group("d20"))),
    "s5_regular": lambda: scheme_from_action(regular_action(named_group("s5"))),
    "z40_natural": lambda: scheme_from_action(GroupAction(named_group("z40"))),
    "hoggar": lambda: scheme_from_action(hoggar_heisenberg_action()),
}


@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_center_matches_the_fraction_oracle(name):
    scheme = SCHEMES[name]()
    center = idempotents._center_basis(scheme)
    assert center.dtype == np.complex128
    assert np.array_equal(center, oracle_center(scheme))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(random_actions())
def test_center_of_drawn_actions_matches_the_oracle(action):
    assume(is_transitive(action))
    scheme = scheme_from_action(action)
    assert np.array_equal(idempotents._center_basis(scheme), oracle_center(scheme))


def test_the_certificate_draws_probes_until_they_generate(monkeypatch):
    # with both probes the identity, N is the whole algebra; the certificate
    # must reject it and draw further probes
    scheme = SCHEMES["d20_regular"]()
    c = scheme.n_orbitals
    calls, dimensions = [], []
    commutator, solve = scheme.commutator, idempotents._integer_nullspace

    def identity_probes(y):
        calls.append(y)  # the first two calls are the two probes
        return commutator([1] + [0] * (c - 1) if len(calls) <= 2 else y)

    def spy(blocks, width):
        rows, dens = solve(blocks, width)
        dimensions.append(len(rows))
        return rows, dens

    monkeypatch.setattr(scheme, "commutator", identity_probes)
    monkeypatch.setattr(idempotents, "_integer_nullspace", spy)
    assert np.array_equal(idempotents._center_basis(scheme), oracle_center(scheme))
    assert dimensions[0] == c > dimensions[-1]


def nullspace(matrix: np.ndarray, split: int = 0) -> list[list[Fraction]]:
    """`_integer_nullspace` of a matrix, given as blocks of `split` rows (all rows if 0), as fractions.

    Each integer row must come over its least common denominator, which is positive.
    """
    split = split or max(len(matrix), 1)
    blocks = [matrix[i : i + split] for i in range(0, max(len(matrix), 1), split)]
    rows, dens = idempotents._integer_nullspace(blocks, matrix.shape[1])
    assert all(den > 0 and math.gcd(den, *row) == 1 for row, den in zip(rows, dens))
    return [[Fraction(x, den) for x in row] for row, den in zip(rows, dens)]


@st.composite
def low_rank_matrices(draw):
    """Integer matrices A @ B of bounded rank, so nullspaces with fractions are common."""
    rows, inner, width = draw(st.integers(0, 7)), draw(st.integers(1, 5)), draw(st.integers(1, 8))
    entries = st.integers(-4, 4)

    def matrix(m, n):
        cells = draw(st.lists(entries, min_size=m * n, max_size=m * n))
        return np.array(cells, dtype=np.int64).reshape(m, n)

    return matrix(rows, inner) @ matrix(inner, width), draw(st.integers(0, 3))


@given(low_rank_matrices())
def test_integer_nullspace_matches_the_oracle(case):
    matrix, split = case
    assert nullspace(matrix, split) == rational_nullspace(matrix.tolist(), matrix.shape[1])


def test_rational_lift_returns_integer_rows_over_their_least_common_denominator():
    m = 1009
    rows = [
        [Fraction(-1, 3), Fraction(5, 4), Fraction(-7, 6), Fraction(0), Fraction(2)],
        [Fraction(1), Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(0)],
    ]
    # a negative fraction comes out of the Euclidean steps over a negative denominator
    residues = np.array([[x.numerator * pow(x.denominator, -1, m) % m for x in row] for row in rows], dtype=object)
    assert idempotents._rational_lift(residues, m) == ([[-4, 15, -14, 0, 24], [2, -1, 0, 0, 0]], [12, 2])
    # a residue that no a/b with |a|, b <= sqrt(m/2) reaches has no lift
    bound = math.isqrt(m // 2)
    lone = next(r for r in range(m) if all(min(r * b % m, -r * b % m) > bound for b in range(1, bound + 1)))
    assert idempotents._rational_lift(np.array([[1, lone]], dtype=object), m) is None


def primes_seen(monkeypatch) -> list[int]:
    """Record the primes `_integer_nullspace` draws."""
    seen = []
    primes = idempotents._primes_below

    def spy(bound):
        for q in primes(bound):
            seen.append(q)
            yield q

    monkeypatch.setattr(idempotents, "_primes_below", spy)
    return seen


def test_rank_drop_modulo_the_first_prime_moves_to_the_next(monkeypatch):
    seen = primes_seen(monkeypatch)
    nullspace(np.zeros((1, 3), dtype=np.int64))
    q = seen[0]
    seen.clear()
    # rank 3 over Q, rank 2 modulo q: the first prime finds a nullspace that does not exist
    matrix = np.array([[q, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.int64)
    assert nullspace(matrix) == [] == rational_nullspace(matrix.tolist(), 3)
    assert seen[0] == q and len(seen) == 2


def test_pivot_moved_modulo_a_prime_and_large_entries_combine_primes(monkeypatch):
    seen = primes_seen(monkeypatch)
    nullspace(np.zeros((1, 2), dtype=np.int64))
    q = seen[0]
    seen.clear()
    # modulo q the pivot moves from column 0 to 1; over Q the basis holds -1/q,
    # beyond the reconstruction bound of one prime, so later primes are combined
    matrix = np.array([[q, 1]], dtype=np.int64)
    assert nullspace(matrix) == [[Fraction(-1, q), Fraction(1)]]
    assert seen[0] == q and len(seen) >= 4


def test_large_entries_are_checked_in_python_integers():
    big = 10**15
    matrix = np.array([[1, -big, 0], [0, big, -big + 1]], dtype=np.int64)
    expected = rational_nullspace(matrix.tolist(), 3)
    assert nullspace(matrix) == expected
    assert expected[0][0] == big - 1


# --- the 600-point action of F_5^2 by N_GL(2,5)(Q_8) ---------------------------


IDENTITY = ((1, 0), (0, 1))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) % 5 for j in range(2)) for i in range(2)
    )


def _inverse(g):
    (a, b), (c, d) = g
    det_inv = pow(a * d - b * c, -1, 5)
    return ((d * det_inv % 5, -b * det_inv % 5), (-c * det_inv % 5, a * det_inv % 5))


def _closure(gens):
    seen, frontier = {IDENTITY}, [IDENTITY]
    while frontier:
        frontier = list({_mat_mul(x, g) for x in frontier for g in gens} - seen)
        seen.update(frontier)
    return seen


def f5_squared_by_q8_normalizer() -> PermutationGroup:
    """F_5^2 with the normalizer of Q_8 in GL(2,5) acting, on the 25 points x + 5 y.

    Q_8 = <[[0, -1], [1, 0]], [[0, 2], [2, 0]]>; its normalizer has order 96,
    and with the two translations the group has order 2400.  The normalizer
    is generated by the elements that each enlarge the closure of those
    before them.
    """
    q8 = _closure([((0, 4), (1, 0)), ((0, 2), (2, 0))])
    gl = [((a, b), (c, d)) for a, b, c, d in product(range(5), repeat=4) if (a * d - b * c) % 5]
    normalizer = [g for g in gl if {_mat_mul(_mat_mul(g, q), _inverse(g)) for q in q8} == q8]
    assert len(q8) == 8 and len(normalizer) == 96
    gens: list = []
    for g in normalizer:
        if g not in _closure(gens):
            gens.append(g)

    def linear(g):
        (a, b), (c, d) = g
        return [(a * (v % 5) + b * (v // 5)) % 5 + 5 * ((c * (v % 5) + d * (v // 5)) % 5) for v in range(25)]

    images = [linear(g) for g in gens]
    images += [[(v + 1) % 5 + 5 * (v // 5) for v in range(25)], [(v + 5) % 25 for v in range(25)]]
    return PermutationGroup(25, [Permutation(tuple(im)) for im in images])


def test_600_point_action_has_13_constituents():
    group = f5_squared_by_q8_normalizer()
    assert group.order == 2400
    scheme = scheme_from_action(induced_pair_action(GroupAction(group)))
    assert (scheme.point_count, scheme.n_orbitals) == (600, 165)
    dec = central_primitive_idempotents(scheme)
    assert dec.n_projections == 13
    assert sum(m * m for m in dec.multiplicities) == 165
