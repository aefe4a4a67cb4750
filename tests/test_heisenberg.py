"""Heisenberg groups and their parity ETFs, against the object algebra.

The library computes on integer index arrays.  The textbook objects it
replaced are kept here as the oracle: the group law on `HeisenbergElement`,
the Schrodinger representation as `MonomialMatrix` products, the reversal
and the parity projectors, and symplectic membership of a 2x2 matrix.
`test_group_arrays.py` builds its reference Heisenberg action from this law.
"""

import itertools
import json
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest

from linepack.cli import main
from linepack.errors import MAX_ARRAY_ENTRIES, InputError, NumericError, ResourceError
from linepack.fixtures import named_group
from linepack.frames import GramMatrix, coherence, gram_rank, is_etf, projective_reduce, welch_bound
from linepack.heisenberg import (
    AbelianGroupSpec,
    GammaTwist,
    cyclotomic_basis,
    cyclotomic_zero,
    exact_is_etf,
    exact_scaled_projection_check,
    heis_etf_gram,
    heis_etf_gram_direct,
    heisenberg_permutation_action,
    make_spec,
)
from linepack.idempotents import central_primitive_idempotents, projection_from_subset
from linepack.permgroup import GroupAction, is_transitive
from linepack.scheme import is_commutative, scheme_from_action
from linepack.symmetry import find_gram_isomorphism

# --- the oracle: the Heisenberg group and its Schrodinger representation as objects


def add(spec, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, spec.moduli))


def neg(spec, a):
    return tuple((-x) % m for x, m in zip(a, spec.moduli))


def halve(spec, a):
    """The unique element x with x + x = a (moduli are odd)."""
    return tuple((x * ((m + 1) // 2)) % m for x, m in zip(a, spec.moduli))


def validate(spec, a) -> tuple[int, ...]:
    a = tuple(int(x) for x in a)
    if len(a) != len(spec.moduli) or any(not 0 <= x < m for x, m in zip(a, spec.moduli)):
        raise InputError(f"{a} is not an element for moduli {spec.moduli}")
    return a


def pairing_exponent(spec, a, alpha) -> int:
    """<a, alpha> = zeta_N^(sum a_t alpha_t N/m_t); returns the exponent."""
    n = spec.exponent
    return sum(x * y * (n // m) for x, y, m in zip(a, alpha, spec.moduli)) % n


def symplectic_exponent(spec, u, v) -> int:
    """[(a1,alpha1), (a2,alpha2)] = <a2,alpha1> <a1,alpha2>^-1, as an exponent."""
    (a1, alpha1), (a2, alpha2) = u, v
    return (pairing_exponent(spec, a2, alpha1) - pairing_exponent(spec, a1, alpha2)) % spec.exponent


def k_elements(spec):
    """K = A x A^ in lexicographic order over (a-tuple, alpha-tuple)."""
    elems = spec.elements()
    return [(a, alpha) for a in elems for alpha in elems]


@dataclass(frozen=True)
class HeisenbergElement:
    """(a, alpha, z) with z stored as a root-of-unity exponent mod N."""

    a: tuple[int, ...]
    alpha: tuple[int, ...]
    z: int


def heisenberg_identity(spec) -> HeisenbergElement:
    zero = tuple(0 for _ in spec.moduli)
    return HeisenbergElement(zero, zero, 0)


def heisenberg_multiply(spec, x: HeisenbergElement, y: HeisenbergElement) -> HeisenbergElement:
    """(u1, z1)(u2, z2) = (u1 + u2, z1 z2 [u1, u2]^(1/2))."""
    twist = spec.half * symplectic_exponent(spec, (x.a, x.alpha), (y.a, y.alpha))
    return HeisenbergElement(
        add(spec, x.a, y.a), add(spec, x.alpha, y.alpha), (x.z + y.z + twist) % spec.exponent
    )


def heisenberg_inverse(spec, x: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(neg(spec, x.a), neg(spec, x.alpha), (-x.z) % spec.exponent)


@dataclass(frozen=True)
class MonomialMatrix:
    """Matrix with one root-of-unity entry per row: M[i, col[i]] = zeta^exp[i]."""

    size: int
    modulus: int
    col: tuple[int, ...]
    exp: tuple[int, ...]

    def __matmul__(self, other: "MonomialMatrix") -> "MonomialMatrix":
        if (self.size, self.modulus) != (other.size, other.modulus):
            raise InputError("monomial matrix shape/modulus mismatch")
        col = tuple(other.col[c] for c in self.col)
        exp = tuple((e + other.exp[c]) % self.modulus for e, c in zip(self.exp, self.col))
        return MonomialMatrix(self.size, self.modulus, col, exp)

    def adjoint(self) -> "MonomialMatrix":
        inv_col = [0] * self.size
        inv_exp = [0] * self.size
        for j, c in enumerate(self.col):
            inv_col[c] = j
            inv_exp[c] = (-self.exp[j]) % self.modulus
        return MonomialMatrix(self.size, self.modulus, tuple(inv_col), tuple(inv_exp))

    def trace_terms(self) -> np.ndarray:
        """Length-modulus vector: fixed points of the column map, counted by exponent."""
        fixed = [e for i, (c, e) in enumerate(zip(self.col, self.exp)) if c == i]
        return np.bincount(np.array(fixed, dtype=np.int64), minlength=self.modulus)

    def to_complex(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=np.complex128)
        zeta = np.exp(2j * np.pi / self.modulus)
        for i, (c, e) in enumerate(zip(self.col, self.exp)):
            m[i, c] = zeta**e
        return m


def schrodinger_matrix(spec, gamma: GammaTwist, h: HeisenbergElement) -> MonomialMatrix:
    """[pi(a, alpha, z) f](b) = gamma(z <b - a/2, alpha>) f(b - a) on L^2(A)."""
    g = gamma.for_spec(spec)
    n = spec.exponent
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    half_a = halve(spec, validate(spec, h.a))
    validate(spec, h.alpha)
    neg_a, neg_half_a = neg(spec, h.a), neg(spec, half_a)
    cols = tuple(index[add(spec, b, neg_a)] for b in elems)
    exps = tuple((g * (h.z + pairing_exponent(spec, add(spec, b, neg_half_a), h.alpha))) % n for b in elems)
    return MonomialMatrix(spec.order, n, cols, exps)


def reversal_matrix(spec) -> MonomialMatrix:
    """(Rf)(a) = f(-a); R = R* and R^2 = I."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    cols = tuple(index[neg(spec, b)] for b in elems)
    return MonomialMatrix(spec.order, spec.exponent, cols, tuple(0 for _ in elems))


def parity_projectors(spec) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Projections onto even and odd functions, as exact rational matrices."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    size = spec.order
    p_even = [[Fraction(0)] * size for _ in range(size)]
    p_odd = [[Fraction(0)] * size for _ in range(size)]
    half = Fraction(1, 2)
    for i, b in enumerate(elems):
        j = index[neg(spec, b)]
        p_even[i][i] += half
        p_even[i][j] += half
        p_odd[i][i] += half
        p_odd[i][j] -= half
    return p_even, p_odd


def sp_membership(p: int, m) -> bool:
    """Does a 2x2 integer matrix mod p preserve the symplectic form?

    Checked on the standard basis pair and cross-validated against
    det(m) = 1 mod p; the matrix must be invertible.
    """
    if p < 3 or p % 2 == 0:
        raise InputError("p must be an odd prime")
    m = [[int(m[0][0]) % p, int(m[0][1]) % p], [int(m[1][0]) % p, int(m[1][1]) % p]]
    det = (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % p
    if det == 0:
        raise InputError("matrix is singular mod p")
    spec = make_spec((p,))
    e1 = ((1,), (0,))
    e2 = ((0,), (1,))

    def apply(u):
        a, alpha = u[0][0], u[1][0]
        return (((m[0][0] * a + m[0][1] * alpha) % p,), ((m[1][0] * a + m[1][1] * alpha) % p,))

    preserved = symplectic_exponent(spec, apply(e1), apply(e2)) == symplectic_exponent(
        spec, e1, e2
    )
    if preserved != (det == 1):
        raise NumericError("form preservation disagrees with the determinant test")
    return preserved


def sl2_map(p: int, m, e: HeisenbergElement) -> HeisenbergElement:
    """The 2x2 matrix m mod p applied to the K-part (a, alpha) of e."""
    a, alpha = e.a[0], e.alpha[0]
    return HeisenbergElement(
        ((m[0][0] * a + m[0][1] * alpha) % p,), ((m[1][0] * a + m[1][1] * alpha) % p,), e.z
    )


# --- tests -------------------------------------------------------------------

Z3 = make_spec((3,))
GAMMA1 = GammaTwist(1)


def unit(n, e):
    """Coefficient vector of zeta_n^e."""
    out = np.zeros(n, dtype=np.int64)
    out[e % n] = 1
    return out


def closed_terms(gram):
    """The closed form expanded to terms: [i, j, e] is the doubled coefficient of zeta^e."""
    terms = np.zeros((gram.n, gram.n, gram.modulus), dtype=np.int64)
    np.put_along_axis(terms, gram.zexp[..., None], gram.coeff2[..., None], axis=2)
    return terms


def test_spec_validation():
    with pytest.raises(InputError):
        make_spec((4,))
    with pytest.raises(InputError):
        make_spec((1,))
    spec = make_spec((3, 9))
    assert spec.order == 27
    assert spec.exponent == 9
    assert (2 * spec.half) % spec.exponent == 1


def test_symplectic_form_examples():
    u = ((1,), (0,))
    v = ((0,), (1,))
    assert symplectic_exponent(Z3, u, v) == 2
    for a in range(3):
        for alpha in range(3):
            w = ((a,), (alpha,))
            assert symplectic_exponent(Z3, w, w) == 0
    # antisymmetry: [u,v][v,u] = 1
    for w1, w2 in itertools.product(k_elements(Z3), repeat=2):
        assert (symplectic_exponent(Z3, w1, w2) + symplectic_exponent(Z3, w2, w1)) % 3 == 0


def test_symplectic_form_factors_over_components():
    # on Z3 x Z9 the form is the product of the component forms
    spec = make_spec((3, 9))
    z3, z9 = make_spec((3,)), make_spec((9,))
    rng = np.random.default_rng(0)
    for _ in range(50):
        a = (int(rng.integers(3)), int(rng.integers(9)))
        alpha = (int(rng.integers(3)), int(rng.integers(9)))
        b = (int(rng.integers(3)), int(rng.integers(9)))
        beta = (int(rng.integers(3)), int(rng.integers(9)))
        total = symplectic_exponent(spec, (a, alpha), (b, beta))
        e3 = symplectic_exponent(z3, ((a[0],), (alpha[0],)), ((b[0],), (beta[0],)))
        e9 = symplectic_exponent(z9, ((a[1],), (alpha[1],)), ((b[1],), (beta[1],)))
        assert total == (3 * e3 + e9) % 9


def test_heisenberg_multiply_examples():
    x = HeisenbergElement((1,), (0,), 1)
    ident = heisenberg_identity(Z3)
    assert heisenberg_multiply(Z3, x, heisenberg_inverse(Z3, x)) == ident
    # central elements commute with everything
    z = HeisenbergElement((0,), (0,), 2)
    for a in range(3):
        for alpha in range(3):
            y = HeisenbergElement((a,), (alpha,), 1)
            assert heisenberg_multiply(Z3, z, y) == heisenberg_multiply(Z3, y, z)
    # the half-twist: (1,0;1)(0,1;1) has z-exponent half * (-1) = 1 on top of z1 z2
    x = HeisenbergElement((1,), (0,), 0)
    y = HeisenbergElement((0,), (1,), 0)
    prod = heisenberg_multiply(Z3, x, y)
    assert prod == HeisenbergElement((1,), (1,), 1)


def test_heisenberg_associativity():
    spec = make_spec((3, 3))
    rng = np.random.default_rng(1)

    def rand():
        return HeisenbergElement(
            (int(rng.integers(3)), int(rng.integers(3))),
            (int(rng.integers(3)), int(rng.integers(3))),
            int(rng.integers(3)),
        )

    for _ in range(200):
        x, y, z = rand(), rand(), rand()
        left = heisenberg_multiply(spec, heisenberg_multiply(spec, x, y), z)
        right = heisenberg_multiply(spec, x, heisenberg_multiply(spec, y, z))
        assert left == right


def test_schrodinger_identity_and_shift():
    ident = schrodinger_matrix(Z3, GAMMA1, heisenberg_identity(Z3))
    assert ident.col == (0, 1, 2)
    assert ident.exp == (0, 0, 0)
    shift = schrodinger_matrix(Z3, GAMMA1, HeisenbergElement((1,), (0,), 0))
    m = shift.to_complex()
    expected = np.zeros((3, 3))
    for b in range(3):
        expected[b, (b - 1) % 3] = 1.0
    assert np.abs(m - expected).max() < 1e-12


def test_schrodinger_is_representation_exhaustive_z3():
    elems = [
        HeisenbergElement((a,), (alpha,), z)
        for a in range(3)
        for alpha in range(3)
        for z in range(3)
    ]
    mats = {e: schrodinger_matrix(Z3, GAMMA1, e) for e in elems}
    for x in elems:
        for y in elems:
            assert mats[x] @ mats[y] == mats[heisenberg_multiply(Z3, x, y)]


@pytest.mark.parametrize("moduli", [(9,), (3, 3), (15,), (3, 5)])
def test_schrodinger_is_representation_random(moduli):
    spec = make_spec(moduli)
    gamma = GammaTwist(2)
    rng = np.random.default_rng(7)

    def rand():
        return HeisenbergElement(
            tuple(int(rng.integers(m)) for m in spec.moduli),
            tuple(int(rng.integers(m)) for m in spec.moduli),
            int(rng.integers(spec.exponent)),
        )

    for _ in range(1000):
        x, y = rand(), rand()
        lhs = schrodinger_matrix(spec, gamma, x) @ schrodinger_matrix(spec, gamma, y)
        assert lhs == schrodinger_matrix(spec, gamma, heisenberg_multiply(spec, x, y))


@pytest.mark.parametrize("moduli", [(3,), (5,), (9,), (3, 3), (15,)])
def test_trace_character_every_element(moduli):
    # trace pi(0, z) = gamma(z) |A|; trace pi(u, z) = 0 for u != 0
    spec = make_spec(moduli)
    gamma = GammaTwist(2)
    g = gamma.for_spec(spec)
    n = spec.exponent
    zero = tuple(0 for _ in spec.moduli)
    for a in spec.elements():
        for alpha in spec.elements():
            for z in range(n):
                tr = schrodinger_matrix(spec, gamma, HeisenbergElement(a, alpha, z)).trace_terms()
                if (a, alpha) == (zero, zero):
                    assert np.array_equal(tr, spec.order * unit(n, g * z))
                else:
                    assert cyclotomic_zero(tr, n)


def test_reversal_trace_identity():
    # tr(R pi(a, alpha, z)) = gamma(z) for every element
    for moduli in [(3,), (5,), (3, 3)]:
        spec = make_spec(moduli)
        gamma = GammaTwist(1)
        rev = reversal_matrix(spec)
        n = spec.exponent
        for a in spec.elements():
            for alpha in spec.elements():
                for z in (0, 1):
                    m = rev @ schrodinger_matrix(spec, gamma, HeisenbergElement(a, alpha, z))
                    assert cyclotomic_zero(m.trace_terms() - unit(n, z), n)


@pytest.mark.parametrize("moduli", [(3,), (5,), (7,), (9,), (3, 3)])
def test_hilbert_schmidt_orthonormality(moduli):
    # <pi(u,1), pi(v,1)> = |A| delta_uv
    spec = make_spec(moduli)
    gamma = GammaTwist(1)
    n = spec.exponent
    ks = k_elements(spec)
    mats = [schrodinger_matrix(spec, gamma, HeisenbergElement(a, al, 0)) for a, al in ks]
    adjoints = [m.adjoint() for m in mats]
    for i, mi in enumerate(mats):
        for j in range(len(ks)):
            tr = (mi @ adjoints[j]).trace_terms()
            assert cyclotomic_zero(tr - (i == j) * spec.order * unit(n, 0), n)


def test_parity_projectors():
    p_even, p_odd = parity_projectors(Z3)
    pe = np.array([[float(x) for x in row] for row in p_even])
    po = np.array([[float(x) for x in row] for row in p_odd])
    assert np.abs(pe + po - np.eye(3)).max() == 0
    assert np.abs(pe @ pe - pe).max() < 1e-12
    assert np.abs(po @ po - po).max() < 1e-12
    assert np.abs(pe @ po).max() < 1e-12
    assert round(np.trace(pe)) == 2  # (|A|+1)/2
    assert round(np.trace(po)) == 1  # (|A|-1)/2
    const = np.ones(3)
    assert np.abs(pe @ const - const).max() < 1e-12


def hs_gram_float_oracle(spec, gamma, parity):
    """Oracle: dense floating Hilbert-Schmidt Gram of the projector orbit."""
    p_even, p_odd = parity_projectors(spec)
    p = np.array([[float(x) for x in row] for row in (p_even if parity == "even" else p_odd)])
    ks = k_elements(spec)
    vecs = [
        schrodinger_matrix(spec, gamma, HeisenbergElement(a, al, 0)).to_complex() @ p
        for a, al in ks
    ]
    size = len(ks)
    gram = np.zeros((size, size), dtype=np.complex128)
    for i in range(size):
        for j in range(size):
            gram[i, j] = np.trace(vecs[j] @ vecs[i].conj().T)
    return gram


@pytest.mark.parametrize("moduli", [(3,), (5,), (3, 3)])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_closed_form_matches_float_oracle(moduli, parity):
    spec = make_spec(moduli)
    oracle = hs_gram_float_oracle(spec, GAMMA1, parity)
    closed = heis_etf_gram(spec, GAMMA1, parity)
    direct = np.stack(list(heis_etf_gram_direct(spec, GAMMA1, parity)))
    powers = np.exp(2j * np.pi / spec.exponent) ** np.arange(spec.exponent)
    assert np.abs(closed.to_complex() - oracle).max() < 1e-10
    assert np.abs(direct @ powers / 2 - oracle).max() < 1e-10


# every odd abelian group of order <= 15, two twists, both parities
@pytest.mark.parametrize(
    "moduli",
    [(3,), (5,), (7,), (9,), (3, 3), (11,), (13,), (15,), (3, 5)],
)
def test_closed_equals_direct(moduli):
    spec = make_spec(moduli)
    for g in (1, 2):
        for parity in ("even", "odd"):
            closed = heis_etf_gram(spec, GammaTwist(g), parity)
            direct = heis_etf_gram_direct(spec, GammaTwist(g), parity)
            assert closed.equals(direct)


# (3, 3) indexes A in mixed radix; gamma 2 twists every exponent
@pytest.mark.parametrize("moduli, g", [((5,), 2), ((3, 3), 1), ((3, 3), 2)])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_direct_terms_match_per_element_monomial_products(moduli, g, parity):
    # row i, column j = tr(pi_j pi_i*) +- tr(pi_j R pi_i*), each a fixed-point
    # count by exponent, from one `schrodinger_matrix` per element of K
    spec, gamma = make_spec(moduli), GammaTwist(g)
    sign = 1 if parity == "even" else -1
    rev = reversal_matrix(spec)
    ks = k_elements(spec)
    mats = [schrodinger_matrix(spec, gamma, HeisenbergElement(a, al, 0)) for a, al in ks]
    expected = np.array(
        [
            [(mj @ adj).trace_terms() + sign * (mj @ rev @ adj).trace_terms() for mj in mats]
            for adj in (mi.adjoint() for mi in mats)
        ]
    )
    assert np.array_equal(np.stack(list(heis_etf_gram_direct(spec, gamma, parity))), expected)


def test_direct_diagonal_is_projector_rank():
    for parity, rank in (("even", 2), ("odd", 1)):
        direct = np.stack(list(heis_etf_gram_direct(Z3, GAMMA1, parity)))
        for i in range(len(direct)):
            assert np.array_equal(direct[i, i], 2 * rank * unit(3, 0))


@pytest.mark.parametrize("moduli", [(3,), (5,)])
@pytest.mark.parametrize("parity", ["even", "odd"])
def test_heis_gram_is_exact_etf(moduli, parity):
    spec = make_spec(moduli)
    gram = heis_etf_gram(spec, GAMMA1, parity)
    assert exact_is_etf(gram)
    assert exact_scaled_projection_check(gram, Fraction(spec.order))
    gm = gram.to_gram_matrix()
    size = spec.order
    d = size * (size + 1) // 2 if parity == "even" else size * (size - 1) // 2
    assert gram_rank(gm) == d
    expected = 1 / (size + 1) if parity == "even" else 1 / (size - 1)
    assert abs(coherence(gm) - expected) < 1e-9
    assert abs(coherence(gm) - welch_bound(size * size, d)) < 1e-9
    assert is_etf(gm)


def test_frame_operator_constant():
    # sum_u |<T, rho(u,1) P>|^2 = |A| ||T||^2 for T in the even operator space
    spec = Z3
    p_even, _ = parity_projectors(spec)
    p = np.array([[float(x) for x in row] for row in p_even])
    ks = k_elements(spec)
    frame = [
        schrodinger_matrix(spec, GAMMA1, HeisenbergElement(a, al, 0)).to_complex() @ p
        for a, al in ks
    ]
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t = t @ p  # T P_E = T
        total = sum(abs(np.trace(t @ f.conj().T)) ** 2 for f in frame)
        assert abs(total - spec.order * np.linalg.norm(t) ** 2) < 1e-8


def test_positive_type_invariance_under_sl2_3():
    # the function u -> Gram[0][u] is constant on SL(2,3)-orbits of K
    gram = heis_etf_gram(Z3, GAMMA1, "even")
    ks = k_elements(Z3)
    index = {u: i for i, u in enumerate(ks)}
    sl23 = [
        m
        for m in (
            ((a, b), (c, d))
            for a in range(3)
            for b in range(3)
            for c in range(3)
            for d in range(3)
        )
        if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % 3 == 1
    ]
    assert len(sl23) == 24  # brute-force |SL(2,3)|
    for m in sl23:
        for u in ks:
            a, alpha = u[0][0], u[1][0]
            image = (
                ((m[0][0] * a + m[0][1] * alpha) % 3,),
                ((m[1][0] * a + m[1][1] * alpha) % 3,),
            )
            for cells in (gram.coeff2, gram.zexp):
                assert cells[0, index[u]] == cells[0, index[image]]


def test_sp_membership_examples():
    assert sp_membership(3, [[1, 0], [0, 1]])
    assert sp_membership(3, [[1, 1], [0, 1]])
    assert not sp_membership(3, [[2, 0], [0, 1]])
    with pytest.raises(InputError):
        sp_membership(3, [[0, 0], [0, 0]])


def test_heisenberg_permutation_action_p3():
    act = heisenberg_permutation_action(3)
    assert act.point_count == 27
    assert is_transitive(act)
    assert act.group.order == 648  # 27 * |SL(2,3)|
    sch = scheme_from_action(act)
    assert is_commutative(sch)


def test_heisenberg_action_rejects_unsupported():
    for p in (2, 4, 9):
        with pytest.raises(InputError):
            heisenberg_permutation_action(p)
    # 23^3 points pass the orbital-matrix limit, refused from p alone
    with pytest.raises(ResourceError, match="orbital matrix of 12167 points"):
        heisenberg_permutation_action(23)


def test_gamma_twist_validation():
    with pytest.raises(InputError):
        GammaTwist(3).for_spec(Z3)
    assert GammaTwist(2).for_spec(Z3) == 2


def test_exact_gram_export():
    gram = heis_etf_gram(Z3, GAMMA1, "odd")
    exported = gram.export_entries()
    assert exported[0][0] == {"coeff_num": 1, "coeff_den": 1, "zeta_num": 0, "zeta_den": 3}
    assert exported[0][1]["coeff_num"] == -1
    assert exported[0][1]["coeff_den"] == 2


@pytest.mark.parametrize("n", [3, 5, 9, 15, 21, 105])
def test_cyclotomic_basis_is_the_power_basis(n):
    basis = cyclotomic_basis(n)
    zeta = np.exp(2j * np.pi / n) ** np.arange(n)
    phi = basis.shape[1]
    assert np.abs(basis @ zeta[:phi] - zeta).max() < 1e-9
    assert not any(cyclotomic_zero(unit(n, e), n) for e in range(n))
    # the p-th roots of unity sum to zero for every prime p dividing n
    for p in (q for q in (3, 5, 7) if n % q == 0):
        assert cyclotomic_zero(np.bincount(np.arange(0, n, n // p), minlength=n), n)


NONVACUOUS = [(5,), (15,), (3, 3)]


@pytest.mark.parametrize("moduli", NONVACUOUS)
def test_equals_detects_one_shifted_exponent(moduli):
    spec = make_spec(moduli)
    closed = heis_etf_gram(spec, GAMMA1, "odd")
    direct = list(heis_etf_gram_direct(spec, GAMMA1, "odd"))
    assert closed.equals(iter(direct))
    direct[0][1] = np.roll(direct[0][1], 1)
    assert not closed.equals(iter(direct))


# the roots zeta^(step k) of the exponent N sum to zero: for N = 15, the five zeta^(3k)
@pytest.mark.parametrize("moduli, step", [((5,), 1), ((15,), 3), ((3, 3), 1)])
def test_equals_reduces_mod_the_cyclotomic_polynomial(moduli, step):
    spec = make_spec(moduli)
    closed = heis_etf_gram(spec, GAMMA1, "even")
    direct = list(heis_etf_gram_direct(spec, GAMMA1, "even"))
    direct[0][1, ::step] += 1
    assert np.count_nonzero(direct[0][1]) > 1
    assert not np.array_equal(closed_terms(closed), np.stack(direct))
    assert closed.equals(iter(direct))


@pytest.mark.parametrize("moduli", NONVACUOUS)
def test_scaled_projection_check_rejects_wrong_constants(moduli):
    spec = make_spec(moduli)
    gram = heis_etf_gram(spec, GAMMA1, "even")
    assert exact_scaled_projection_check(gram, Fraction(spec.order))
    assert not exact_scaled_projection_check(gram, Fraction(spec.order + 1))
    assert not exact_scaled_projection_check(gram, spec.order + Fraction(1, 3))


@pytest.mark.parametrize("moduli", NONVACUOUS)
def test_exact_is_etf_rejects_a_shifted_exponent_pair(moduli):
    gram = heis_etf_gram(make_spec(moduli), GAMMA1, "odd")
    assert exact_is_etf(gram)
    # zeta G[0, 1] and its conjugate: still Hermitian, equal moduli, not a scaled projection
    gram.zexp[0, 1] = (gram.zexp[0, 1] + 1) % gram.modulus
    gram.zexp[1, 0] = (gram.zexp[1, 0] - 1) % gram.modulus
    assert not exact_is_etf(gram)


def test_oversized_exact_gram_is_refused_before_allocation():
    # Z_43: 1849^2 entries over 43rd roots of unity is 1.47e8 terms
    spec = make_spec((43,))
    assert spec.order**4 * spec.exponent > MAX_ARRAY_ENTRIES
    with pytest.raises(ResourceError, match="exact 1849x1849 Gram over 43-th roots of unity"):
        heis_etf_gram(spec, GAMMA1, "odd")


def test_exact_checks_hold_no_term_array():
    # the closed form and the streamed direct rows at Z_15 peak below half of
    # one (n, n, N) int64 term array
    spec = make_spec((15,))
    n = spec.order**2
    tracemalloc.start()
    try:
        assert heis_etf_gram(spec, GAMMA1, "odd").equals(heis_etf_gram_direct(spec, GAMMA1, "odd"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * n * spec.exponent * 4


@pytest.mark.parametrize("moduli, parity", [((13,), "odd"), ((3, 3), "even"), ((3, 9), "odd")])
@pytest.mark.parametrize("g", [1, 2])
def test_to_complex_matches_the_term_rows_bit_for_bit(moduli, parity, g):
    # against the float Gram of one-hot term rows times the powers of zeta
    gram = heis_etf_gram(make_spec(moduli), GammaTwist(g), parity)
    powers = np.exp(2j * np.pi / gram.modulus) ** np.arange(gram.modulus)
    expected = np.stack([row @ powers for row in closed_terms(gram)]) / 2
    assert gram.to_complex().tobytes() == expected.tobytes()


def test_equals_needs_exactly_n_rows():
    closed = heis_etf_gram(Z3, GAMMA1, "odd")
    direct = list(heis_etf_gram_direct(Z3, GAMMA1, "odd"))
    assert closed.equals(iter(direct))
    assert not closed.equals(iter(direct[:-1]))
    assert not closed.equals(iter(direct + direct[:1]))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_action_sl2_generators_are_symplectic(p):
    # the two SL(2, p) generators `heisenberg_permutation_action` applies to
    # (a, alpha) preserve the form, so they are automorphisms of the group law
    spec = make_spec((p,))
    draws = np.random.default_rng(p).integers(p, size=(20, 2, 3)).tolist()
    pairs = [[HeisenbergElement((a,), (al,), z) for a, al, z in pair] for pair in draws]
    for mat in ([[0, p - 1], [1, 0]], [[1, 1], [0, 1]]):
        assert sp_membership(p, mat)
        for x, y in pairs:
            image = sl2_map(p, mat, heisenberg_multiply(spec, x, y))
            assert image == heisenberg_multiply(spec, sl2_map(p, mat, x), sl2_map(p, mat, y))


@pytest.mark.parametrize("moduli", [(3.0,), (5.5,), ("5",)])
def test_spec_refuses_moduli_that_are_not_integers(moduli):
    with pytest.raises(InputError, match="moduli must be integers"):
        AbelianGroupSpec(moduli)


@pytest.mark.parametrize("moduli", [[5.9], ["7"]], ids=["float", "str"])
def test_make_spec_leaves_the_integer_check_to_the_spec(moduli):
    # no conversion before the spec's own check: 5.9 is not Z_5, "7" is not Z_7
    with pytest.raises(InputError, match="moduli must be integers"):
        make_spec(moduli)


def test_spec_reads_integer_moduli_as_ints():
    spec = AbelianGroupSpec((np.int64(5), 3))
    assert spec.moduli == (5, 3) and [type(m) for m in spec.moduli] == [int, int]
    assert spec.order == 15


def rephased(gram: GramMatrix, b: int) -> GramMatrix:
    """D* G D with D = diag(|G[b, i]| / G[b, i]): row b becomes real and positive."""
    row = gram.entries[b]
    d = np.abs(row) / row
    return GramMatrix.from_entries(d.conj()[:, None] * gram.entries * d[None, :])


def projectively_equivalent(gram: GramMatrix, target: GramMatrix) -> bool:
    """Equal up to a permutation of the lines and one unit phase per line.

    Base 0 of `gram` goes to some base b of `target`: both rephased so that
    those rows are real and positive, the two Grams are then equal up to
    a permutation carrying 0 to b.
    """
    base = rephased(gram, 0)
    return any(find_gram_isomorphism(base, rephased(target, b)) is not None for b in range(target.n))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_general_program_constituents_are_the_closed_form_etfs(p):
    # every rank (p^2 +- p)/2 constituent of heis<p> on its p^3 points reduces,
    # with classes of p points (the center), to the p^2-line parity ETF at every twist
    dec = central_primitive_idempotents(scheme_from_action(GroupAction(named_group(f"heis{p}"))))
    spec = make_spec((p,))
    parities = {(p * p + p) // 2: "even", (p * p - p) // 2: "odd"}

    def closed(g, parity):
        return heis_etf_gram(spec, GammaTwist(g), parity).to_gram_matrix().normalized()

    matched = 0
    for j, rank in enumerate(dec.ranks):
        if rank not in parities:
            continue
        reduced, class_map = projective_reduce(projection_from_subset(dec, [j]))
        sizes = np.bincount(class_map)
        assert reduced.n == p * p and set(sizes[sizes > 0]) == {p}
        gram, parity = reduced.normalized(), parities[rank]
        assert all(projectively_equivalent(gram, closed(g, parity)) for g in range(1, p))
        # controls: the other parity, and the closed form with zeta_5 G[1, 2] and its conjugate
        assert not projectively_equivalent(gram, closed(1, "odd" if parity == "even" else "even"))
        entries = closed(1, parity).entries.copy()
        entries[1, 2] *= np.exp(2j * np.pi / 5)
        entries[2, 1] = entries[1, 2].conjugate()
        assert not projectively_equivalent(gram, GramMatrix.from_entries(entries))
        matched += 1
    assert matched == 2 * (p - 1)


def test_heis11_scan_gives_the_etfs_of_both_parities(capsys):
    # p = 11, past the desk-scale primes: the rank (p^2 +- p)/2 constituents
    # reduce to 121 lines at the Welch coherences 1/12 (rank 66) and 1/10 (rank 55)
    assert main(["scan-etf", "fixture:heis11", "--max-subset-size", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["results"]
    etfs = [(row["rank"], row["coherence"]) for row in rows if row["is_etf"] and row["rank"] in (55, 66)]
    assert sorted(rank for rank, _ in etfs) == [55] * 10 + [66] * 10
    assert all(row["n"] == 121 for row in rows if row["rank"] in (55, 66))
    assert all(mu == pytest.approx(1 / 12 if rank == 66 else 1 / 10) for rank, mu in etfs)
