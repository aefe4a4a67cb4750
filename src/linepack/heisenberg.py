"""Heisenberg groups over odd abelian groups and their parity ETFs.

For an odd abelian group A with exponent N, the Heisenberg group is
K x C_N with K = A x A^ (dual), multiplied through the half-twisted
symplectic cocycle.  The Schrodinger representation acts on L^2(A) by
monomial matrices with N-th-root-of-unity entries, so everything here is
exact integer arithmetic on exponents mod N plus rational coefficients.

The headline construction: the orbit of either parity projector under
operator multiplication by the Schrodinger matrices is an equiangular
tight frame for the even/odd operator subspace.  Its |K| x |K| Gram is
produced both in closed form (diagonal (|A|+-1)/2, off-diagonal
-+ half a root of unity) and by direct Hilbert-Schmidt traces; the two
must agree entrywise exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError
from .frames import GramMatrix
from .permgroup import GroupAction, Permutation, PermutationGroup


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Odd abelian group as a product of cyclic factors, with 1/2 arithmetic."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli:
            raise InputError("at least one modulus is required")
        for m in self.moduli:
            if m < 3 or m % 2 == 0:
                raise InputError(f"moduli must be odd and >= 3, got {m}")

    @property
    def order(self) -> int:
        n = 1
        for m in self.moduli:
            n *= m
        return n

    @property
    def exponent(self) -> int:
        n = 1
        for m in self.moduli:
            n = n * m // gcd(n, m)
        return n

    @property
    def half(self) -> int:
        """Multiplicative inverse of 2 mod the exponent."""
        return (self.exponent + 1) // 2

    def elements(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*[range(m) for m in self.moduli]))

    def add(self, a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, self.moduli))

    def neg(self, a):
        return tuple((-x) % m for x, m in zip(a, self.moduli))

    def halve(self, a):
        """The unique element x with x + x = a (moduli are odd)."""
        return tuple((x * ((m + 1) // 2)) % m for x, m in zip(a, self.moduli))

    def validate(self, a) -> tuple[int, ...]:
        a = tuple(int(x) for x in a)
        if len(a) != len(self.moduli) or any(not 0 <= x < m for x, m in zip(a, self.moduli)):
            raise InputError(f"{a} is not an element for moduli {self.moduli}")
        return a


def make_spec(moduli: Sequence[int]) -> AbelianGroupSpec:
    return AbelianGroupSpec(tuple(int(m) for m in moduli))


@dataclass(frozen=True)
class GammaTwist:
    """Character z -> z^g of C_N; an automorphism exactly when gcd(g, N) = 1."""

    g: int

    def for_spec(self, spec: AbelianGroupSpec) -> int:
        g = self.g % spec.exponent
        if gcd(g, spec.exponent) != 1:
            raise InputError(f"gamma exponent {self.g} is not invertible mod {spec.exponent}")
        return g


def pairing_exponent(spec: AbelianGroupSpec, a, alpha) -> int:
    """<a, alpha> = zeta_N^(sum a_t alpha_t N/m_t); returns the exponent."""
    n = spec.exponent
    total = 0
    for x, y, m in zip(a, alpha, spec.moduli):
        total += x * y * (n // m)
    return total % n


def symplectic_exponent(spec: AbelianGroupSpec, u, v) -> int:
    """[(a1,alpha1), (a2,alpha2)] = <a2,alpha1> <a1,alpha2>^-1, as an exponent."""
    (a1, alpha1), (a2, alpha2) = u, v
    return (pairing_exponent(spec, a2, alpha1) - pairing_exponent(spec, a1, alpha2)) % spec.exponent


def k_elements(spec: AbelianGroupSpec) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """K = A x A^ in lexicographic order over (a-tuple, alpha-tuple)."""
    elems = spec.elements()
    return [(a, alpha) for a in elems for alpha in elems]


@dataclass(frozen=True)
class HeisenbergElement:
    """(a, alpha, z) with z stored as a root-of-unity exponent mod N."""

    a: tuple[int, ...]
    alpha: tuple[int, ...]
    z: int


def heisenberg_identity(spec: AbelianGroupSpec) -> HeisenbergElement:
    zero = tuple(0 for _ in spec.moduli)
    return HeisenbergElement(zero, zero, 0)


def heisenberg_multiply(
    spec: AbelianGroupSpec, x: HeisenbergElement, y: HeisenbergElement
) -> HeisenbergElement:
    """(u1, z1)(u2, z2) = (u1 + u2, z1 z2 [u1, u2]^(1/2))."""
    twist = spec.half * symplectic_exponent(spec, (x.a, x.alpha), (y.a, y.alpha))
    return HeisenbergElement(
        spec.add(x.a, y.a),
        spec.add(x.alpha, y.alpha),
        (x.z + y.z + twist) % spec.exponent,
    )


def heisenberg_inverse(spec: AbelianGroupSpec, x: HeisenbergElement) -> HeisenbergElement:
    return HeisenbergElement(spec.neg(x.a), spec.neg(x.alpha), (-x.z) % spec.exponent)


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

    def trace_terms(self) -> dict[int, int]:
        """Exponent -> count over the fixed points of the column map."""
        out: dict[int, int] = {}
        for i, c in enumerate(self.col):
            if c == i:
                out[self.exp[i]] = out.get(self.exp[i], 0) + 1
        return out

    def to_complex(self) -> np.ndarray:
        m = np.zeros((self.size, self.size), dtype=np.complex128)
        zeta = np.exp(2j * np.pi / self.modulus)
        for i, (c, e) in enumerate(zip(self.col, self.exp)):
            m[i, c] = zeta**e
        return m


def schrodinger_matrix(
    spec: AbelianGroupSpec, gamma: GammaTwist, h: HeisenbergElement
) -> MonomialMatrix:
    """[pi(a, alpha, z) f](b) = gamma(z <b - a/2, alpha>) f(b - a) on L^2(A)."""
    g = gamma.for_spec(spec)
    n = spec.exponent
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    half_a = spec.halve(spec.validate(h.a))
    spec.validate(h.alpha)
    cols = []
    exps = []
    for b in elems:
        shifted = spec.add(b, spec.neg(h.a))
        phase_point = spec.add(b, spec.neg(half_a))
        e = (g * (h.z + pairing_exponent(spec, phase_point, h.alpha))) % n
        cols.append(index[shifted])
        exps.append(e)
    return MonomialMatrix(spec.order, n, tuple(cols), tuple(exps))


def reversal_matrix(spec: AbelianGroupSpec) -> MonomialMatrix:
    """(Rf)(a) = f(-a); R = R* and R^2 = I."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    cols = tuple(index[spec.neg(b)] for b in elems)
    return MonomialMatrix(spec.order, spec.exponent, cols, tuple(0 for _ in elems))


def parity_projectors(spec: AbelianGroupSpec) -> tuple[list[list[Fraction]], list[list[Fraction]]]:
    """Projections onto even and odd functions, as exact rational matrices."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    size = spec.order
    p_even = [[Fraction(0)] * size for _ in range(size)]
    p_odd = [[Fraction(0)] * size for _ in range(size)]
    half = Fraction(1, 2)
    for i, b in enumerate(elems):
        j = index[spec.neg(b)]
        p_even[i][i] += half
        p_even[i][j] += half
        p_odd[i][i] += half
        p_odd[i][j] -= half
    return p_even, p_odd


# --- exact cyclotomic arithmetic -------------------------------------------


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, low to high."""
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _polydiv_exact(poly, list(_cyclotomic(d)))
    return tuple(poly)


def _polydiv_exact(num: list, den: list) -> list:
    """Exact division of polynomials with a monic divisor (zero remainder)."""
    num = list(num)
    deg_d = len(den) - 1
    out = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        coeff = num[i]
        out[i - deg_d] = coeff
        if coeff:
            for k, c in enumerate(den):
                num[i - deg_d + k] -= coeff * c
    if any(num[:deg_d]):
        raise NumericError("inexact polynomial division")
    return out


def _reduce_terms(terms: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """Canonical form of sum c_e zeta_n^e as a vector mod the n-th cyclotomic."""
    vec = [Fraction(0)] * n
    for e, c in terms.items():
        vec[e % n] += c
    phi = _cyclotomic(n)
    deg = len(phi) - 1
    for i in range(n - 1, deg - 1, -1):
        coeff = vec[i]
        if coeff:
            vec[i] = Fraction(0)
            for k in range(deg):
                vec[i - deg + k] -= coeff * phi[k]
    return tuple(vec[:deg])


def terms_equal(t1: dict[int, Fraction], t2: dict[int, Fraction], n: int) -> bool:
    if t1 == t2:
        return True
    diff = dict(t1)
    for e, c in t2.items():
        diff[e] = diff.get(e, Fraction(0)) - c
    return all(c == 0 for c in _reduce_terms(diff, n))


# --- exact Gram matrices -----------------------------------------------------


@dataclass
class ExactGram:
    """Gram matrix with entries sum_e coeff[e] * zeta_modulus^e, exact."""

    n: int
    modulus: int
    entries: list[list[dict[int, Fraction]]]

    @staticmethod
    def single_term(n: int, modulus: int, coeff, zexp) -> "ExactGram":
        entries = [
            [({int(zexp[i][j]) % modulus: Fraction(coeff[i][j])} if coeff[i][j] else {}) for j in range(n)]
            for i in range(n)
        ]
        return ExactGram(n, modulus, entries)

    def to_complex(self) -> np.ndarray:
        zeta = np.exp(2j * np.pi / self.modulus)
        powers = zeta ** np.arange(self.modulus)
        out = np.zeros((self.n, self.n), dtype=np.complex128)
        for i in range(self.n):
            for j in range(self.n):
                out[i, j] = sum(float(c) * powers[e] for e, c in self.entries[i][j].items())
        return out

    def to_gram_matrix(self) -> GramMatrix:
        entries = self.to_complex()
        entries = (entries + entries.conj().T) / 2
        tokens = [
            [tuple(sorted(self.entries[i][j].items())) for j in range(self.n)]
            for i in range(self.n)
        ]
        return GramMatrix(self.n, entries, "root_of_unity", tokens)

    def single_term_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(coefficients doubled to integers, exponents) for one-term entries."""
        coeff2 = np.zeros((self.n, self.n), dtype=np.int64)
        zexp = np.zeros((self.n, self.n), dtype=np.int64)
        for i in range(self.n):
            for j in range(self.n):
                cell = self.entries[i][j]
                if len(cell) > 1:
                    raise NumericError("entry is not a single root-of-unity term")
                for e, c in cell.items():
                    doubled = 2 * c
                    if doubled.denominator != 1:
                        raise NumericError("entry coefficient is not a half-integer")
                    coeff2[i, j] = int(doubled)
                    zexp[i, j] = e
        return coeff2, zexp

    def equals(self, other: "ExactGram") -> bool:
        if (self.n, self.modulus) != (other.n, other.modulus):
            return False
        return all(
            terms_equal(self.entries[i][j], other.entries[i][j], self.modulus)
            for i in range(self.n)
            for j in range(self.n)
        )

    def export_entries(self) -> list[list[dict]]:
        """JSON-friendly exact entries; single-term cells only."""
        coeff2, zexp = self.single_term_arrays()
        out = []
        for i in range(self.n):
            row = []
            for j in range(self.n):
                c = Fraction(int(coeff2[i, j]), 2)
                row.append(
                    {
                        "coeff_num": c.numerator,
                        "coeff_den": c.denominator,
                        "zeta_num": int(zexp[i, j]),
                        "zeta_den": self.modulus,
                    }
                )
            out.append(row)
        return out


def heis_etf_gram(spec: AbelianGroupSpec, gamma: GammaTwist, parity: str) -> ExactGram:
    """Closed-form Gram of the parity-projector orbit, indexed by K.

    Diagonal (|A|+1)/2 for even parity, (|A|-1)/2 for odd; off-diagonal
    entries +-(1/2) gamma([u, v]^(1/2)) with sign given by the parity.
    """
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    g = gamma.for_spec(spec)
    n_mod = spec.exponent
    ks = k_elements(spec)
    size = len(ks)
    half = spec.half
    sign = Fraction(1, 2) if parity == "even" else Fraction(-1, 2)
    diag = Fraction(spec.order + 1, 2) if parity == "even" else Fraction(spec.order - 1, 2)
    entries: list[list[dict[int, Fraction]]] = []
    for i, u in enumerate(ks):
        row = []
        for j, v in enumerate(ks):
            if i == j:
                row.append({0: diag})
            else:
                # Gram[i, j] = <phi_j, phi_i> = +-(1/2) gamma([u_j, u_i]^(1/2))
                e = (g * half * symplectic_exponent(spec, v, u)) % n_mod
                row.append({e: sign})
        entries.append(row)
    return ExactGram(size, n_mod, entries)


def heis_etf_gram_direct(spec: AbelianGroupSpec, gamma: GammaTwist, parity: str) -> ExactGram:
    """The same Gram by direct Hilbert-Schmidt traces of monomial products.

    Entry (i, j) is tr(pi(u_j, 1) P P* pi(u_i, 1)*) with P the parity
    projector, expanded through P = (I +- R)/2 so every trace is a trace
    of a monomial matrix.
    """
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    if spec.order > 49:
        raise ResourceError("direct Hilbert-Schmidt computation is capped at |A| <= 49")
    n_mod = spec.exponent
    ks = k_elements(spec)
    rev = reversal_matrix(spec)
    sign = Fraction(1, 2) if parity == "even" else Fraction(-1, 2)
    mats = [
        schrodinger_matrix(spec, gamma, HeisenbergElement(a, alpha, 0)) for (a, alpha) in ks
    ]
    adjoints = [m.adjoint() for m in mats]
    entries: list[list[dict[int, Fraction]]] = []
    for i in range(len(ks)):
        row = []
        for j in range(len(ks)):
            prod = mats[j] @ adjoints[i]
            cell: dict[int, Fraction] = {}
            for e, count in prod.trace_terms().items():
                cell[e] = cell.get(e, Fraction(0)) + Fraction(count, 2)
            for e, count in (mats[j] @ (rev @ adjoints[i])).trace_terms().items():
                cell[e] = cell.get(e, Fraction(0)) + sign * count
            row.append({e: c for e, c in cell.items() if c != 0})
        entries.append(row)
    return ExactGram(len(ks), n_mod, entries)


def exact_scaled_projection_check(gram: ExactGram, constant: Fraction) -> bool:
    """Exact test of gram @ gram == constant * gram via cyclotomic reduction."""
    coeff2, zexp = gram.single_term_arrays()
    n = gram.n
    n_mod = gram.modulus
    for i in range(n):
        exps = (zexp[i][:, None] + zexp) % n_mod  # [w, j] exponent of G[i,w] G[w,j]
        weights = coeff2[i][:, None] * coeff2
        for j in range(n):
            acc = np.bincount(exps[:, j], weights=weights[:, j], minlength=n_mod)
            terms = {e: Fraction(int(round(acc[e]))) for e in range(n_mod) if acc[e]}
            target_coeff = 4 * constant * Fraction(int(coeff2[i, j]), 2)
            target = {int(zexp[i, j]): target_coeff} if target_coeff else {}
            if not terms_equal(terms, target, n_mod):
                return False
    return True


def exact_is_etf(gram: ExactGram) -> bool:
    """Exact ETF certificate: constant diagonal, constant off-diagonal
    modulus, and a scalar multiple of a projection."""
    coeff2, zexp = gram.single_term_arrays()
    n = gram.n
    diag = coeff2.diagonal()
    if np.any(zexp.diagonal() % gram.modulus != 0) or np.any(diag != diag[0]) or diag[0] <= 0:
        return False
    off = np.abs(coeff2[~np.eye(n, dtype=bool)])
    if np.any(off != off[0]):
        return False
    # constant = trace(G^2)/trace(G), exact because exponents cancel pairwise
    trace_sq = Fraction(int((coeff2.astype(object) ** 2).sum()), 4)
    trace = Fraction(int(diag.sum()), 2)
    return exact_scaled_projection_check(gram, trace_sq / trace)


# --- the symplectic group at prime level ------------------------------------


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


def heisenberg_permutation_action(p: int) -> GroupAction:
    """Permutation action of (Heisenberg) x| SL(2, p) on the p^3 group elements.

    Generators: left translations by the three standard Heisenberg
    generators, plus the two standard SL(2, p) generators acting on the
    K-part coordinatewise.  Supported at desk scale, p in {3, 5, 7}.
    """
    if p not in (3, 5, 7):
        raise InputError(f"supported primes are 3, 5, 7; got {p}")
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
