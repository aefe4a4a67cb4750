"""Heisenberg groups over odd abelian groups and their parity ETFs.

For an odd abelian group A with exponent N, the Heisenberg group is
K x C_N with K = A x A^ (dual), multiplied through the half-twisted
symplectic cocycle.  The Schrodinger representation acts on L^2(A) by
monomial matrices with N-th-root-of-unity entries, so everything here is
exact integer arithmetic on exponents mod N.

The headline construction: the orbit of either parity projector under
operator multiplication by the Schrodinger matrices is an equiangular
tight frame for the even/odd operator subspace.  Its |K| x |K| Gram is
produced both in closed form (diagonal (|A|+-1)/2, off-diagonal
-+ half a root of unity) and by direct Hilbert-Schmidt traces; the two
must agree entrywise exactly.

The closed form has one root-of-unity term per entry, coeff2[i, j]/2
zeta_N^zexp[i, j] with the coefficient stored doubled; the direct traces
come row by row, each an (n, N) array of doubled coefficients by exponent.
A coefficient vector is zero in Q(zeta_N) exactly when its product with
`cyclotomic_basis(N)`, the powers of zeta_N reduced mod Phi_N, is zero;
Gram equality and the scaled-projection certificate reduce through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, partial
from math import gcd, lcm, prod
from numbers import Rational
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError, refuse_past_limit
from .frames import GramMatrix
from .permgroup import GroupAction, action_on


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
        return prod(self.moduli)

    @property
    def exponent(self) -> int:
        return lcm(*self.moduli)

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
    return sum(x * y * (n // m) for x, y, m in zip(a, alpha, spec.moduli)) % n


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


def _fixed_point_counts(col: np.ndarray, exp: np.ndarray, modulus: int) -> np.ndarray:
    """Row k: how many fixed points of the column map col[k] carry each exponent."""
    rows, fixed = np.nonzero(col == np.arange(col.shape[1]))
    keys = rows * modulus + exp[rows, fixed]
    return np.bincount(keys, minlength=len(col) * modulus).reshape(len(col), modulus)


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
        return _fixed_point_counts(np.array([self.col]), np.array([self.exp]), self.modulus)[0]

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
    neg_a, neg_half_a = spec.neg(h.a), spec.neg(half_a)
    cols = tuple(index[spec.add(b, neg_a)] for b in elems)
    exps = tuple((g * (h.z + pairing_exponent(spec, spec.add(b, neg_half_a), h.alpha))) % n for b in elems)
    return MonomialMatrix(spec.order, n, cols, exps)


def reversal_matrix(spec: AbelianGroupSpec) -> MonomialMatrix:
    """(Rf)(a) = f(-a); R = R* and R^2 = I."""
    elems = spec.elements()
    index = {e: i for i, e in enumerate(elems)}
    cols = tuple(index[spec.neg(b)] for b in elems)
    return MonomialMatrix(spec.order, spec.exponent, cols, tuple(0 for _ in elems))


def parity_projectors(spec: AbelianGroupSpec) -> tuple[list[list[Rational]], list[list[Rational]]]:
    """Projections onto even and odd functions, as exact rational matrices."""
    from fractions import Fraction  # here, so no command that skips this API loads fractions and decimal
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


@lru_cache(maxsize=None)
def cyclotomic_basis(n: int) -> np.ndarray:
    """n x phi(n) integer matrix whose row e is zeta_n^e in the power basis mod Phi_n.

    A coefficient vector t over the exponents 0..n-1 is zero in Q(zeta_n)
    exactly when t @ cyclotomic_basis(n) is zero.  The result is read-only.
    """
    phi = np.array(_cyclotomic(n)[:-1], dtype=np.int64)
    deg = len(phi)
    basis = np.zeros((n, deg), dtype=np.int64)
    basis[:deg] = np.eye(deg, dtype=np.int64)
    for e in range(deg, n):
        # x^e = x * x^(e-1), with x^deg replaced by -(Phi_n - x^deg)
        basis[e, 1:] = basis[e - 1, :-1]
        basis[e] -= basis[e - 1, -1] * phi
    basis.flags.writeable = False
    return basis


def cyclotomic_zero(terms: np.ndarray, n: int) -> bool:
    """Is every coefficient vector along the last axis zero in Q(zeta_n)?"""
    return not np.any(np.asarray(terms) @ cyclotomic_basis(n))


# --- exact Gram matrices -----------------------------------------------------


@dataclass
class ExactGram:
    """Gram matrix with entry (i, j) = coeff2[i, j] / 2 * zeta_modulus^zexp[i, j].

    `coeff2` and `zexp` are n x n int64 arrays, one root-of-unity term per
    entry; the coefficients are stored doubled so that they are integers.
    """

    n: int
    modulus: int
    coeff2: np.ndarray
    zexp: np.ndarray

    def to_complex(self) -> np.ndarray:
        powers = np.exp(2j * np.pi / self.modulus) ** np.arange(self.modulus)
        return self.coeff2 * powers[self.zexp] / 2

    def to_gram_matrix(self) -> GramMatrix:
        """The float Gram, made exactly Hermitian."""
        entries = self.to_complex()
        return GramMatrix(self.n, (entries + entries.conj().T) / 2)

    def equals(self, rows: Iterable[np.ndarray]) -> bool:
        """Do exactly n rows, row i an (n, modulus) array of doubled
        coefficients by exponent, give this Gram in Q(zeta_modulus)?"""
        for row, c, e in itertools.zip_longest(rows, self.coeff2, self.zexp):
            if c is None or np.shape(row) != (self.n, self.modulus):
                return False
            diff = np.array(row, dtype=np.int64)
            diff[np.arange(self.n), e] -= c
            if not cyclotomic_zero(diff, self.modulus):
                return False
        return True

    def export_entries(self) -> list[list[dict]]:
        """JSON-friendly exact entries.

        Equal cells share one dict: the nested lists hold references to one
        dict per distinct (coefficient, exponent) pair.
        """
        keys, inverse = np.unique((self.coeff2 * self.modulus + self.zexp).ravel(), return_inverse=True)
        cells = np.empty(len(keys), dtype=object)
        for k, key in enumerate(keys.tolist()):
            c, e = divmod(key, self.modulus)  # a cell's coeff2 and zexp
            den = 1 + c % 2  # c / 2 in lowest terms is (c * den // 2) / den
            cells[k] = {"coeff_num": c * den // 2, "coeff_den": den,
                        "zeta_num": e, "zeta_den": self.modulus}
        return cells[inverse.reshape(self.n, self.n)].tolist()


def heis_etf_gram(spec: AbelianGroupSpec, gamma: GammaTwist, parity: str) -> ExactGram:
    """Closed-form Gram of the parity-projector orbit, indexed by K.

    Diagonal (|A|+1)/2 for even parity, (|A|-1)/2 for odd; off-diagonal
    entries +-(1/2) gamma([u, v]^(1/2)) with sign given by the parity.
    """
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    g = gamma.for_spec(spec)
    n_mod = spec.exponent
    n = spec.order**2
    refuse_past_limit(n * n * n_mod, f"an exact {n}x{n} Gram over {n_mod}-th roots of unity")
    elems = np.array(spec.elements(), dtype=np.int64)
    a = np.repeat(elems, len(elems), axis=0)  # K = A x A^ in k_elements order
    alpha = np.tile(elems, (len(elems), 1))
    weights = np.array([n_mod // m for m in spec.moduli], dtype=np.int64)
    pairing = (a * weights) @ alpha.T  # [i, j] = <a_i, alpha_j>, as an exponent
    # Gram[i, j] = <phi_j, phi_i> = +-(1/2) gamma([u_j, u_i]^(1/2)), exponent 0 on the diagonal
    zexp = (g * spec.half * ((pairing - pairing.T) % n_mod)) % n_mod
    sign = 1 if parity == "even" else -1
    coeff2 = np.full((n, n), sign, dtype=np.int64)
    np.fill_diagonal(coeff2, spec.order + sign)
    return ExactGram(n, n_mod, coeff2, zexp)


def heis_etf_gram_direct(spec: AbelianGroupSpec, gamma: GammaTwist, parity: str) -> Iterator[np.ndarray]:
    """The same Gram by direct Hilbert-Schmidt traces of monomial products.

    Entry (i, j) is tr(pi(u_j, 1) P P* pi(u_i, 1)*) with P the parity
    projector, expanded through P = (I +- R)/2 so every trace is a trace
    of a monomial matrix: a count of its fixed points by exponent.  Checked
    at the call, the rows come as read: (n, N) doubled coefficients by exponent.
    """
    if parity not in ("even", "odd"):
        raise InputError(f"parity must be 'even' or 'odd', got {parity!r}")
    if spec.order > 49:
        raise ResourceError("direct Hilbert-Schmidt computation is capped at |A| <= 49")
    n_mod = spec.exponent
    rev = np.array(reversal_matrix(spec).col)
    sign = 1 if parity == "even" else -1
    # row k = (a, alpha) of col/exp is pi(a, alpha, 0) (see `schrodinger_matrix`):
    # row b goes to column b - a with exponent g <b - a/2, alpha>
    moduli = np.array(spec.moduli)
    elems = np.array(spec.elements())
    shifted = np.moveaxis((elems - elems[:, None]) % moduli, -1, 0)  # [t, a, b] = (b - a)_t
    col = np.repeat(np.ravel_multi_index(tuple(shifted), spec.moduli), len(elems), axis=0)
    half_a = elems * ((moduli + 1) // 2)  # a/2, up to multiples of the moduli
    phase = ((elems - half_a[:, None]) * (n_mod // moduli)) @ elems.T  # [a, b, alpha]
    exp = (gamma.for_spec(spec) * phase.transpose(0, 2, 1).reshape(col.shape)) % n_mod
    # the adjoint pi(u)* sends row col[r] to column r with exponent -exp[r]
    adj_col, adj_exp = np.empty_like(col), np.empty_like(exp)
    np.put_along_axis(adj_col, col, np.arange(col.shape[1]), axis=1)
    np.put_along_axis(adj_exp, col, -exp % n_mod, axis=1)

    def counts(o_col: np.ndarray, o_exp: np.ndarray) -> np.ndarray:
        # (M @ O)[r] has column O.col[M.col[r]] and exponent M.exp[r] + O.exp[M.col[r]]
        return _fixed_point_counts(o_col[col], (exp + o_exp[col]) % n_mod, n_mod)

    # O is pi(u_i)* for the identity half of P P* and R pi(u_i)* for the other
    return (counts(c, e) + sign * counts(c[rev], e[rev]) for c, e in zip(adj_col, adj_exp))


def _is_scaled_projection(gram: ExactGram, num: int, den: int) -> bool:
    """gram @ gram == (num / den) * gram, in integers."""
    coeff2, zexp = gram.coeff2, gram.zexp
    n, n_mod = gram.n, gram.modulus
    cols = np.broadcast_to(np.arange(n), (n, n))
    for i in range(n):
        # 4 den (G @ G)[i, j] = den sum_w coeff2[i, w] coeff2[w, j] zeta^(zexp[i, w] + zexp[w, j])
        acc = np.zeros((n, n_mod), dtype=np.int64)
        np.add.at(acc, (cols, (zexp[i][:, None] + zexp) % n_mod), coeff2[i][:, None] * coeff2)
        acc *= den
        # 4 den (num / den) G[i, j] = 2 num coeff2[i, j] zeta^zexp[i, j]
        acc[np.arange(n), zexp[i]] -= 2 * num * coeff2[i]
        if not cyclotomic_zero(acc, n_mod):
            return False
    return True


def exact_scaled_projection_check(gram: ExactGram, constant: Rational) -> bool:
    """Exact test of gram @ gram == constant * gram for a rational constant."""
    return _is_scaled_projection(gram, constant.numerator, constant.denominator)


def exact_is_etf(gram: ExactGram) -> bool:
    """Exact ETF certificate: constant diagonal, constant off-diagonal
    modulus, and a scalar multiple of a projection."""
    coeff2, zexp = gram.coeff2, gram.zexp
    n = gram.n
    diag = coeff2.diagonal()
    if np.any(zexp.diagonal() % gram.modulus != 0) or np.any(diag != diag[0]) or diag[0] <= 0:
        return False
    off = np.abs(coeff2[~np.eye(n, dtype=bool)])
    if np.any(off != off[0]):
        return False
    # constant = trace(G^2)/trace(G) = (sum coeff2^2 / 4) / (trace coeff2 / 2),
    # exact because exponents cancel pairwise
    return _is_scaled_projection(gram, int((coeff2.astype(object) ** 2).sum()), 2 * int(diag.sum()))


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


def _sl2_map(p: int, m, e: HeisenbergElement) -> HeisenbergElement:
    """The 2x2 matrix m mod p applied to the K-part (a, alpha) of e."""
    a, alpha = e.a[0], e.alpha[0]
    return HeisenbergElement(
        ((m[0][0] * a + m[0][1] * alpha) % p,), ((m[1][0] * a + m[1][1] * alpha) % p,), e.z
    )


def heisenberg_permutation_action(p: int) -> GroupAction:
    """Permutation action of (Heisenberg) x| SL(2, p) on the p^3 group elements.

    Generators: left translations by the three standard Heisenberg
    generators, plus the two standard SL(2, p) generators acting on the
    K-part coordinatewise.  Supported at desk scale, p in {3, 5, 7}.
    """
    if p not in (3, 5, 7):
        raise InputError(f"supported primes are 3, 5, 7; got {p}")
    spec = make_spec((p,))
    triples = itertools.product(range(p), repeat=3)
    elems = [HeisenbergElement((a,), (alpha,), z) for a, alpha, z in triples]
    maps = [
        partial(heisenberg_multiply, spec, HeisenbergElement(*translate))
        for translate in (((1,), (0,), 0), ((0,), (1,), 0), ((0,), (0,), 1))
    ]
    for mat in ([[0, p - 1], [1, 0]], [[1, 1], [0, 1]]):
        if not sp_membership(p, mat):
            raise NumericError("standard SL(2, p) generator failed the symplectic check")
        maps.append(partial(_sl2_map, p, mat))
    return action_on(elems, lambda e: e, maps)
