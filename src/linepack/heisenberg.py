"""Heisenberg groups over odd abelian groups and their parity ETFs.

For an odd abelian group A with exponent N, the Heisenberg group is
K x C_N with K = A x A^ (dual), multiplied through the half-twisted
symplectic cocycle.  The Schrodinger representation acts on L^2(A) by
monomial matrices with N-th-root-of-unity entries, so everything here is
exact integer arithmetic on exponents mod N, on index arrays; the group
law and these matrices as objects are the tests' oracle, not library code.

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
import operator
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from numbers import Rational
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError, refuse_orbital_matrix_past_limit, refuse_past_limit
from .frames import GramMatrix
from .permgroup import GroupAction, PermutationGroup


@dataclass(frozen=True)
class AbelianGroupSpec:
    """Odd abelian group as a product of cyclic factors, with 1/2 arithmetic."""

    moduli: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "moduli", tuple(map(operator.index, self.moduli)))
        except TypeError:
            raise InputError(f"moduli must be integers, got {self.moduli}") from None
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


def make_spec(moduli: Sequence[int]) -> AbelianGroupSpec:
    return AbelianGroupSpec(moduli)


@dataclass(frozen=True)
class GammaTwist:
    """Character z -> z^g of C_N; an automorphism exactly when gcd(g, N) = 1."""

    g: int

    def for_spec(self, spec: AbelianGroupSpec) -> int:
        g = self.g % spec.exponent
        if gcd(g, spec.exponent) != 1:
            raise InputError(f"gamma exponent {self.g} is not invertible mod {spec.exponent}")
        return g


def _fixed_point_counts(col: np.ndarray, exp: np.ndarray, modulus: int) -> np.ndarray:
    """Row k: how many fixed points of the column map col[k] carry each exponent."""
    rows, fixed = np.nonzero(col == np.arange(col.shape[1]))
    keys = rows * modulus + exp[rows, fixed]
    return np.bincount(keys, minlength=len(col) * modulus).reshape(len(col), modulus)


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
    a = np.repeat(elems, len(elems), axis=0)  # K = A x A^, (a, alpha) in lexicographic order
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
    sign = 1 if parity == "even" else -1
    # row k = (a, alpha) of col/exp is the Schrodinger matrix pi(a, alpha, 0):
    # row b goes to column b - a with exponent g <b - a/2, alpha>
    moduli = np.array(spec.moduli)
    elems = np.array(spec.elements())
    rev = np.ravel_multi_index(tuple((-elems % moduli).T), spec.moduli)  # (R f)(b) = f(-b)
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


# --- the Heisenberg group at prime level -----------------------------------


def heisenberg_permutation_action(p: int) -> GroupAction:
    """Permutation action of (Heisenberg) x| SL(2, p) on the p^3 group elements.

    Point a p^2 + alpha p + z is (a, alpha, z), and every generator is index
    arithmetic mod p.  Left translation by (t_a, t_alpha, t_z), for the three
    standard Heisenberg generators, adds it with z gaining h (a t_alpha -
    t_a alpha), h = (p + 1)/2; the SL(2, p) generators [[0, -1], [1, 0]] and
    [[1, 1], [0, 1]] act on (a, alpha) and fix z.  Any odd prime p whose
    p^3 x p^3 orbital matrix fits the array limit, refused from p first.
    """
    refuse_orbital_matrix_past_limit(p**3)
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        raise InputError(f"p must be an odd prime; got {p}")
    a, alpha, z = np.indices((p, p, p)).reshape(3, -1)
    half = (p + 1) // 2
    images = [
        (a + ta, alpha + tal, z + tz + half * (a * tal - ta * alpha))
        for ta, tal, tz in ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    ]
    for (m00, m01), (m10, m11) in (((0, p - 1), (1, 0)), ((1, 1), (0, 1))):
        images.append((m00 * a + m01 * alpha, m10 * a + m11 * alpha, z))
    gens = [np.ravel_multi_index(tuple(c % p for c in image), (p, p, p)).tolist() for image in images]
    return GroupAction(PermutationGroup(p**3, gens))
