"""Primitive central idempotents of the adjacency algebra.

The isotypic projections are the primitive idempotents of the center of
the adjacency algebra.  They are constant on orbitals, so the whole
computation runs on coefficient vectors over the orbital basis, and dense
n x n matrices appear only on output.  They are found numerically but
certified with products read off the scheme's pair codes:

  1. the center is solved exactly: the whole algebra when it is
     commutative, otherwise the rational nullspace of the commutators
     C_y (`SchurianScheme.commutator`, x -> x y - y x) of seeded integer
     probes y, found modulo primes below 2^31 in int64 arithmetic, lifted
     by rational reconstruction to integer rows over positive common
     denominators and certified central by C_x = 0 on each row x; its
     reduced echelon basis is unique;
  2. a seeded generic Hermitian center element x (weights drawn from
     `random.Random(seed)`) acts on the algebra by
     left multiplication L_x; symmetrized by the valencies, one
     eigendecomposition gives its spectral projectors, and each applied
     to the identity is one primitive idempotent, whose eigenvalue
     cluster is its block of the algebra, of size multiplicity^2
     (Bannai-Ito, Algebraic Combinatorics I, 2.2-2.3);
  3. the projectors are verified with products read off the pair codes
     (`SchurianScheme.left_multiplication`, no c^3 tensor): idempotent,
     Hermitian, pairwise orthogonal and summing to the identity, with
     integral traces.

Since orbitals have disjoint supports, entrywise matrix norms are exactly
coefficient norms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cmp_to_key

import numpy as np

from .errors import InputError, NumericError
from .frames import (
    CLUSTER_TOL,
    COEFFICIENT_TOL,
    HERMITIAN_TOL,
    IDEMPOTENT_TOL,
    GramMatrix,
    complex_pairs,
    gap_clusters,
)
from .scheme import SchurianScheme, is_commutative


@dataclass
class IsotypicDecomposition:
    """The primitive central idempotents E_j of a scheme's adjacency algebra.

    coefficients[j, i] expands E_j over the orbital matrices; rank_j is
    the (integer) trace.  degrees[j] (the dimension of the irreducible
    constituent) and multiplicities[j] satisfy rank = multiplicity * degree.
    """

    scheme: SchurianScheme
    coefficients: np.ndarray  # (r+1, c+1) complex
    ranks: tuple[int, ...]
    degrees: tuple[int, ...]
    multiplicities: tuple[int, ...]
    trivial_index: int

    @property
    def n_projections(self) -> int:
        return self.coefficients.shape[0]

    def projection_matrix(self, j: int) -> np.ndarray:
        if not 0 <= j < self.n_projections:
            raise InputError(f"projection index {j} out of range")
        return self.coefficients[j][self.scheme.orbital_of]

    def to_json_dict(self, include_projections: bool = False) -> dict:
        out = {
            "ranks": list(self.ranks),
            "m": list(self.degrees),
            "n": list(self.multiplicities),
            "coefficients": complex_pairs(self.coefficients),
            "trivial_index": self.trivial_index,
        }
        if include_projections:
            out["projections"] = [
                complex_pairs(self.projection_matrix(j)) for j in range(self.n_projections)
            ]
        return out


def _primes_below(bound: int):
    """The primes below bound, in descending order."""
    for q in range(bound - 1 - bound % 2, 2, -2):
        if all(q % f for f in range(3, math.isqrt(q) + 1, 2)):
            yield q


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of an int64 matrix modulo p, with its pivot columns.

    Each pivot clears its column only from the rows where it is nonzero;
    entries stay below p, so each product stays below p^2 < 2^62.
    """
    a = a % p
    pivots: list[int] = []
    for col in range(a.shape[1]):
        r = len(pivots)
        if r == a.shape[0]:
            break
        nonzero = np.flatnonzero(a[r:, col])
        if not nonzero.size:
            continue
        if nonzero[0]:
            a[[r, r + nonzero[0]]] = a[[r + nonzero[0], r]]
        a[r] = a[r] * pow(int(a[r, col]), -1, p) % p
        others = np.flatnonzero(a[:, col])
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, col], a[r])) % p
        pivots.append(col)
    return a, pivots


def _kernel_mod(a: np.ndarray, p: int) -> np.ndarray:
    """Columns spanning the nullspace of a modulo p: e_f minus the pivot entries of column f."""
    reduced, pivots = _rref_mod(a, p)
    free = np.delete(np.arange(a.shape[1]), pivots)
    kernel = np.zeros((a.shape[1], free.size), dtype=np.int64)
    kernel[free, np.arange(free.size)] = 1
    kernel[pivots] = -reduced[: len(pivots), free] % p
    return kernel


def _nullspace_mod(blocks: list[np.ndarray], width: int, p: int) -> tuple[list[int], np.ndarray]:
    """Reduced echelon basis of the common nullspace of the blocks modulo p.

    The columns of `basis` span the nullspace of the blocks seen so far:
    the kernel of the first block, then each later block costs one
    product with at most width columns and an elimination of its image.
    The basis rows come back with free column f holding 1, the other free
    columns 0 and every later column 0: the echelon form of the nullspace
    read from the last column, the same unique form as the rational one.
    """
    basis = _kernel_mod(blocks[0], p)
    for block in blocks[1:]:
        if not basis.shape[1]:
            break
        if block.any():
            image = (block % p) @ basis % p  # width * (p - 1)^2 < 2^63
            if image.any():
                basis = basis @ _kernel_mod(image, p) % p
    reduced, pivots = _rref_mod(basis.T[:, ::-1], p)
    return [width - 1 - q for q in reversed(pivots)], reduced[::-1, ::-1]


def _rational_lift(residues: np.ndarray, m: int) -> tuple[list[list[int]], list[int]] | None:
    """Each row's fractions a/b = r mod m with |a|, b <= sqrt(m/2), or None if one has none.

    Wang's rational reconstruction: the extended Euclidean algorithm on
    (m, r), stopped at the first remainder within the bound.  A row comes
    back as integers over its least common denominator, which is positive.
    """
    bound = math.isqrt(m // 2)
    rows, dens = [], []
    for row in residues.tolist():
        pairs = []
        for r in row:
            r0, r1, t0, t1 = m, r, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
            if abs(t1) > bound or math.gcd(r1, t1) != 1:
                return None
            pairs.append((r1, t1) if t1 > 0 else (-r1, -t1))
        den = math.lcm(*(b for _, b in pairs))
        rows.append([a * (den // b) for a, b in pairs])
        dens.append(den)
    return rows, dens


def _annihilates(blocks: list[np.ndarray], rows: list[list[int]]) -> bool:
    """Exact check that the stacked blocks map every integer row to zero.

    The product runs in int64 where width * max|block| * max|row| bounds
    every sum below 2^63, and in Python integers otherwise.
    """
    stacked = np.concatenate(blocks)
    if not rows or not stacked.any():
        return True
    exact = np.array(rows, dtype=object).T
    if stacked.shape[1] * int(np.abs(stacked).max()) * int(np.abs(exact).max()) < 2**63:
        return not (stacked @ exact.astype(np.int64)).any()
    return not (stacked.astype(object) @ exact).any()


def _integer_nullspace(blocks: list[np.ndarray], width: int) -> tuple[list[list[int]], list[int]]:
    """Reduced echelon basis of the rational nullspace of stacked integer blocks, as (rows, dens).

    There is at least one block of int64 rows of length width.  The basis is
    solved modulo primes p with width * p^2 < 2^63, combined by the
    Chinese remainder theorem and lifted by rational reconstruction
    (Wang, Guy and Davenport, SIGSAM Bull. 16, 1982), then checked
    exactly.  A prime can only lose rank or move pivots later, so a
    result with a smaller nullspace, or the same size and earlier
    pivots, restarts the combination.  Vector f is rows[f] / dens[f], with
    integer entries over a positive common denominator; it has 1 at free
    column f and 0 at the other free columns, as from Gauss-Jordan elimination.
    """
    best = None
    for p in _primes_below(min(2**31, math.isqrt((2**63 - 1) // width))):
        free, residues = _nullspace_mod(blocks, width, p)
        key = (len(free), sorted(set(range(width)).difference(free)))
        if best is None or key < best[0]:
            best = (key, p, residues.astype(object))
        elif key == best[0]:
            _, m, acc = best
            acc = acc + m * ((residues - acc) * pow(m, -1, p) % p)
            best = (key, m * p, acc)
        else:
            continue
        _, m, acc = best
        lifted = _rational_lift(acc, m)
        if lifted is not None and _annihilates(blocks, lifted[0]):
            return lifted
    raise NumericError("no prime solved the center")


def _center_basis(scheme: SchurianScheme) -> np.ndarray:
    """Coefficient vectors spanning the center of the adjacency algebra.

    A commutative algebra is its own center, with the identity as its
    reduced echelon basis.  Otherwise the nullspace N of the commutators
    C_y of two seeded probes y holds the center, and a basis vector x of
    N, held as an integer row, is central exactly when C_x = 0.  While one is
    not, one more probe is drawn: with entries from 17 values it commutes
    with x with probability at most 1/17, and otherwise shrinks N.
    """
    c = scheme.n_orbitals
    if is_commutative(scheme):
        return np.eye(c, dtype=np.complex128)
    rng = random.Random(0)
    blocks = [scheme.commutator(rng.choices(range(-8, 9), k=c)) for _ in range(2)]
    while True:
        rows, dens = _integer_nullspace(blocks, c)
        if not any(scheme.commutator(row).any() for row in rows):
            # x / den is rounded once, as the exact fraction would be
            return np.array([[x / den for x in row] for row, den in zip(rows, dens)], dtype=np.complex128)
        blocks.append(scheme.commutator(rng.choices(range(-8, 9), k=c)))


class _DecompositionFailure(Exception):
    pass


def _hermitian_center_basis(scheme: SchurianScheme, center: np.ndarray) -> list[np.ndarray]:
    herm = []
    for b in center:
        for cand in (b + scheme.adjoint(b), 1j * (b - scheme.adjoint(b))):
            norm = np.abs(cand).max()
            if norm > HERMITIAN_TOL:
                herm.append(cand / norm)
    return herm


def _decompose_once(
    scheme: SchurianScheme, herm: list[np.ndarray], seed: int
) -> list[tuple[np.ndarray, int]]:
    """Spectral projectors of a seeded generic Hermitian central element x, with cluster sizes.

    x is Hermitian, so S = D^(1/2) L_x D^(-1/2) with D = diag(valencies)
    (`SchurianScheme.symmetrized_multiplication`) is Hermitian.  An
    eigenvalue cluster V of S is the block of one primitive idempotent E,
    and E = L_E 1 = D^(-1/2) V V* D^(1/2) 1.
    """
    rng = random.Random(seed)
    generic = sum(rng.gauss(0.0, 1.0) * h for h in herm)
    sym = scheme.symmetrized_multiplication(generic)
    eigvals, eigvecs = np.linalg.eigh((sym + sym.conj().T) / 2)
    radius = max(float(np.abs(eigvals).max()), 1.0)
    projectors = []
    for idx in gap_clusters(eigvals, CLUSTER_TOL * radius):
        vecs = eigvecs[:, idx]
        e = vecs @ vecs[0].conj() / scheme.root_valencies
        projectors.append(((e + scheme.adjoint(e)) / 2, len(idx)))
    return projectors


def _verify(scheme: SchurianScheme, coeff_list: list[np.ndarray]) -> None:
    """Certify the projectors with products read off the pair codes, one L_E at a time."""
    stack = np.array(coeff_list)
    identity = np.zeros(scheme.n_orbitals, dtype=np.complex128)
    identity[0] = 1.0
    for a, e in enumerate(coeff_list):
        if np.real(scheme.trace(e)) < 0.5:
            raise _DecompositionFailure("projector has rank zero")
        if np.abs(e - scheme.adjoint(e)).max() > HERMITIAN_TOL:
            raise _DecompositionFailure("projector is not Hermitian")
        products = stack @ scheme.left_multiplication(e).T  # row b is E_a E_b
        if np.abs(products[a] - e).max() > IDEMPOTENT_TOL:
            raise _DecompositionFailure("projector is not idempotent")
        products[a] = 0.0
        if np.abs(products).max() > IDEMPOTENT_TOL:
            raise _DecompositionFailure("projectors are not mutually orthogonal")
    if np.abs(stack.sum(axis=0) - identity).max() > IDEMPOTENT_TOL:
        raise _DecompositionFailure("projectors do not sum to the identity")


def _item_cmp(a, b):
    """Order (rank, coefficient vector, ...) items with a COEFFICIENT_TOL equality slack,
    so the canonical order is stable across seeds."""
    ra, ca = a[:2]
    rb, cb = b[:2]
    if ra != rb:
        return -1 if ra < rb else 1
    for x, y in zip(ca, cb):
        for u, v in ((x.real, y.real), (x.imag, y.imag)):
            if abs(u - v) > COEFFICIENT_TOL:
                return -1 if u < v else 1
    return 0


def central_primitive_idempotents(scheme: SchurianScheme, seed: int = 0) -> IsotypicDecomposition:
    """Primitive central idempotents, ordered by (rank, coefficient fingerprint).

    Deterministic given (scheme, seed); the projector set itself is
    seed-independent.  Up to three reseeds are attempted before giving up
    with a numeric error.  Every product, the exact center's included, is
    read off the scheme's pair codes in O(n c), and no c^3 tensor is formed.
    """
    center = _center_basis(scheme)
    herm = _hermitian_center_basis(scheme, center)
    failures = []
    for attempt in range(3):
        try:
            projectors = _decompose_once(scheme, herm, seed + attempt)
            if len(projectors) != len(center):
                raise _DecompositionFailure(
                    f"found {len(projectors)} projectors, center dimension is {len(center)}"
                )
            _verify(scheme, [e for e, _ in projectors])
            return _assemble(scheme, projectors)
        except _DecompositionFailure as exc:
            failures.append(f"seed {seed + attempt}: {exc}")
    raise NumericError("idempotent decomposition failed: " + "; ".join(failures))


def _assemble(
    scheme: SchurianScheme, projectors: list[tuple[np.ndarray, int]]
) -> IsotypicDecomposition:
    """The decomposition of certified projectors, each with its eigenvalue cluster's size.

    With as many clusters as the center has dimensions, each cluster is one
    whole block E * algebra, on which the central element acts as one
    scalar; the block has dimension multiplicity^2.
    """
    n = scheme.point_count
    items = []
    for e, size in projectors:
        tr = np.real(scheme.trace(e))
        if abs(tr - round(tr)) > COEFFICIENT_TOL:
            raise NumericError(f"projector trace {tr} is not close to an integer")
        rank, mult = int(round(tr)), math.isqrt(size)
        if mult * mult != size or rank % mult:
            raise NumericError(f"a block of dimension {size} does not fit a rank-{rank} projector")
        items.append((rank, e, mult))
    if sum(rank for rank, _, _ in items) != n:
        raise NumericError("projector ranks do not sum to the point count")
    items.sort(key=cmp_to_key(_item_cmp))
    coefficients = np.array([e for _, e, _ in items])

    trivial_index = None
    for j, (_, e, _) in enumerate(items):
        if np.abs(e - 1.0 / n).max() < COEFFICIENT_TOL:
            trivial_index = j
            break
    if trivial_index is None:
        raise NumericError("no projection matches J/|X| (trivial component missing)")
    return IsotypicDecomposition(
        scheme=scheme,
        coefficients=coefficients,
        ranks=tuple(rank for rank, _, _ in items),
        degrees=tuple(rank // mult for rank, _, mult in items),
        multiplicities=tuple(mult for _, _, mult in items),
        trivial_index=trivial_index,
    )


def multiplicity_free(dec: IsotypicDecomposition) -> bool:
    """True iff every constituent appears with multiplicity one."""
    return all(m == 1 for m in dec.multiplicities)


def spherical_function_values(dec: IsotypicDecomposition, j: int) -> np.ndarray:
    """Per-orbital values c[j][i] / c[j][0]; equals 1 on the diagonal orbital.

    In the multiplicity-free case these are the spherical function values
    on orbital representatives.
    """
    if not 0 <= j < dec.n_projections:
        raise InputError(f"projection index {j} out of range")
    c0 = dec.coefficients[j][0]
    return dec.coefficients[j] / c0


def projection_from_subset(dec: IsotypicDecomposition, subset) -> GramMatrix:
    """Orthogonal projection sum of the selected isotypic projections.

    The complement subset yields I minus the result (Naimark pairing).
    The Gram is held in its orbital form: the coefficients, symmetrised as
    x <- (x + adjoint(x)) / 2, over the scheme's orbitals.
    """
    indices = sorted(set(int(j) for j in subset))
    for j in indices:
        if not 0 <= j < dec.n_projections:
            raise InputError(f"projection index {j} out of range")
    coeffs = dec.coefficients[indices].sum(axis=0)
    coeffs = (coeffs + dec.scheme.adjoint(coeffs)) / 2
    return GramMatrix.from_orbitals(dec.scheme, coeffs)
