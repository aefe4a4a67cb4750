"""Primitive central idempotents of the adjacency algebra.

The isotypic projections are the primitive idempotents of the center of
the adjacency algebra.  They are constant on orbitals, so the whole
computation runs on coefficient vectors over the orbital basis, and dense
n x n matrices appear only on output.  They are found numerically but
certified against exact structure constants:

  1. the center is solved exactly (rational nullspace of the commutation
     constraints on the integer structure constants);
  2. a seeded generic Hermitian center element x acts on the algebra by
     left multiplication L_x; symmetrized by the valencies, one
     eigendecomposition gives its spectral projectors, and each applied
     to the identity is one primitive idempotent, whose eigenvalue
     cluster has size multiplicity^2 (Bannai-Ito, Algebraic Combinatorics
     I, 2.2-2.3);
  3. the projectors are verified with exact products: idempotent,
     Hermitian, pairwise orthogonal and summing to the identity, with
     integral traces.

Since orbitals have disjoint supports, entrywise matrix norms are exactly
coefficient norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import Optional

import numpy as np

from .errors import InputError, NumericError
from .frames import GramMatrix, gap_clusters
from .scheme import SchurianScheme

IDEMPOTENT_TOL = 1e-8


@dataclass
class IsotypicDecomposition:
    """The primitive central idempotents E_j of a scheme's adjacency algebra.

    coefficients[j, i] expands E_j over the orbital matrices; rank_j is
    the (integer) trace.  degrees[j] (the dimension of the irreducible
    constituent) and multiplicities[j] satisfy rank = multiplicity * degree;
    either is None when integer recovery fails its tolerance.
    """

    scheme: SchurianScheme
    coefficients: np.ndarray  # (r+1, c+1) complex
    ranks: tuple[int, ...]
    degrees: tuple[Optional[int], ...]
    multiplicities: tuple[Optional[int], ...]
    trivial_index: int

    @property
    def n_projections(self) -> int:
        return self.coefficients.shape[0]

    def projection_matrix(self, j: int) -> np.ndarray:
        if not 0 <= j < self.n_projections:
            raise InputError(f"projection index {j} out of range")
        return self.coefficients[j][self.scheme.orbital_of]

    @property
    def projections(self) -> list[np.ndarray]:
        return [self.projection_matrix(j) for j in range(self.n_projections)]

    def to_json_dict(self, include_projections: bool = False) -> dict:
        out = {
            "ranks": list(self.ranks),
            "m": list(self.degrees),
            "n": list(self.multiplicities),
            "coefficients": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.coefficients
            ],
            "trivial_index": self.trivial_index,
        }
        if include_projections:
            out["projections"] = [
                [[[float(z.real), float(z.imag)] for z in row] for row in self.projection_matrix(j)]
                for j in range(self.n_projections)
            ]
        return out


def _rational_nullspace(rows: list[list[int]], width: int) -> list[list[Fraction]]:
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


def _center_basis(scheme: SchurianScheme) -> np.ndarray:
    """Coefficient vectors spanning the center of the adjacency algebra."""
    p = scheme.structure_constants
    c1 = scheme.n_orbitals
    diff = p - p.transpose(1, 0, 2)  # [i, j, k] = p_ij^k - p_ji^k
    rows = diff.transpose(1, 2, 0).reshape(-1, c1)  # row (j, k) is diff[:, j, k]
    # The row space alone fixes the reduced echelon form and so the basis:
    # zero rows and rows repeated up to sign are dropped before the exact
    # elimination.
    lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
    rows = rows[lead != 0] * np.sign(lead[lead != 0])[:, None]
    if not len(rows):
        return np.eye(c1, dtype=np.complex128)
    _, first = np.unique(rows, axis=0, return_index=True)
    basis = _rational_nullspace(rows[np.sort(first)].tolist(), c1)
    return np.array([[complex(x) for x in vec] for vec in basis], dtype=np.complex128)


class _DecompositionFailure(Exception):
    pass


def _hermitian_center_basis(scheme: SchurianScheme, center: np.ndarray) -> list[np.ndarray]:
    pairing = np.asarray(scheme.transpose_pairing)

    def adjoint(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        out[pairing] = np.conj(x)
        return out

    herm = []
    for b in center:
        for cand in (b + adjoint(b), 1j * (b - adjoint(b))):
            norm = np.abs(cand).max()
            if norm > 1e-12:
                herm.append(cand / norm)
    return herm


def _left_multiplication(p_flat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L_x[k, j] = sum_i x_i p[i, j, k], the matrix of y -> x y on coefficients.

    p_flat is the float structure-constant tensor reshaped to (c, c * c);
    real and imaginary parts are contracted apart so it is never copied.
    """
    c1 = len(x)
    return (x.real @ p_flat + 1j * (x.imag @ p_flat)).reshape(c1, c1).T


def _decompose_once(
    scheme: SchurianScheme,
    p_flat: np.ndarray,
    herm: list[np.ndarray],
    seed: int,
    tol: float,
) -> list[np.ndarray]:
    """Spectral projectors of a seeded generic Hermitian central element x.

    L_x is self-adjoint for the inner product <A_i, A_j> = k_i delta_ij, so
    S = D^(1/2) L_x D^(-1/2) with D = diag(valencies) is Hermitian.  An
    eigenvalue cluster V of S is the block of one primitive idempotent E,
    and E = L_E 1 = D^(-1/2) V V* D^(1/2) 1.
    """
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(len(herm))
    generic = sum(w * h for w, h in zip(weights, herm))
    root_k = np.sqrt(np.asarray(scheme.valencies, dtype=np.float64))
    sym = root_k[:, None] * _left_multiplication(p_flat, generic) / root_k[None, :]
    eigvals, eigvecs = np.linalg.eigh((sym + sym.conj().T) / 2)
    radius = max(float(np.abs(eigvals).max()), 1.0)
    pairing = np.asarray(scheme.transpose_pairing)
    projectors = []
    for idx in gap_clusters(eigvals, tol * radius):
        vecs = eigvecs[:, idx]
        e = vecs @ vecs[scheme.diagonal_index].conj() / root_k
        projectors.append((e + np.conj(e[pairing])) / 2)
    return projectors


def _trace_from_coeffs(scheme: SchurianScheme, coeffs: np.ndarray) -> complex:
    # only the diagonal orbital contributes to the trace
    return coeffs[scheme.diagonal_index] * scheme.point_count


def _verify(scheme: SchurianScheme, p_flat: np.ndarray, coeff_list: list[np.ndarray]) -> None:
    """Certify the projectors with the exact structure constants, one L_E at a time."""
    stack = np.array(coeff_list)
    identity = np.zeros(scheme.n_orbitals, dtype=np.complex128)
    identity[scheme.diagonal_index] = 1.0
    pairing = np.asarray(scheme.transpose_pairing)
    for a, e in enumerate(coeff_list):
        if np.real(_trace_from_coeffs(scheme, e)) < 0.5:
            raise _DecompositionFailure("projector has rank zero")
        if np.abs(e - np.conj(e[pairing])).max() > 1e-12:
            raise _DecompositionFailure("projector is not Hermitian")
        products = stack @ _left_multiplication(p_flat, e).T  # row b is E_a E_b
        if np.abs(products[a] - e).max() > IDEMPOTENT_TOL:
            raise _DecompositionFailure("projector is not idempotent")
        products[a] = 0.0
        if np.abs(products).max() > IDEMPOTENT_TOL:
            raise _DecompositionFailure("projectors are not mutually orthogonal")
    if np.abs(stack.sum(axis=0) - identity).max() > IDEMPOTENT_TOL:
        raise _DecompositionFailure("projectors do not sum to the identity")


def _item_cmp(a, b):
    """Order (rank, coefficient vector) pairs with a 1e-6 equality slack,
    so the canonical order is stable across seeds."""
    ra, ca = a
    rb, cb = b
    if ra != rb:
        return -1 if ra < rb else 1
    for x, y in zip(ca, cb):
        for u, v in ((x.real, y.real), (x.imag, y.imag)):
            if abs(u - v) > 1e-6:
                return -1 if u < v else 1
    return 0


def central_primitive_idempotents(
    scheme: SchurianScheme, seed: int = 0, tol: float = 1e-8
) -> IsotypicDecomposition:
    """Primitive central idempotents, ordered by (rank, coefficient fingerprint).

    Deterministic given (scheme, seed, tol); the projector set itself is
    seed-independent.  Up to three reseeds are attempted before giving up
    with a numeric error.
    """
    center = _center_basis(scheme)
    herm = _hermitian_center_basis(scheme, center)
    p_flat = scheme.structure_constants.astype(np.float64).reshape(scheme.n_orbitals, -1)
    failures = []
    for attempt in range(3):
        try:
            coeff_list = _decompose_once(scheme, p_flat, herm, seed + attempt, tol)
            if len(coeff_list) != len(center):
                raise _DecompositionFailure(
                    f"found {len(coeff_list)} projectors, center dimension is {len(center)}"
                )
            _verify(scheme, p_flat, coeff_list)
            return _assemble(scheme, coeff_list)
        except _DecompositionFailure as exc:
            failures.append(f"seed {seed + attempt}: {exc}")
    raise NumericError("idempotent decomposition failed: " + "; ".join(failures))


def _assemble(scheme: SchurianScheme, coeff_list: list[np.ndarray]) -> IsotypicDecomposition:
    n = scheme.point_count
    items = []
    for e in coeff_list:
        tr = np.real(_trace_from_coeffs(scheme, e))
        if abs(tr - round(tr)) > 1e-6:
            raise NumericError(f"projector trace {tr} is not close to an integer")
        items.append((int(round(tr)), e))
    if sum(rank for rank, _ in items) != n:
        raise NumericError("projector ranks do not sum to the point count")
    items.sort(key=cmp_to_key(_item_cmp))
    ranks = tuple(rank for rank, _ in items)
    coefficients = np.array([e for _, e in items])

    trivial_index = None
    for j, (_, e) in enumerate(items):
        if np.abs(e - 1.0 / n).max() < 1e-6:
            trivial_index = j
            break
    if trivial_index is None:
        raise NumericError("no projection matches J/|X| (trivial component missing)")

    # tr(L_E) = sum_i e_i sum_k p[i, k, k] is the dimension of the simple
    # block E * algebra, which equals multiplicity^2
    block_traces = np.trace(scheme.structure_constants, axis1=1, axis2=2)
    degrees: list[Optional[int]] = []
    multiplicities: list[Optional[int]] = []
    for j, (rank, e) in enumerate(items):
        block = float(np.real(e @ block_traces))
        mult = int(round(np.sqrt(max(block, 0.0))))
        if abs(block - mult * mult) > 1e-6 or mult < 1 or rank % mult != 0:
            degrees.append(None)
            multiplicities.append(None)
            continue
        degree = rank // mult
        # the diagonal coefficient must agree with multiplicity * degree / n
        if abs(n * e[scheme.diagonal_index].real - mult * degree) > 1e-6:
            degrees.append(None)
            multiplicities.append(None)
            continue
        degrees.append(degree)
        multiplicities.append(mult)
    return IsotypicDecomposition(
        scheme=scheme,
        coefficients=coefficients,
        ranks=ranks,
        degrees=tuple(degrees),
        multiplicities=tuple(multiplicities),
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
    c0 = dec.coefficients[j][dec.scheme.diagonal_index]
    return dec.coefficients[j] / c0


def projection_from_subset(dec: IsotypicDecomposition, subset) -> GramMatrix:
    """Orthogonal projection sum of the selected isotypic projections.

    The complement subset yields I minus the result (Naimark pairing).
    """
    indices = sorted(set(int(j) for j in subset))
    for j in indices:
        if not 0 <= j < dec.n_projections:
            raise InputError(f"projection index {j} out of range")
    coeffs = dec.coefficients[indices].sum(axis=0)
    entries = coeffs[dec.scheme.orbital_of]
    entries = (entries + entries.conj().T) / 2
    return GramMatrix.from_entries(entries)
