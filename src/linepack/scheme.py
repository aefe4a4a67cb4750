"""Schurian association schemes from transitive group actions.

The orbits of a transitive action on ordered pairs of points partition
X x X into orbitals A_0, ..., A_c with A_0 the diagonal; their 0/1
matrices span the algebra of all group-stable matrices.  The whole
structure is stored as one integer matrix ``orbital_of`` with
``orbital_of[x, y] = i``  iff  ``(A_i)[x, y] = 1``.

Orbital products are computed exactly through the integer structure
constants, so commutativity (the Gelfand-pair test) is an exact check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InputError
from .permgroup import (
    DEFAULT_ELEMENT_LIMIT,
    GroupAction,
    PermutationGroup,
    is_transitive,
)


@dataclass
class SchurianScheme:
    point_count: int
    orbital_of: np.ndarray  # (n, n) int matrix of orbital indices
    valencies: tuple[int, ...]
    transpose_pairing: tuple[int, ...]
    diagonal_index: int = 0

    @property
    def n_orbitals(self) -> int:
        return len(self.valencies)

    def orbital_matrix(self, i: int) -> np.ndarray:
        return (self.orbital_of == i).astype(np.int64)

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """p[i, j, k] with A_i A_j = sum_k p[i, j, k] A_k, exact integers.

        Uses row 0 only: products of orbital matrices are group-stable, so
        they are determined by any single row.  Row 0 of every A_i A_j is
        one matrix product per j, in float64: the counts are at most n, so
        they are exact.  Raises if a product falls outside the integer span
        (impossible for a true orbital partition).
        """
        c1 = self.n_orbitals
        row0 = self.orbital_of[0]
        onehot = (row0[:, None] == np.arange(c1)).astype(np.float64)  # [z, i] = A_i[0, z]
        present, first_col = np.unique(row0, return_index=True)
        p = np.zeros((c1, c1, c1), dtype=np.int64)
        for j in range(c1):
            a_j = (self.orbital_of == j).astype(np.float64)
            counts = (onehot.T @ a_j).astype(np.int64)  # [i, y] = (A_i A_j)[0, y]
            p[:, j, present] = counts[:, first_col]
            if not np.array_equal(counts, p[:, j, row0]):
                raise InputError("orbital products do not close over the orbitals")
        return p

    def to_json_dict(self) -> dict:
        orbitals = []
        for i in range(self.n_orbitals):
            rows = []
            for x in range(self.point_count):
                cols = np.nonzero(self.orbital_of[x] == i)[0]
                rows.append([int(x), [int(c) for c in cols]])
            orbitals.append(rows)
        return {
            "n": self.point_count,
            "orbitals": orbitals,
            "valencies": list(self.valencies),
        }


def _canonical_scheme(orbital_of: np.ndarray) -> SchurianScheme:
    """The scheme with its orbitals relabelled canonically.

    Orbitals are ordered by (valency, least column in row 0); the diagonal
    has the least key (1, 0), so it comes first.  Valencies are counted in
    row 0, which meets every orbital of a transitive action, and orbital i
    pairs with the orbital of (y, 0) for any (0, y) in orbital i.
    """
    labels, first_col, valency = np.unique(orbital_of[0], return_index=True, return_counts=True)
    order = np.lexsort((first_col, valency))
    relabel = np.empty(int(labels[-1]) + 1, dtype=np.int64)
    relabel[labels[order]] = np.arange(len(order))
    orbital_of = relabel[orbital_of]
    return SchurianScheme(
        point_count=len(orbital_of),
        orbital_of=orbital_of,
        valencies=tuple(int(k) for k in valency[order]),
        transpose_pairing=tuple(int(i) for i in orbital_of[first_col[order], 0]),
    )


def scheme_from_action(action: GroupAction) -> SchurianScheme:
    """Orbital partition of X x X under the diagonal action.

    Orbital 0 is the diagonal; the rest are ordered by (valency, least
    column in row 0) so downstream indexing is reproducible.
    """
    if not is_transitive(action):
        raise InputError("scheme construction requires a transitive action")
    n = action.point_count
    gens = [g.images for g in action.group.generators]
    orbital_of = np.full((n, n), -1, dtype=np.int64)
    next_id = 0
    for y0 in range(n):
        if orbital_of[0, y0] >= 0:
            continue
        members = [(0, y0)]
        orbital_of[0, y0] = next_id
        while members:
            new_members = []
            for (x, y) in members:
                for g in gens:
                    gx, gy = g[x], g[y]
                    if orbital_of[gx, gy] < 0:
                        orbital_of[gx, gy] = next_id
                        new_members.append((gx, gy))
            members = new_members
        next_id += 1
    if np.any(orbital_of < 0):
        raise InputError("pair orbits failed to cover X x X")
    return _canonical_scheme(orbital_of)


def is_commutative(scheme: SchurianScheme) -> bool:
    """Exact Gelfand test: A_i A_j == A_j A_i for all i < j."""
    p = scheme.structure_constants
    return bool(np.array_equal(p, p.transpose(1, 0, 2)))


def conjugacy_class_scheme(
    group: PermutationGroup, element_limit: int = DEFAULT_ELEMENT_LIMIT
) -> SchurianScheme:
    """Scheme on the group's elements whose orbitals are conjugacy class sums.

    A pair (x, y) lies in orbital i exactly when x y^{-1} belongs to the
    i-th conjugacy class; the result is always commutative.
    """
    elems = group.elements(element_limit)
    index = {p.images: i for i, p in enumerate(elems)}
    m = len(elems)
    class_of = [-1] * m
    n_classes = 0
    for i, e in enumerate(elems):
        if class_of[i] >= 0:
            continue
        frontier = [e]
        class_of[i] = n_classes
        while frontier:
            x = frontier.pop()
            for g in group.generators:
                y = g * x * g.inverse()
                j = index[y.images]
                if class_of[j] < 0:
                    class_of[j] = n_classes
                    frontier.append(y)
        n_classes += 1
    inverses = [index[e.inverse().images] for e in elems]
    class_of = np.asarray(class_of, dtype=np.int64)
    orbital_of = np.empty((m, m), dtype=np.int64)
    for y in range(m):
        # column y: orbital_of[x, y] = class of x * y^{-1}
        y_inv = elems[inverses[y]]
        col = np.array([class_of[index[(x * y_inv).images]] for x in elems], dtype=np.int64)
        orbital_of[:, y] = col
    return _canonical_scheme(orbital_of)


def stable_matrix_check(scheme: SchurianScheme, matrix, tol: float = 1e-9) -> bool:
    """True iff the matrix is constant on every orbital.

    Exact for Fraction entries, tolerance-bounded (absolute) otherwise.
    """
    n = scheme.point_count
    if isinstance(matrix, np.ndarray) and matrix.dtype != object:
        if matrix.shape != (n, n):
            raise InputError(f"matrix shape {matrix.shape} does not match point count {n}")
        for i in range(scheme.n_orbitals):
            vals = matrix[scheme.orbital_of == i]
            if np.abs(vals - vals.flat[0]).max() > tol:
                return False
        return True
    rows = list(matrix)
    if len(rows) != n or any(len(r) != n for r in rows):
        raise InputError("matrix dimensions do not match point count")
    ref: dict[int, object] = {}
    for x in range(n):
        for y in range(n):
            i = int(scheme.orbital_of[x, y])
            v = rows[x][y]
            if i not in ref:
                ref[i] = v
            elif isinstance(v, (int, Fraction)) and isinstance(ref[i], (int, Fraction)):
                if v != ref[i]:
                    return False
            elif abs(complex(v) - complex(ref[i])) > tol:
                return False
    return True
