"""Schurian association schemes from transitive group actions.

The orbits of a transitive action on ordered pairs of points partition
X x X into orbitals A_0, ..., A_c with A_0 the diagonal; their 0/1
matrices span the algebra of all group-stable matrices.  The whole
structure is stored as one integer matrix ``orbital_of`` with
``orbital_of[x, y] = i``  iff  ``(A_i)[x, y] = 1``.

Each orbital matches one suborbit, an orbit of the point stabilizer G_0:
the orbital of (x, y) meets row 0 in the suborbit of t_x^-1(y), for any
t_x in G with t_x(0) = x.  ``scheme_from_action`` labels the suborbits
and reads the whole matrix off one transversal of 0.

Orbital products are read off one integer table, the pair codes: row k
holds the codes of (o(0, z), o(z, w_k)) over all z, sorted, where w_k is
the least column of orbital k in row 0; the orbitals of a group action
close under products (Higman, Coherent configurations I, 1975), so these
c columns fix them all.  Comparing each row with its codes swapped decides
commutativity (the Gelfand-pair test) exactly, and weighted counts give
L_x and the exact commutator C_y = R_y - L_y in O(n c), with no c^3 tensor.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, refuse_past_limit
from .frames import STABLE_TOL
from .permgroup import (
    GroupAction,
    PermutationGroup,
    _generator_transversal,
    _suborbits,
    action_on,
    is_transitive,
)


@dataclass
class SchurianScheme:
    """The orbitals of a transitive action, with their coefficient space.

    Orbital 0 is the diagonal.  A coefficient vector x of length c stands
    for the group-stable matrix x[orbital_of]; the scheme owns the facts
    that read such a vector: `columns`, `adjoint` and `trace`.  The orbitals
    come from a transitive action, so they close under products (Higman's
    theorem); a partition built by hand is taken as closed, unchecked.
    """

    point_count: int
    orbital_of: np.ndarray  # (n, n) int matrix of orbital indices
    valencies: tuple[int, ...]
    transpose_pairing: tuple[int, ...]

    @property
    def n_orbitals(self) -> int:
        return len(self.valencies)

    @cached_property
    def columns(self) -> np.ndarray:
        """columns[i] is the least y with (0, y) in orbital i."""
        labels, first = np.unique(self.orbital_of[0], return_index=True)
        if not np.array_equal(labels, np.arange(self.n_orbitals)):
            raise InputError("row 0 of the orbital matrix must meet every label 0..c-1")
        return first

    @cached_property
    def _pairing(self) -> np.ndarray:
        return np.asarray(self.transpose_pairing, dtype=np.intp)

    def adjoint(self, x: np.ndarray) -> np.ndarray:
        """Coefficients of the conjugate transpose of x[orbital_of]."""
        return np.conj(x[self._pairing])

    def trace(self, x: np.ndarray):
        """Trace of x[orbital_of]: only the diagonal orbital contributes."""
        return x[0] * self.point_count

    @cached_property
    def _pair_codes(self) -> np.ndarray:
        """Row k: the codes i * c + j of (o(0, z), o(z, w_k)) over all z, sorted.

        w_k is `columns[k]`.  Row 0 of A_i A_j counts, at column y, the z
        with o(0, z) = i and o(z, y) = j; orbitals close, so that count is
        the same at every y of orbital k, and c sorts of n codes suffice.
        """
        c = self.n_orbitals
        return np.sort(c * self.orbital_of[0] + self.orbital_of[:, self.columns].T, axis=1)

    @cached_property
    def structure_constants(self) -> np.ndarray:
        """p[i, j, k] with A_i A_j = sum_k p[i, j, k] A_k: a library object that no command reads.

        p[i, j, k] = #{z : o(0, z) = i, o(z, w_k) = j} is the entry of A_i A_j at
        (0, w_k), one count of the pair codes (Bannai-Ito, Algebraic Combinatorics
        I, 2.2).  Refused past the array limit before anything is counted.
        """
        c = self.n_orbitals
        refuse_past_limit(c**3, f"the structure constants of {c} orbitals")
        flat = (self._pair_codes * c + np.arange(c)[:, None]).ravel()
        return np.bincount(flat, minlength=c**3).reshape(c, c, c)

    @cached_property
    def _pair_slots(self) -> tuple[np.ndarray, ...]:
        """Each pair code's halves i = o(0, z), j = o(z, w_k), and their slots k c + i, k c + j."""
        c = self.n_orbitals
        first, second = np.divmod(self._pair_codes, c)
        row = c * np.arange(c)[:, None]
        return first.ravel(), second.ravel(), (first + row).ravel(), (second + row).ravel()

    def left_multiplication(self, x: np.ndarray) -> np.ndarray:
        """L_x[k, j] = sum_i x_i p[i, j, k], the matrix of y -> x y on coefficients.

        Summed over i, p[i, j, k] counts each z with o(z, w_k) = j once,
        weighted by x[o(0, z)]; so L_x is one weighted count of the pair
        codes, O(n c), with no c^3 tensor.  Real and imaginary parts are
        counted apart, each entry a sum of at most max(valencies) terms.
        """
        c = self.n_orbitals
        first, _, _, second_slots = self._pair_slots
        weights = x[first]
        real = np.bincount(second_slots, weights.real, minlength=c * c)
        imag = np.bincount(second_slots, weights.imag, minlength=c * c)
        return (real + 1j * imag).reshape(c, c)

    def commutator(self, y) -> np.ndarray:
        """C_y = R_y - L_y, the matrix of x -> x y - y x on integer coefficients, exactly.

        R_y[k, i] = sum_j y_j p[i, j, k] counts the codes of row k at their
        first half, weighted by y at their second; L_y swaps the halves.
        Each sum is at most max|y| max(valencies) in size, so C_y is counted
        in int64 while that is below 2^62, and in Python integers beyond.
        """
        first, second, first_slots, second_slots = self._pair_slots
        y = np.array(y, dtype=object)  # Python integers: a list of large ones would become floats
        y = y.astype(np.int64 if abs(y).max() * max(self.valencies) < 2**62 else object)
        out = np.zeros(self.n_orbitals**2, dtype=y.dtype)
        np.add.at(out, first_slots, y[second])
        np.subtract.at(out, second_slots, y[first])
        return out.reshape(self.n_orbitals, -1)

    @cached_property
    def root_valencies(self) -> np.ndarray:
        return np.sqrt(np.asarray(self.valencies, dtype=np.float64))

    def symmetrized_multiplication(self, x: np.ndarray) -> np.ndarray:
        """S_x = D^(1/2) L_x D^(-1/2), D = diag(valencies): L_x in the basis A_i / sqrt(n k_i).

        That basis is orthonormal for <A, B> = tr(A B*), under which left
        multiplication by M* is the adjoint of left multiplication by M.  So
        x -> S_x is a faithful *-representation of the adjacency algebra:
        S of adjoint(x) is the conjugate transpose of S_x, and S_x has the
        eigenvalues and the 2-norm of x[orbital_of] (Bannai-Ito, Algebraic
        Combinatorics I, 2.2).
        """
        root_k = self.root_valencies
        return root_k[:, None] * self.left_multiplication(x) / root_k[None, :]

    def to_json_dict(self) -> dict:
        """Each orbital as its rows [x, columns y with (x, y) in it, ascending].

        One stable argsort per row groups the columns by orbital in
        ascending order; the per-row orbital counts cut it into runs.
        """
        n, c = self.point_count, self.n_orbitals
        cols = np.argsort(self.orbital_of, axis=1, kind="stable").tolist()
        counts = np.bincount(
            (self.orbital_of + c * np.arange(n)[:, None]).ravel(), minlength=n * c
        ).reshape(n, c)
        ends = np.zeros((n, c + 1), dtype=np.int64)
        np.cumsum(counts, axis=1, out=ends[:, 1:])
        ends = ends.tolist()
        orbitals = [
            [[x, cols[x][ends[x][i] : ends[x][i + 1]]] for x in range(n)] for i in range(c)
        ]
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
    pairs with the orbital of (y, 0) for any (0, y) in orbital i.  The
    given matrix is relabelled in place, row by row, so no second n x n
    array is formed.
    """
    labels, first_col, valency = np.unique(orbital_of[0], return_index=True, return_counts=True)
    order = np.lexsort((first_col, valency))
    relabel = np.empty(int(labels[-1]) + 1, dtype=np.int64)
    relabel[labels[order]] = np.arange(len(order))
    for row in orbital_of:
        row[...] = relabel[row]
    return SchurianScheme(
        point_count=len(orbital_of),
        orbital_of=orbital_of,
        valencies=tuple(int(k) for k in valency[order]),
        transpose_pairing=tuple(int(i) for i in orbital_of[first_col[order], 0]),
    )


def refuse_orbital_matrix_past_limit(n: int) -> None:
    """Refuse an n x n orbital matrix past the array limit, before n points are listed."""
    refuse_past_limit(n * n, f"the orbital matrix of {n} points")


def scheme_from_action(action: GroupAction) -> SchurianScheme:
    """Orbital partition of X x X under the diagonal action.

    Each orbital meets row 0 in one suborbit, an orbit of the stabilizer
    G_0.  If t_x takes 0 to x, then (x, y) lies in the orbital of
    (0, t_x^-1(y)); so the labelling is the suborbits, found from the
    Schreier generators of one transversal of 0, gathered row by row
    through the inverse transversal.  Orbital 0 is the diagonal; the rest are
    ordered by (valency, least column in row 0) so downstream indexing is
    reproducible.  The n x n orbital matrix is refused past the array limit
    before the transversal, whose inverse table is no larger, is built.
    """
    if not is_transitive(action):
        raise InputError("scheme construction requires a transitive action")
    n = action.point_count
    refuse_orbital_matrix_past_limit(n)
    transversal = _generator_transversal(action.group, 0)
    suborbit = _suborbits(transversal.schreier_generators(), n)
    # each inverse goes once its row is gathered, as each representative
    # went once the scan passed it: n^2 entries of them at most, not 2 n^2
    orbital_of = np.empty((n, n), dtype=np.int64)
    invs = transversal.invs
    for x in range(n):
        orbital_of[x] = suborbit[invs[x]]
        invs[x] = None
    return _canonical_scheme(orbital_of)


def is_commutative(scheme: SchurianScheme) -> bool:
    """Exact Gelfand test: A_i A_j == A_j A_i for all i < j.

    p[i, j, k] = p[j, i, k] for all i, j, k exactly when each row of the
    pair codes holds the same codes with i and j swapped; no c^3 tensor
    is formed.
    """
    c = scheme.n_orbitals
    codes = scheme._pair_codes
    swapped = np.sort(codes % c * c + codes // c, axis=1)
    return bool(np.array_equal(codes, swapped))


def conjugacy_class_scheme(group: PermutationGroup) -> SchurianScheme:
    """Scheme on the group's elements whose orbitals are conjugacy class sums.

    It is the scheme of G x G acting on G by x -> g x h^-1: that action
    takes (x, y) to (g x h^-1, g y h^-1) and x y^-1 to g x y^-1 g^-1, so a
    pair (x, y) lies in orbital i exactly when x y^-1 belongs to the i-th
    conjugacy class.  The result is always commutative.
    """
    refuse_orbital_matrix_past_limit(group.order)
    elems = group.elements()
    left = [g.__mul__ for g in group.generators]
    right = [lambda x, h=g.inverse(): x * h for g in group.generators]
    return scheme_from_action(action_on(elems, operator.attrgetter("images"), left + right))


def stable_matrix_check(scheme: SchurianScheme, matrix) -> bool:
    """True iff the matrix is constant on every orbital.

    Exact for an object array (Fraction or int entries), within an absolute
    STABLE_TOL otherwise.  Each orbital is compared with its entry in row 0.
    """
    n = scheme.point_count
    try:
        values = np.asarray(matrix)
    except ValueError:
        raise InputError("matrix rows must all have the same length") from None
    if values.shape != (n, n):
        raise InputError(f"matrix shape {values.shape} does not match point count {n}")
    slack = 0 if values.dtype == object else STABLE_TOL
    reference = values[0, scheme.columns][scheme.orbital_of]
    return bool(np.all(abs(values - reference) <= slack))
