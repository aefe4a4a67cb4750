"""Frames, Gram matrices, coherence bounds, and projective reduction.

Everything on the continuous side of the pipeline: recovering synthesis
matrices from Gram matrices, certifying equiangular tight frames,
evaluating the Welch / orthoplex / Levenstein bounds, Naimark
complements, harmonic frames from dual subsets, and Gram matrices of
matrix-group orbits.

A Gram matrix here is the matrix of inner products G[i, j] = <phi_j, phi_i>,
positive semidefinite and Hermitian; the frame is Parseval exactly when G
is a projection, and tight when G is a scalar multiple of one.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field
from math import sqrt
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError

HERMITIAN_TOL = 1e-12


@dataclass
class GramMatrix:
    """Hermitian PSD matrix of pairwise inner products.

    `exactness` records how the entries were produced: plain floating
    point, exact rationals, or rational multiples of roots of unity.  When
    exact entries are available, `exact_entries` holds hashable per-entry
    tokens (used for exact value-coloring in the symmetry module).
    """

    n: int
    entries: np.ndarray
    exactness: str = "float"
    # nested sequence of hashable per-entry tokens, same shape as entries
    exact_entries: Optional[Sequence[Sequence]] = field(default=None, repr=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.complex128)
        if self.entries.shape != (self.n, self.n):
            raise InputError(f"entries shape {self.entries.shape} does not match n={self.n}")
        if np.abs(self.entries - self.entries.conj().T).max() > HERMITIAN_TOL:
            raise InputError("Gram matrix is not Hermitian within 1e-12")
        if self.exactness not in ("float", "rational", "root_of_unity"):
            raise InputError(f"unknown exactness {self.exactness!r}")

    @staticmethod
    def from_entries(entries, exactness: str = "float", exact_entries=None) -> "GramMatrix":
        entries = np.asarray(entries, dtype=np.complex128)
        return GramMatrix(entries.shape[0], entries, exactness, exact_entries)

    def is_real(self, tol: float = 1e-10) -> bool:
        return float(np.abs(self.entries.imag).max(initial=0.0)) <= tol

    def normalized(self) -> "GramMatrix":
        """Rescale to unit diagonal (unit-norm frame vectors)."""
        diag = np.real(np.diag(self.entries))
        if np.any(diag <= 0):
            raise InputError("normalization requires a strictly positive diagonal")
        scale = 1.0 / np.sqrt(diag)
        return GramMatrix.from_entries(self.entries * np.outer(scale, scale))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                [[float(z.real), float(z.imag)] for z in row] for row in self.entries
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "GramMatrix":
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise InputError("Gram JSON needs 'n' and 'entries'")
        try:
            n = int(data["n"])
            entries = np.array(
                [[complex(re, im) for re, im in row] for row in data["entries"]],
                dtype=np.complex128,
            )
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed Gram JSON: {exc}") from None
        return GramMatrix(n, entries)


@dataclass
class FrameVectors:
    """Synthesis matrix whose columns are the frame vectors."""

    d: int
    n: int
    synthesis: np.ndarray

    def gram(self) -> GramMatrix:
        return GramMatrix.from_entries(self.synthesis.conj().T @ self.synthesis)

    def is_real(self, tol: float = 1e-9) -> bool:
        return float(np.abs(self.synthesis.imag).max(initial=0.0)) <= tol


def vectors_from_gram(gram: GramMatrix, tol: float = 1e-9) -> FrameVectors:
    """Recover a d x n synthesis matrix from the Gram matrix.

    d is the numerical rank; the synthesis is sqrt(Lambda) V* restricted
    to the nonzero eigenpairs, determined up to left unitary equivalence.
    """
    eigvals, eigvecs = np.linalg.eigh(gram.entries)
    radius = float(np.abs(eigvals).max(initial=0.0))
    if radius == 0.0:
        return FrameVectors(0, gram.n, np.zeros((0, gram.n), dtype=np.complex128))
    if eigvals.min() < -tol * radius:
        raise InputError(f"matrix is not PSD: min eigenvalue {eigvals.min():.3e}")
    keep = eigvals > tol * radius
    vals = eigvals[keep]
    vecs = eigvecs[:, keep]
    synthesis = np.sqrt(vals)[:, None] * vecs.conj().T
    residual = np.abs(synthesis.conj().T @ synthesis - gram.entries).max()
    if residual > 1e-9 * max(1.0, radius):
        raise NumericError(f"Gram factorization residual {residual:.3e}")
    return FrameVectors(int(keep.sum()), gram.n, synthesis)


def gram_rank(gram: GramMatrix, tol: float = 1e-8) -> int:
    eigvals = np.linalg.eigvalsh(gram.entries)
    radius = float(np.abs(eigvals).max(initial=0.0))
    if radius == 0.0:
        return 0
    return int((eigvals > tol * radius).sum())


def coherence(gram: GramMatrix) -> float:
    """Largest |<phi_i, phi_j>| / (|phi_i| |phi_j|) over distinct i, j."""
    diag = np.real(np.diag(gram.entries))
    if np.any(diag <= 0):
        raise InputError("coherence requires a strictly positive diagonal")
    scale = 1.0 / np.sqrt(diag)
    normalized = np.abs(gram.entries) * np.outer(scale, scale)
    np.fill_diagonal(normalized, 0.0)
    return float(normalized.max())


def welch_bound(n: int, d: int) -> float:
    if n < 2:
        raise InputError("Welch bound needs at least 2 vectors")
    if not 1 <= d <= n:
        raise InputError(f"dimension {d} must lie in 1..{n}")
    return sqrt((n - d) / (d * (n - 1)))


def secondary_bounds(n: int, d: int, field: str) -> tuple[Optional[float], Optional[float]]:
    """(orthoplex, levenstein) lower bounds, or None when inapplicable.

    Both kick in only past the absolute bound on the number of lines a
    d-dimensional space supports at the Welch level: n > d^2 over C and
    n > d(d+1)/2 over R.
    """
    if n < 2:
        raise InputError("bounds need at least 2 vectors")
    if not 1 <= d <= n:
        raise InputError(f"dimension {d} must lie in 1..{n}")
    if field not in ("real", "complex"):
        raise InputError(f"field must be 'real' or 'complex', got {field!r}")
    if field == "complex":
        applicable = n > d * d
        lev = sqrt((2 * n - d * d - d) / ((n - d) * (d + 1))) if applicable else None
    else:
        applicable = n > d * (d + 1) // 2
        lev = sqrt((3 * n - d * d - 2 * d) / ((n - d) * (d + 2))) if applicable else None
    orthoplex = 1.0 / sqrt(d) if applicable else None
    return orthoplex, lev


def _projection_scalar(entries: np.ndarray, tol: float) -> Optional[float]:
    """c such that G^2 = c G, or None; c is recovered from trace ratios."""
    tr = float(np.real(np.trace(entries)))
    if abs(tr) < tol:
        return None
    sq = entries @ entries
    c = float(np.real(np.trace(sq))) / tr
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(sq - c * entries).max() > tol * max(1.0, abs(c)) * scale:
        return None
    return c


def is_tight(gram: GramMatrix, tol: float = 1e-8) -> bool:
    """True iff the Gram matrix is a (nonzero) scalar multiple of a projection."""
    return _projection_scalar(gram.entries, tol) is not None


def is_etf(gram: GramMatrix, tol: float = 1e-8) -> bool:
    """Equiangular tight frame test on a Gram matrix.

    Three features, all within tol: scalar multiple of a projection,
    constant diagonal, constant modulus off the diagonal.  An identity
    matrix (orthonormal basis) passes with off-diagonal modulus 0.
    """
    entries = gram.entries
    n = gram.n
    diag = np.real(np.diag(entries))
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(diag - diag[0]).max() > tol * scale or diag[0] <= 0:
        return False
    if _projection_scalar(entries, tol) is None:
        return False
    if n == 1:
        return True
    off = np.abs(entries)[~np.eye(n, dtype=bool)]
    return bool((off.max() - off.min()) <= tol * scale)


def naimark_complement(gram: GramMatrix) -> GramMatrix:
    """I - G for a projection G: the Gram of the complementary Parseval frame."""
    entries = gram.entries
    if np.abs(entries @ entries - entries).max() > 1e-8 * max(1.0, float(np.abs(entries).max())):
        raise InputError("Naimark complement requires a projection Gram matrix")
    return GramMatrix.from_entries(np.eye(gram.n) - entries)


def projective_reduce(gram: GramMatrix, tol: float = 1e-7) -> tuple[GramMatrix, list[int]]:
    """Collapse frame vectors that agree up to a unimodular scalar.

    Columns x and y are equivalent when column y is a unimodular multiple
    of column x; each class keeps its lowest-index representative.
    Returns the reduced Gram and the map point -> representative index.
    Unequal class sizes break the group-frame pattern and raise a warning.
    """
    entries = gram.entries
    n = gram.n
    diag = np.real(np.diag(entries))
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(diag - diag[0]).max() > tol * scale:
        raise InputError("projective reduction requires a constant diagonal")
    class_map = [-1] * n
    reps: list[int] = []
    for x in range(n):
        if class_map[x] >= 0:
            continue
        class_map[x] = x
        reps.append(x)
        col_x = entries[:, x]
        anchor = int(np.argmax(np.abs(col_x)))
        for y in range(x + 1, n):
            if class_map[y] >= 0:
                continue
            col_y = entries[:, y]
            ax, ay = col_x[anchor], col_y[anchor]
            if abs(abs(ax) - abs(ay)) > tol * scale or abs(ax) <= tol * scale:
                continue
            alpha = ay / ax
            if abs(abs(alpha) - 1.0) > tol:
                continue
            if np.abs(col_y - alpha * col_x).max() <= tol * scale:
                class_map[y] = x
        # a vector proportional to nothing keeps its own singleton class
    sizes = [class_map.count(r) for r in reps]
    if len(set(sizes)) > 1:
        warnings.warn("projective reduction classes have unequal sizes", stacklevel=2)
    sub = entries[np.ix_(reps, reps)]
    return GramMatrix.from_entries(sub), class_map


def _dual_value(moduli: Sequence[int], alpha: Sequence[int], g: Sequence[int]) -> complex:
    phase = sum(a * x / m for a, x, m in zip(alpha, g, moduli))
    return np.exp(2j * np.pi * phase)


def _check_dual_elements(moduli: Sequence[int], subset) -> list[tuple[int, ...]]:
    out = []
    for alpha in subset:
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != len(moduli) or any(not 0 <= a < m for a, m in zip(alpha, moduli)):
            raise InputError(f"invalid dual element {alpha} for moduli {tuple(moduli)}")
        out.append(alpha)
    if not out:
        raise InputError("the dual subset must be nonempty")
    return out


def harmonic_gram(moduli: Sequence[int], subset: Iterable[Sequence[int]]) -> GramMatrix:
    """Gram matrix of the harmonic frame cut out by a subset of characters.

    Over G = Z_{m_1} x ... x Z_{m_t}, entry (g, h) is
    (1/|G|) sum_{alpha in D} alpha(h) conj(alpha(g)): the Gram of the
    rows of the character table selected by D, a rank-|D| projection.
    """
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise InputError("moduli must be positive")
    dual = _check_dual_elements(moduli, subset)
    elems = list(itertools.product(*[range(m) for m in moduli]))
    size = len(elems)
    table = np.array(
        [[_dual_value(moduli, alpha, g) for g in elems] for alpha in dual],
        dtype=np.complex128,
    )
    entries = table.conj().T @ table / size
    entries = (entries + entries.conj().T) / 2
    return GramMatrix.from_entries(entries)


def difference_set_check(moduli: Sequence[int], subset: Iterable[Sequence[int]]) -> tuple[bool, Optional[int]]:
    """Count representations gamma = alpha - beta over the subset.

    True with the common count when every nonzero gamma has the same
    number of representations (the harmonic-ETF criterion).
    """
    moduli = [int(m) for m in moduli]
    dual = _check_dual_elements(moduli, subset)
    counts: dict[tuple[int, ...], int] = {}
    for alpha in dual:
        for beta in dual:
            gamma = tuple((a - b) % m for a, b, m in zip(alpha, beta, moduli))
            counts[gamma] = counts.get(gamma, 0) + 1
    size = 1
    for m in moduli:
        size *= m
    zero = tuple(0 for _ in moduli)
    values = {counts.get(gamma, 0) for gamma in _all_tuples(moduli) if gamma != zero}
    if size == 1:
        return True, len(dual)
    if len(values) == 1:
        return True, values.pop()
    return False, None


def _all_tuples(moduli: Sequence[int]):
    return itertools.product(*[range(m) for m in moduli])


def matrix_key(m: np.ndarray) -> bytes:
    """Hashable key of a complex array, its entries rounded to 7 decimals."""
    return (np.round(m.real, 7) + 0.0).tobytes() + (np.round(m.imag, 7) + 0.0).tobytes()


def matrix_group_closure(
    generators: Sequence[np.ndarray], cap: int, tol: float
) -> list[np.ndarray]:
    """Elements of the group generated by one or more unitary matrices, identity first.

    Breadth-first closure deduplicated by `matrix_key`; every new element
    must stay unitary within 100*tol, and more than `cap` elements raise.
    """
    dim = generators[0].shape[0]
    ident = np.eye(dim, dtype=np.complex128)
    elements = [ident]
    seen = {matrix_key(ident)}
    frontier = [ident]
    while frontier:
        new_frontier = []
        for x in frontier:
            for g in generators:
                y = g @ x
                k = matrix_key(y)
                if k not in seen:
                    if len(elements) >= cap:
                        raise ResourceError(f"matrix group closure exceeded cap {cap}")
                    if np.abs(y.conj().T @ y - ident).max() > 100 * tol:
                        raise NumericError("closure element lost unitarity")
                    seen.add(k)
                    elements.append(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return elements


def matrix_group_orbit_gram(
    generators: Sequence[np.ndarray],
    v: np.ndarray,
    order_cap: int = 100_000,
    tol: float = 1e-9,
) -> GramMatrix:
    """Gram matrix of the orbit of v under the group generated by unitaries.

    The group is closed by `matrix_group_closure`; distinct orbit vectors
    are kept in discovery order.
    """
    gens = [np.asarray(g, dtype=np.complex128) for g in generators]
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    dim = v.shape[0]
    for g in gens:
        if g.shape != (dim, dim):
            raise InputError("generator shape does not match the vector dimension")
        if np.abs(g.conj().T @ g - np.eye(dim)).max() > tol:
            raise InputError("generator is not unitary within tolerance")
    vectors = []
    vec_seen = set()
    # no generators means the trivial group
    for g in matrix_group_closure(gens or [np.eye(dim, dtype=np.complex128)], order_cap, tol):
        w = g @ v
        k = matrix_key(w)
        if k not in vec_seen:
            vec_seen.add(k)
            vectors.append(w)
    synthesis = np.column_stack(vectors)
    entries = synthesis.conj().T @ synthesis
    entries = (entries + entries.conj().T) / 2
    return GramMatrix.from_entries(entries)


def gap_clusters(values: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Indices into `values`, split where consecutive sorted values differ by more than threshold.

    The one value clusterer for real values: eigenvalue clusters, entry
    moduli and coherence levels all go through it.
    """
    order = np.argsort(values)
    return np.split(order, np.nonzero(np.diff(values[order]) > threshold)[0] + 1)


def distinct_moduli(gram: GramMatrix, gap: float = 1e-7) -> list[float]:
    """Sorted distinct off-diagonal entry moduli, clustered at the given gap."""
    n = gram.n
    if n < 2:
        return []
    off = np.abs(gram.entries)[~np.eye(n, dtype=bool)]
    return [float(off[idx].mean()) for idx in gap_clusters(off, gap)]


@dataclass
class PackingReport:
    """Coherence of a packing measured against the standard lower bounds."""

    n: int
    d: int
    coherence: float
    welch: float
    welch_met: bool
    orthoplex_applicable: bool
    orthoplex_met: bool
    levenstein_applicable: bool
    levenstein_met: bool
    is_etf: bool
    is_tight: bool
    field: str
    distinct_offdiag_moduli: list[float]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "coherence": self.coherence,
            "welch": self.welch,
            "welch_met": self.welch_met,
            "orthoplex_applicable": self.orthoplex_applicable,
            "orthoplex_met": self.orthoplex_met,
            "levenstein_applicable": self.levenstein_applicable,
            "levenstein_met": self.levenstein_met,
            "is_etf": self.is_etf,
            "is_tight": self.is_tight,
            "field": self.field,
            "distinct_offdiag_moduli": self.distinct_offdiag_moduli,
        }


def packing_report(gram: GramMatrix, field: Optional[str] = None, tol: float = 1e-8) -> PackingReport:
    """Evaluate a Gram matrix as a line packing.

    The ambient dimension is the numerical rank; coherence is taken after
    unit normalization, and a bound counts as met when coherence sits
    within tol of it.
    """
    n = gram.n
    d = gram_rank(gram)
    if field is None:
        field = "real" if gram.is_real() else "complex"
    coh = coherence(gram) if n >= 2 else 0.0
    welch = welch_bound(n, d) if n >= 2 and d >= 1 else 0.0
    orthoplex, lev = secondary_bounds(n, d, field) if n >= 2 and d >= 1 else (None, None)
    return PackingReport(
        n=n,
        d=d,
        coherence=coh,
        welch=welch,
        welch_met=bool(abs(coh - welch) <= tol),
        orthoplex_applicable=orthoplex is not None,
        orthoplex_met=bool(orthoplex is not None and abs(coh - orthoplex) <= tol),
        levenstein_applicable=lev is not None,
        levenstein_met=bool(lev is not None and abs(coh - lev) <= tol),
        is_etf=is_etf(gram, tol),
        is_tight=is_tight(gram, tol),
        field=field,
        distinct_offdiag_moduli=distinct_moduli(gram),
    )
