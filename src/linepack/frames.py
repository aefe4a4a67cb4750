"""Frames, Gram matrices, coherence bounds, and projective reduction.

Everything on the continuous side of the pipeline: certifying equiangular
tight frames, evaluating the Welch / orthoplex / Levenstein bounds, Naimark
complements, harmonic frames from dual subsets, and Gram matrices of
matrix-group orbits.

A Gram matrix here is the matrix of inner products G[i, j] = <phi_j, phi_i>,
positive semidefinite and Hermitian; the frame is Parseval exactly when G
is a projection, and tight when G is a scalar multiple of one.
"""

from __future__ import annotations

import itertools
import warnings
from collections import Counter
from dataclasses import dataclass, fields
from dataclasses import field as dataclass_field
from functools import cached_property, partial
from math import prod, sqrt
from typing import TYPE_CHECKING, Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError, refuse_past_limit

if TYPE_CHECKING:
    from .scheme import SchurianScheme

# Every tolerance of the package, one name each: no other module writes a
# 1e-k literal (tests/test_tolerances.py).  Only `reduce` and `symmetry`,
# whose Gram comes from a file, take a --tol (defaulting to REDUCE_TOL and
# COLOR_TOL); every other command's input is exact.
HERMITIAN_TOL = 1e-12
RANK_TOL = 1e-8  # eigenvalues above RANK_TOL * spectral radius count toward the rank
REAL_TOL = 1e-10  # a Gram whose imaginary parts stay within it is real
MODULI_GAP = 1e-7  # off-diagonal moduli closer than this are one distinct modulus
CLOSURE_TOL = 1e-9  # unitarity slack of matrix group closures
REPORT_TOL = 1e-8  # tight, ETF and bound-met tests of a packing report; scan coherence ties
REDUCE_TOL = 1e-7  # moduli and phases that `projective_reduce` takes as equal
COLOR_TOL = 1e-7  # entry values that share a color in the symmetry search
CLUSTER_TOL = 1e-8  # eigenvalue gap, relative to the spectral radius, between idempotents
IDEMPOTENT_TOL = 1e-8  # residual of the exact idempotent, orthogonality and sum checks
COEFFICIENT_TOL = 1e-6  # idempotent order slack, integral-trace test and trivial J/n match
STABLE_TOL = 1e-9  # entry slack of `stable_matrix_check` on a float matrix
_EPS = float(np.finfo(np.float64).eps)


def complex_pairs(values: np.ndarray) -> list:
    """The JSON form of a complex array: nested lists, each entry a [re, im] float pair."""
    return np.stack((values.real, values.imag), -1).tolist()


@dataclass(frozen=True)
class OrbitalForm:
    """Entries of a Gram matrix that is constant on the orbitals of a scheme.

    Entry (a, b) is x[orbital_of[a, b]].  A whole form labels X x X with
    the orbitals of its transitive `scheme`, so row 0 meets every label and
    one pair (0, v) of orbital i stands for all of it; `scheme.columns[i]`
    is the first such v.  A form that `projective_reduce` cut down to class
    representatives keeps their rows and columns of the whole form's
    labels, has no `scheme`, and carries `certificate` = (c, rho):
    ||G^2 - c G||_2 <= rho, inherited from the whole form, which measures
    its own (`_square_certificate`).  Label 0 is the diagonal in both.
    """

    orbital_of: np.ndarray
    x: np.ndarray
    scheme: Optional["SchurianScheme"] = None
    certificate: Optional[tuple[float, float]] = None


class GramMatrix:
    """Hermitian PSD matrix of pairwise inner products.

    A Gram made by `from_orbitals` holds its `orbital` form and forms the
    dense `entries` only when they are read.
    """

    def __init__(self, n: int, entries):
        self.n = n
        self._entries = np.asarray(entries, dtype=np.complex128)
        if self._entries.shape != (self.n, self.n):
            raise InputError(f"entries shape {self._entries.shape} does not match n={self.n}")
        if np.abs(self._entries - self._entries.conj().T).max() > HERMITIAN_TOL:
            raise InputError(f"Gram matrix is not Hermitian within {HERMITIAN_TOL:g}")
        self.orbital: Optional[OrbitalForm] = None

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = self.orbital.x[self.orbital.orbital_of]
        return self._entries

    @staticmethod
    def _of_form(form: OrbitalForm) -> "GramMatrix":
        gram = GramMatrix.__new__(GramMatrix)
        gram.n = len(form.orbital_of)
        gram._entries = None
        gram.orbital = form
        return gram

    @staticmethod
    def from_orbitals(scheme: "SchurianScheme", x) -> "GramMatrix":
        """The Gram x[scheme.orbital_of], held without dense entries.

        Hermitian symmetry is checked on the coefficients, through
        `scheme.adjoint`.
        """
        x = np.asarray(x, dtype=np.complex128)
        if x.shape != (scheme.n_orbitals,):
            raise InputError(f"{x.shape} coefficients for a scheme of {scheme.n_orbitals} orbitals")
        if np.abs(x - scheme.adjoint(x)).max() > HERMITIAN_TOL:
            raise InputError(f"Gram matrix is not Hermitian within {HERMITIAN_TOL:g}")
        return GramMatrix._of_form(OrbitalForm(scheme.orbital_of, x, scheme=scheme))

    @staticmethod
    def from_entries(entries) -> "GramMatrix":
        entries = np.asarray(entries, dtype=np.complex128)
        return GramMatrix(entries.shape[0], entries)

    def normalized(self) -> "GramMatrix":
        """Rescale to unit diagonal (unit-norm frame vectors)."""
        diag = np.real(np.diag(self.entries))
        if np.any(diag <= 0):
            raise InputError("normalization requires a strictly positive diagonal")
        scale = 1.0 / np.sqrt(diag)
        return GramMatrix.from_entries(self.entries * np.outer(scale, scale))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "entries": complex_pairs(self.entries)}

    @staticmethod
    def from_json_dict(data: dict) -> "GramMatrix":
        if not isinstance(data, dict) or "n" not in data or "entries" not in data:
            raise InputError("Gram JSON needs 'n' and 'entries'")
        if type(data["n"]) is not int:
            raise InputError(f"Gram JSON 'n' must be an integer, got {data['n']!r}")
        try:
            entries = np.array(
                [[complex(re, im) for re, im in row] for row in data["entries"]],
                dtype=np.complex128,
            )
            # complex() reads a JSON boolean as 0 or 1, but it is no number
            if any(type(v) is bool for row in data["entries"] for pair in row for v in pair):
                raise TypeError("an entry is a boolean")
        except (TypeError, ValueError) as exc:
            raise InputError(f"malformed Gram JSON: {exc}") from None
        # json.loads reads NaN and Infinity, which no comparison below would catch
        if not np.isfinite(entries).all():
            raise InputError("Gram JSON entries must be finite")
        return GramMatrix(data["n"], entries)


def gram_rank(gram: GramMatrix) -> int:
    """Number of eigenvalues above RANK_TOL times the spectral radius."""
    eigvals = np.linalg.eigvalsh(gram.entries)
    radius = float(np.abs(eigvals).max(initial=0.0))
    return int((eigvals > RANK_TOL * radius).sum())


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


def _tightness(gram: GramMatrix) -> tuple[Optional[float], float, bool]:
    """(c, residual, etf): the tight and ETF tests, sharing one G @ G.

    c is the scalar with G^2 = c G within REPORT_TOL, recovered from trace
    ratios, or None when G is not a nonzero multiple of a projection;
    residual is max |G^2 - c G| (inf when tr G is below REPORT_TOL).  etf
    adds to tightness a constant positive diagonal and a constant
    off-diagonal modulus, within REPORT_TOL.
    """
    entries = gram.entries
    moduli = np.abs(entries)
    scale = max(1.0, float(moduli.max()))
    tr = float(np.real(np.trace(entries)))
    if abs(tr) < REPORT_TOL:
        return None, np.inf, False
    sq = entries @ entries
    c = float(np.real(np.trace(sq))) / tr
    residual = float(np.abs(sq - c * entries).max())
    if residual > REPORT_TOL * max(1.0, abs(c)) * scale:
        return None, residual, False
    diag = np.real(np.diag(entries))
    if np.abs(diag - diag[0]).max() > REPORT_TOL * scale or diag[0] <= 0:
        return c, residual, False
    off = moduli[~np.eye(gram.n, dtype=bool)]
    return c, residual, bool(off.size == 0 or off.max() - off.min() <= REPORT_TOL * scale)


def _trace_rank(gram: GramMatrix, c: Optional[float], residual: float) -> Optional[int]:
    """`gram_rank` of G read off tr G / c, when G^2 = c G certifies it; else None.

    Every eigenvalue l of G has |l| |l - c| <= ||G^2 - c G||_2 <= n * residual,
    so it lies within spread = 2 n residual / c of 0 or of c.  When spread is
    at most half of gram_rank's threshold RANK_TOL * c, gram_rank counts
    exactly the eigenvalues near c, and tr G / c is that count to within
    n * spread / c <= n * RANK_TOL / 2, far below 1/2 for any dense n.
    """
    if c is None or c <= 0:
        return None
    spread = 2 * gram.n * residual / c
    if spread > 0.5 * RANK_TOL * c:
        return None
    return round(float(np.real(np.trace(gram.entries))) / c)


def is_tight(gram: GramMatrix) -> bool:
    """True iff the Gram matrix is a nonzero scalar multiple of a projection, within REPORT_TOL."""
    return _tightness(gram)[0] is not None


def is_etf(gram: GramMatrix) -> bool:
    """Equiangular tight frame test on a Gram matrix.

    Three features, all within REPORT_TOL: scalar multiple of a projection,
    constant diagonal, constant modulus off the diagonal.  An identity
    matrix (orthonormal basis) passes with off-diagonal modulus 0.
    """
    return _tightness(gram)[2]


def naimark_complement(gram: GramMatrix) -> GramMatrix:
    """I - G for a projection G: the Gram of the complementary Parseval frame."""
    entries = gram.entries
    scale = max(1.0, float(np.abs(entries).max()))
    if np.abs(entries @ entries - entries).max() > REPORT_TOL * scale:
        raise InputError("Naimark complement requires a projection Gram matrix")
    return GramMatrix.from_entries(np.eye(gram.n) - entries)


def projective_reduce(gram: GramMatrix, tol: float = REDUCE_TOL) -> tuple[GramMatrix, list[int]]:
    """Collapse frame vectors that agree up to a unimodular scalar.

    Columns x and y are equivalent when column y is a unimodular multiple
    of column x; each class keeps its lowest-index representative.  The
    anchor, modulus and phase tests of every pair x < y run as one numpy
    pass over the n x n moduli: at the anchor a, the row of column x's
    largest modulus, |G[a, y]| must match |G[a, x]| within tol * scale,
    |G[a, x]| must exceed it, and alpha = G[a, y] / G[a, x] must be
    unimodular within tol.  The greedy pass over the representatives then
    compares whole columns, G[:, y] = alpha G[:, x], only for the pairs
    that passed.  A Gram with a whole orbital form is reduced per orbital
    instead (`_reduce_orbitals`): its classes are the blocks of the closed
    subset of collapsed orbitals, and it falls back to this dense path when
    a test lands within 10x of its tolerance or that subset is not closed.
    Returns the reduced Gram and the map point -> representative index.
    Unequal class sizes break the group-frame pattern and raise a warning.
    """
    if gram.orbital is not None and gram.orbital.scheme is not None:
        reduced = _reduce_orbitals(gram.orbital, tol)
        if reduced is not None:
            return reduced
    entries = gram.entries
    n = gram.n
    moduli = np.abs(entries)
    diag = np.real(np.diag(entries))
    scale = max(1.0, float(moduli.max()))
    if np.abs(diag - diag[0]).max() > tol * scale:
        raise InputError("projective reduction requires a constant diagonal")
    points = np.arange(n)
    anchor = np.argmax(moduli, axis=0)
    anchor_mod = moduli[anchor, points]
    # candidates (x, y), y > x: column y's modulus at column x's anchor matches
    close = np.abs(anchor_mod[:, None] - moduli[anchor, :]) <= tol * scale
    close &= (anchor_mod > tol * scale)[:, None]
    xs, ys = np.nonzero(np.triu(close, 1))
    alpha = entries[anchor[xs], ys] / entries[anchor[xs], xs]
    unimodular = np.abs(np.abs(alpha) - 1.0) <= tol
    xs, ys, alpha = xs[unimodular], ys[unimodular], alpha[unimodular]
    class_map = points.copy()
    claimed = np.zeros(n, dtype=bool)
    # xs is sorted, so each representative's candidates form one run
    starts = np.flatnonzero(np.diff(xs, prepend=-1))
    for lo, hi in zip(starts, np.append(starts[1:], xs.size)):
        x = xs[lo]
        if claimed[x]:
            continue
        free = ~claimed[ys[lo:hi]]
        y, a = ys[lo:hi][free], alpha[lo:hi][free]
        residual = np.abs(entries[:, y] - a * entries[:, x, None]).max(axis=0)
        won = y[residual <= tol * scale]
        class_map[won] = x
        claimed[won] = True
    # a vector proportional to nothing keeps its own singleton class
    reps = np.flatnonzero(~claimed)
    sizes = np.bincount(class_map)[reps]
    if sizes.min() != sizes.max():
        warnings.warn("projective reduction classes have unequal sizes", stacklevel=2)
    sub = entries[np.ix_(reps, reps)]
    return GramMatrix.from_entries(sub), class_map.tolist()


def _decisive(values: np.ndarray, threshold: float) -> Optional[np.ndarray]:
    """values <= threshold, or None when one of them lies within 10x of threshold."""
    passed = values <= threshold / 10
    if np.any(~passed & (values <= threshold * 10)):
        return None
    return passed


def _square_certificate(form: OrbitalForm) -> tuple[float, float]:
    """(c, rho) with ||G^2 - c G||_2 <= rho, for a whole orbital form with x_0 > 0.

    c = (G^2)[0, 0] / x_0 = sum_i k_i |x_i|^2 / x_0.  S = S_x, the scheme's
    `symmetrized_multiplication`, keeps the 2-norm, so ||G^2 - c G||_2
    = ||S^2 - c S||_2 <= ||S^2 - c S||_F, one product of m x m matrices
    over m orbitals.  Rounding: |G| has row sums a = sum_i k_i |x_i|, which
    bounds ||S||, || |S| || and ||S_|x| ||; each entry of L_x sums at most
    K = max k_i terms before its scaling by D^(+-1/2), so the computed S is
    within (K + 3) eps S_|x|, which moves S^2 - c S by (K + 3) eps a (2 a + c)
    in 2-norm; the product and the difference add (m + 3) eps a (a + c), and
    the Frobenius sum a factor 1 + m^2 eps.  Counting eps for u = eps / 2
    covers the second-order terms.
    """
    scheme, x = form.scheme, form.x
    k, absx = np.asarray(scheme.valencies, dtype=np.float64), np.abs(x)
    c, a = float(k @ absx**2) / float(x[0].real), float(k @ absx)
    s = scheme.symmetrized_multiplication(x)
    m = len(x)
    rounding = (2 * max(scheme.valencies) + m + 9) * _EPS * a * (a + c)
    return c, (1 + m * m * _EPS) * float(np.linalg.norm(s @ s - c * s)) + rounding


def _reduce_orbitals(form: OrbitalForm, tol: float) -> Optional[tuple[GramMatrix, list[int]]]:
    """`projective_reduce`'s tests run once per orbital of a whole form.

    Group invariance lets the pair (0, v_i), v_i the first column of
    orbital i in row 0, decide every pair of orbital i, so the anchor,
    modulus, phase and column-residual tests cost O(n) per orbital.  The
    collapsed orbitals S, with 0, relate the points of one class exactly
    when S is closed: its own adjoint, with A_S A_S, one exact count of the
    pair codes, zero outside S (Zieschang, 2005).  The classes are then
    blocks of one size, each read off the row of its lowest-index member.
    Returns None, leaving the decision to the dense path, when x_0 <= 0, a
    test lands within 10x of its tolerance or S is not closed.

    The reduced form inherits the certificate ||G^2 - c G||_2 <= rho as
    (c / k, rho / k + dropped), for classes of k points.  On the
    representatives G^2 = G_red A A* G_red + G_red A E* + E A* G_red + E E*,
    where column z of A holds alpha_z and of E the residual e_z, with
    ||alpha_z| - 1| <= phase and |e_z| <= resid as measured, widened by eps
    and 3 eps max |x| for rounding.  Exact classes give A A* = k I, so
    k G_red^2 = c G_red.  Otherwise ||A A* - k I|| <= k (2 phase + phase^2),
    ||A|| <= sqrt(k) (1 + phase), ||E|| <= sqrt(k) n_red resid and ||G_red||
    <= g = c + rho / c, so dropped = g^2 (2 phase + phase^2)
    + n_red resid (2 g (1 + phase) + n_red resid).
    """
    of, x = form.orbital_of, form.x
    n = len(of)
    moduli = np.abs(x)
    scale = max(1.0, float(moduli.max()))
    anchor = int(np.argmax(moduli[of[:, 0]]))
    anchor_mod = moduli[of[anchor, 0]]
    if not (anchor_mod > 10 * tol * scale and x[0].real > 0):
        return None
    labels = np.arange(1, len(x))
    v = form.scheme.columns[labels]
    close = _decisive(np.abs(anchor_mod - moduli[of[anchor, v]]), tol * scale)
    if close is None:
        return None
    labels, v = labels[close], v[close]
    alpha = x[of[anchor, v]] / x[of[anchor, 0]]
    phase = np.abs(np.abs(alpha) - 1.0)
    unimodular = _decisive(phase, tol)
    if unimodular is None:
        return None
    labels, v = labels[unimodular], v[unimodular]
    alpha, phase = alpha[unimodular], phase[unimodular]
    resid = np.abs(x[of[:, v]] - alpha * x[of[:, 0, None]]).max(axis=0)
    parallel = _decisive(resid, tol * scale)
    if parallel is None:
        return None
    if not parallel.any():
        return GramMatrix._of_form(form), list(range(n))
    collapsed = np.zeros(len(x), dtype=bool)
    collapsed[0] = True
    collapsed[labels[parallel]] = True
    scheme, s = form.scheme, collapsed.astype(np.float64)
    square = scheme.left_multiplication(s) @ s
    if not np.array_equal(scheme.adjoint(s), s) or np.any(square[~collapsed]):
        return None
    class_map = np.full(n, -1)
    for y in range(n):
        if class_map[y] < 0:
            class_map[collapsed[of[y]]] = y
    reps = np.flatnonzero(class_map == np.arange(n))
    k = n // reps.size
    c, rho = _square_certificate(form)
    phase = float(phase[parallel].max()) + _EPS
    resid = float(resid[parallel].max()) + 3 * _EPS * float(moduli.max())
    g, n_red = c + rho / c, reps.size
    dropped = g**2 * (2 * phase + phase**2) + n_red * resid * (2 * g * (1 + phase) + n_red * resid)
    reduced = OrbitalForm(of[np.ix_(reps, reps)], x, certificate=(c / k, rho / k + dropped))
    return GramMatrix._of_form(reduced), class_map.tolist()


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
    repeated = [alpha for alpha, k in Counter(out).items() if k > 1]
    if repeated:
        raise InputError(f"dual element {repeated[0]} is repeated")
    return out


def harmonic_gram(moduli: Sequence[int], subset: Iterable[Sequence[int]]) -> GramMatrix:
    """Gram matrix of the harmonic frame cut out by a subset of characters.

    Over G = Z_{m_1} x ... x Z_{m_t}, entry (g, h) is
    (1/|G|) sum_{alpha in D} alpha(h) conj(alpha(g)): the Gram of the
    rows of the character table selected by D, a rank-|D| projection.
    The |G| x |G| Gram is refused past the array limit before G is listed.
    """
    moduli = [int(m) for m in moduli]
    if any(m < 1 for m in moduli):
        raise InputError("moduli must be positive")
    dual = _check_dual_elements(moduli, subset)
    size = prod(moduli)
    refuse_past_limit(size * size, f"the harmonic Gram of {size} points")
    elems = list(itertools.product(*[range(m) for m in moduli]))
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
    counts = Counter(tuple((a - b) % m for a, b, m in zip(x, y, moduli)) for x in dual for y in dual)
    zero = tuple(0 for _ in moduli)
    values = {counts[gamma] for gamma in itertools.product(*map(range, moduli)) if gamma != zero}
    if not values:  # the trivial group has no nonzero gamma
        return True, len(dual)
    if len(values) == 1:
        return True, values.pop()
    return False, None


def matrix_key(m: np.ndarray) -> bytes:
    """Hashable key of a complex array, its entries rounded to 7 decimals."""
    return (np.round(m.real, 7) + 0.0).tobytes() + (np.round(m.imag, 7) + 0.0).tobytes()


def matrix_group_closure(generators: Sequence[np.ndarray], cap: int) -> list[np.ndarray]:
    """Elements of the group generated by one or more unitary matrices, identity first.

    Breadth-first closure deduplicated by `matrix_key`; every new element
    must stay unitary within 100 * CLOSURE_TOL, and more than `cap`
    elements raise.
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
                    if np.abs(y.conj().T @ y - ident).max() > 100 * CLOSURE_TOL:
                        raise NumericError("closure element lost unitarity")
                    seen.add(k)
                    elements.append(y)
                    new_frontier.append(y)
        frontier = new_frontier
    return elements


def matrix_group_orbit_gram(
    generators: Sequence[np.ndarray], v: np.ndarray, order_cap: int = 100_000
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
        if np.abs(g.conj().T @ g - np.eye(dim)).max() > CLOSURE_TOL:
            raise InputError("generator is not unitary within tolerance")
    vectors: dict[bytes, np.ndarray] = {}
    # no generators means the trivial group
    for g in matrix_group_closure(gens or [np.eye(dim, dtype=np.complex128)], order_cap):
        w = g @ v
        vectors.setdefault(matrix_key(w), w)
    synthesis = np.column_stack(list(vectors.values()))
    entries = synthesis.conj().T @ synthesis
    entries = (entries + entries.conj().T) / 2
    return GramMatrix.from_entries(entries)


def gap_clusters(values: np.ndarray, threshold: float) -> list[np.ndarray]:
    """Indices into `values`, split where consecutive sorted values differ by more than threshold.

    The one value clusterer for real values: eigenvalue clusters, entry
    moduli and coherence levels all go through it.
    """
    order = np.argsort(values)
    cuts = [0, *(np.flatnonzero(np.diff(values[order]) > threshold) + 1).tolist(), len(order)]
    return [order[a:b] for a, b in zip(cuts[:-1], cuts[1:])]


def distinct_moduli(gram: GramMatrix) -> list[float]:
    """Sorted distinct off-diagonal entry moduli, clustered at MODULI_GAP."""
    n = gram.n
    if n < 2:
        return []
    off = np.abs(gram.entries)[~np.eye(n, dtype=bool)]
    return [float(off[idx].mean()) for idx in gap_clusters(off, MODULI_GAP)]


@dataclass
class PackingReport:
    """Coherence of a packing measured against the standard lower bounds.

    The distinct off-diagonal moduli are formed when first read; the scan
    reads none.
    """

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
    moduli: Callable[[], list[float]] = dataclass_field(repr=False, compare=False)

    @cached_property
    def distinct_offdiag_moduli(self) -> list[float]:
        return self.moduli()

    def to_json_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "moduli"}
        payload["distinct_offdiag_moduli"] = self.distinct_offdiag_moduli
        return payload


def _orbital_facts(gram: GramMatrix) -> Optional[tuple]:
    """(d, etf, real, coherence, moduli) of an orbital-form Gram, or None.

    Coherence, realness, the equal-modulus test and moduli(), the distinct
    off-diagonal moduli, read the labels that occur in the matrix, each
    counted as often as it occurs, so they are the dense values bit for
    bit: the same numbers pass through the same float operations.
    Tightness and d come from the form's certificate ||G^2 - c G||_2 <=
    rho.  The dense test's residual r, with its own c' = tr G^2 / tr G
    and the rounding of G @ G, is at most 2 (rho + 4 n eps c x_0).  Every
    eigenvalue of G lies within 2 rho / c of 0 or of c, so when that is
    below RANK_TOL c, the dense path's d, from `_trace_rank` or
    `gram_rank`, is tr G / c rounded.  Returns None, for the dense path,
    unless r clears the tightness threshold and rho / c clears RANK_TOL c
    by 10x, and tr G / c lies within 0.05 of an integer.  A diagonal x_0
    <= 0 raises the dense path's InputError.
    """
    form = gram.orbital
    of, x = form.orbital_of, form.x
    n = gram.n
    x0 = float(x[0].real)
    if not x0 > 0 and n >= 2:
        raise InputError("coherence requires a strictly positive diagonal")
    if not n * x0 > 10 * REPORT_TOL:
        return None
    if form.scheme is not None:
        counts = n * np.array(form.scheme.valencies)
        c, rho = _square_certificate(form)
    else:
        counts = np.bincount(of.ravel(), minlength=len(x))
        c, rho = form.certificate
    counts[0] -= n
    off = np.flatnonzero(counts)
    absx = np.abs(x)
    scale = max(1.0, float(absx[off].max(initial=absx[0])))
    residual = 2 * (rho + 4 * n * _EPS * c * x0)
    if not c > 0 or residual > REPORT_TOL * scale / 10 or rho / c > 0.1 * RANK_TOL * c:
        return None
    rank = n * x0 / c
    if abs(rank - round(rank)) > 0.05:
        return None
    off_moduli = absx[off]
    etf = off.size == 0 or bool(off_moduli.max() - off_moduli.min() <= REPORT_TOL * scale)
    real = float(np.abs(x[np.append(off, 0)].imag).max()) <= REAL_TOL
    if n < 2:
        return round(rank), etf, real, 0.0, lambda: []
    inv = 1.0 / np.sqrt(np.float64(x0))
    coh = float((off_moduli * (inv * inv)).max())

    def moduli() -> list[float]:
        # each cluster's mean over its entries in ascending order, as
        # `distinct_moduli` takes it
        weights = counts[off]
        return [
            float(np.repeat(off_moduli[idx], weights[idx]).mean())
            for idx in gap_clusters(off_moduli, MODULI_GAP)
        ]

    return round(rank), etf, real, coh, moduli


def packing_report(gram: GramMatrix) -> PackingReport:
    """Evaluate a Gram matrix as a line packing.

    The ambient dimension d is the numerical rank (`gram_rank`).  The tight
    and ETF tests share one G @ G; when it shows G = c P for a projection P
    with a margin that certifies the rank, d is read off tr G / c, and
    only Grams without that certificate pay for the eigenvalues.
    Coherence is taken after unit normalization, and a bound counts as met
    when coherence sits within REPORT_TOL of it.  A Gram with an orbital
    form is read in coefficient space (`_orbital_facts`) when its
    certificate, a bound on ||G^2 - c G||_2 read in coefficient space,
    decides tightness and rank with a 10x margin.
    """
    n = gram.n
    facts = _orbital_facts(gram) if gram.orbital is not None else None
    if facts is not None:
        d, etf, real, coh, moduli = facts
        tight = True
    else:
        c, residual, etf = _tightness(gram)
        tight = c is not None
        d = _trace_rank(gram, c, residual)
        if d is None:
            d = gram_rank(gram)
        real = float(np.abs(gram.entries.imag).max(initial=0.0)) <= REAL_TOL
        coh = coherence(gram) if n >= 2 else 0.0
        moduli = partial(distinct_moduli, gram)

    field = "real" if real else "complex"
    welch = welch_bound(n, d) if n >= 2 and d >= 1 else 0.0
    orthoplex, lev = secondary_bounds(n, d, field) if n >= 2 and d >= 1 else (None, None)
    return PackingReport(
        n=n,
        d=d,
        coherence=coh,
        welch=welch,
        welch_met=bool(abs(coh - welch) <= REPORT_TOL),
        orthoplex_applicable=orthoplex is not None,
        orthoplex_met=bool(orthoplex is not None and abs(coh - orthoplex) <= REPORT_TOL),
        levenstein_applicable=lev is not None,
        levenstein_met=bool(lev is not None and abs(coh - lev) <= REPORT_TOL),
        is_etf=etf,
        is_tight=tight,
        field=field,
        moduli=moduli,
    )
