"""Symmetry groups of Gram matrices.

The permutations commuting with a Gram matrix are exactly the color
automorphisms of the complete digraph whose edge colors are the Gram's
entry-value classes.  They are found by individualization with iterated
color refinement (1-dimensional Weisfeiler-Leman) and a backtracking
search under an explicit node budget.

The same machinery searches for a color isomorphism between two Gram
matrices, which is how fixture matrices are matched up to simultaneous
row/column permutation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError, NumericError, ResourceError
from .frames import GramMatrix
from .permgroup import GroupAction, Permutation, PermutationGroup, orbit

DEFAULT_NODE_CAP = 10**7


@dataclass
class ColoredDigraph:
    """Complete digraph with integer edge colors (entry-value classes)."""

    n: int
    color: np.ndarray

    def __post_init__(self):
        self.color = np.asarray(self.color, dtype=np.int64)
        if self.color.shape != (self.n, self.n):
            raise InputError("color matrix shape does not match n")


def _cluster_values(values: np.ndarray, tol: float) -> dict[complex, int]:
    """Map rounded entry values to color ids; complain about near-ties.

    Values within tol share a color; a pair separated by more than tol
    but less than 10*tol is ambiguous at this tolerance and raises.
    """
    rounded = np.round(values, 9)
    unique = np.unique(rounded)
    pts = sorted((float(z.real), float(z.imag)) for z in unique)
    parent = list(range(len(pts)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dist = abs(complex(*pts[i]) - complex(*pts[j]))
            if dist <= tol:
                parent[find(i)] = find(j)
    roots = sorted({find(i) for i in range(len(pts))})
    color_of_root = {r: c for c, r in enumerate(roots)}
    colors = {complex(*pts[i]): color_of_root[find(i)] for i in range(len(pts))}
    # audit: a color must not straddle more than tol (single-link chaining),
    # and distinct colors must sit at least 10*tol apart
    reps: dict[int, list[complex]] = {}
    for z, c in colors.items():
        reps.setdefault(c, []).append(z)
    for c, vals in reps.items():
        diameter = max(abs(a - b) for a in vals for b in vals)
        if diameter > tol:
            raise NumericError(
                f"chained value cluster has diameter {diameter:.3e} > tol {tol:.1e}"
            )
    for ci in roots:
        for cj in roots:
            if ci >= cj:
                continue
            dmin = min(
                abs(a - b) for a in reps[color_of_root[ci]] for b in reps[color_of_root[cj]]
            )
            if dmin < 10 * tol:
                raise NumericError(
                    f"entry values {dmin:.3e} apart cannot be clustered at tol {tol:.1e}"
                )
    return colors


def _colorize(entries: np.ndarray, lookup: dict[complex, int]) -> np.ndarray:
    """Color id of every entry, looked up by its value rounded as in `_cluster_values`."""
    values, inverse = np.unique(np.round(entries, 9), return_inverse=True)
    ids = np.array([lookup[complex(z)] for z in values], dtype=np.int64)
    return ids[inverse].reshape(entries.shape)


def color_matrix_from_gram(gram: GramMatrix, tol: float = 1e-7) -> ColoredDigraph:
    """Entry-value coloring of a Gram matrix.

    Exact entries (rational or root-of-unity backed) use exact equality;
    floating entries are clustered at the given tolerance.
    """
    n = gram.n
    if gram.exact_entries is not None:
        tokens = {}
        for x in range(n):
            for y in range(n):
                tokens.setdefault(gram.exact_entries[x][y], []).append((x, y))
        keyed = sorted(
            tokens,
            key=lambda t: (
                float(np.real(complex(gram.entries[tokens[t][0][0], tokens[t][0][1]]))),
                float(np.imag(complex(gram.entries[tokens[t][0][0], tokens[t][0][1]]))),
                repr(t),
            ),
        )
        color_id = {t: c for c, t in enumerate(keyed)}
        colors = np.empty((n, n), dtype=np.int64)
        for t, cells_t in tokens.items():
            for (x, y) in cells_t:
                colors[x, y] = color_id[t]
        return ColoredDigraph(n, colors)
    return ColoredDigraph(n, _colorize(gram.entries, _cluster_values(gram.entries.ravel(), tol)))


def _joint_refine(
    ec_a: np.ndarray,
    vc_a: np.ndarray,
    ec_b: np.ndarray,
    vc_b: np.ndarray,
) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Refine both vertex colorings together until stable.

    Returns (vc_a, vc_b) with aligned color ids, or (None, None) when the
    color histograms diverge (no isomorphism can respect the colorings).
    """
    na = len(vc_a)
    vc_a = vc_a.astype(np.int64).copy()
    vc_b = vc_b.astype(np.int64).copy()
    n_edge = int(max(ec_a.max(initial=0), ec_b.max(initial=0))) + 1
    while True:
        n_colors = int(max(vc_a.max(initial=0), vc_b.max(initial=0))) + 1
        # color ids are aligned across the two graphs, so histograms must
        # match color by color
        if not np.array_equal(
            np.bincount(vc_a, minlength=n_colors), np.bincount(vc_b, minlength=n_colors)
        ):
            return None, None

        def signatures(ec, vc):
            code = (ec * n_edge + ec.T) * n_colors + vc[None, :]
            sig = np.sort(code, axis=1)
            return np.concatenate([vc[:, None], sig], axis=1)

        rows = np.concatenate([signatures(ec_a, vc_a), signatures(ec_b, vc_b)], axis=0)
        _, inverse = np.unique(rows, axis=0, return_inverse=True)
        new_count = int(inverse.max()) + 1
        old_count = len(np.unique(np.concatenate([vc_a, vc_b])))
        vc_a = inverse[:na].astype(np.int64)
        vc_b = inverse[na:].astype(np.int64)
        if new_count == old_count:
            k = int(max(vc_a.max(initial=0), vc_b.max(initial=0))) + 1
            if not np.array_equal(
                np.bincount(vc_a, minlength=k), np.bincount(vc_b, minlength=k)
            ):
                return None, None
            return vc_a, vc_b


class _Budget:
    def __init__(self, cap: int):
        self.remaining = cap

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise ResourceError("backtracking search exceeded its node budget")


def _search_isomorphism(
    ec_a: np.ndarray,
    ec_b: np.ndarray,
    fixed_a: list[int],
    fixed_b: list[int],
    budget: _Budget,
) -> Optional[Permutation]:
    """Color isomorphism from graph A to graph B extending fixed_a -> fixed_b."""
    n = ec_a.shape[0]
    budget.spend()
    vc_a = np.zeros(n, dtype=np.int64)
    vc_b = np.zeros(n, dtype=np.int64)
    for slot, (va, vb) in enumerate(zip(fixed_a, fixed_b)):
        vc_a[va] = slot + 1
        vc_b[vb] = slot + 1
    vc_a, vc_b = _joint_refine(ec_a, vc_a, ec_b, vc_b)
    if vc_a is None:
        return None
    n_colors = int(max(vc_a.max(initial=0), vc_b.max(initial=0))) + 1
    counts = np.bincount(vc_a, minlength=n_colors)
    target_cell = None
    for color in range(n_colors):
        if counts[color] > 1:
            target_cell = color
            break
    if target_cell is None:
        # discrete partition: read the candidate map off the colors
        images = [0] * n
        pos_b = {int(c): i for i, c in enumerate(vc_b)}
        for i, c in enumerate(vc_a):
            images[i] = pos_b[int(c)]
        perm = Permutation(tuple(images))
        idx = np.asarray(images)
        if np.array_equal(ec_b[np.ix_(idx, idx)], ec_a):
            return perm
        return None
    v = int(np.nonzero(vc_a == target_cell)[0][0])
    for u in map(int, np.nonzero(vc_b == target_cell)[0]):
        found = _search_isomorphism(ec_a, ec_b, fixed_a + [v], fixed_b + [u], budget)
        if found is not None:
            return found
    return None


def colored_graph_automorphisms(
    graph: ColoredDigraph, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[list[Permutation], int]:
    """Generators and order of the color automorphism group.

    Individualizes one vertex of the first non-singleton cell per level;
    the per-level orbits give the order by the orbit-stabilizer theorem.
    """
    ec = graph.color
    n = graph.n
    budget = _Budget(node_cap)

    def level(fixed: list[int]) -> tuple[list[Permutation], int]:
        vc = np.zeros(n, dtype=np.int64)
        for slot, v in enumerate(fixed):
            vc[v] = slot + 1
        vc, _ = _joint_refine(ec, vc, ec, vc.copy())
        n_colors = int(vc.max(initial=0)) + 1
        counts = np.bincount(vc, minlength=n_colors)
        cell_color = next((c for c in range(n_colors) if counts[c] > 1), None)
        if cell_color is None:
            return [], 1
        cell = [int(x) for x in np.nonzero(vc == cell_color)[0]]
        v = cell[0]
        gens, stab_order = level(fixed + [v])
        gens = list(gens)
        reached = orbit(PermutationGroup(n, gens), v)
        for u in cell[1:]:
            if u in reached:
                continue
            found = _search_isomorphism(ec, ec, fixed + [v], fixed + [u], budget)
            if found is not None:
                gens.append(found)
                reached = orbit(PermutationGroup(n, gens), v)
        return gens, stab_order * len(reached)

    return level([])


def gram_symmetry_group(
    gram: GramMatrix,
    tol: float = 1e-7,
    node_cap: int = DEFAULT_NODE_CAP,
    colors: Optional[ColoredDigraph] = None,
) -> PermutationGroup:
    """The group of permutations whose matrices commute with the Gram matrix.

    Every returned generator is checked to commute with the Gram matrix
    within 10*tol before the group is returned.
    """
    if colors is None:
        colors = color_matrix_from_gram(gram, tol)
    gens, order = colored_graph_automorphisms(colors, node_cap)
    scale = max(1.0, float(np.abs(gram.entries).max()))
    for g in gens:
        p = np.zeros((gram.n, gram.n))
        for y in range(gram.n):
            p[g(y), y] = 1.0
        if np.abs(p @ gram.entries - gram.entries @ p).max() > 10 * tol * scale:
            raise NumericError("automorphism search returned a non-commuting generator")
    group = PermutationGroup(gram.n, gens)
    if group.order != order:
        raise NumericError("search order bookkeeping disagrees with the stabilizer chain")
    return group


def is_homogeneous(gram: GramMatrix, tol: float = 1e-7, node_cap: int = DEFAULT_NODE_CAP) -> bool:
    """True iff the symmetry group of the Gram matrix is transitive."""
    group = gram_symmetry_group(gram, tol, node_cap)
    return len(orbit(group, 0)) == gram.n


def find_gram_isomorphism(
    gram_a: GramMatrix,
    gram_b: GramMatrix,
    tol: float = 1e-7,
    node_cap: int = DEFAULT_NODE_CAP,
) -> Optional[Permutation]:
    """A permutation carrying gram_a onto gram_b entrywise, or None.

    Colors are clustered over the union of both entry sets so the color
    ids align; the search then looks for a color isomorphism.
    """
    if gram_a.n != gram_b.n:
        return None
    lookup = _cluster_values(
        np.concatenate([gram_a.entries.ravel(), gram_b.entries.ravel()]), tol
    )
    ec_a, ec_b = _colorize(gram_a.entries, lookup), _colorize(gram_b.entries, lookup)
    budget = _Budget(node_cap)
    return _search_isomorphism(ec_a, ec_b, [], [], budget)


def regular_subgroup_check(action: GroupAction, subgroup_generators: Sequence[Permutation]) -> bool:
    """True iff the subgroup acts transitively with trivial point stabilizers.

    Equivalently, the subgroup's orbit of point 0 is everything and its
    order equals the number of points.
    """
    n = action.point_count
    for g in subgroup_generators:
        if g.degree != n:
            raise InputError("subgroup generator degree does not match the action")
    sub = PermutationGroup(n, subgroup_generators)
    if len(orbit(sub, 0)) != n:
        return False
    return sub.order == n
