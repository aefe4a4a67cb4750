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

from typing import Optional

import numpy as np

from .errors import NumericError, ResourceError
from .frames import COLOR_TOL, GramMatrix
from .permgroup import Permutation, PermutationGroup, orbit

DEFAULT_NODE_CAP = 10**7


def _cluster_values(values: np.ndarray, tol: float) -> np.ndarray:
    """Color id of every value, rounded to a grid; complain about near-ties.

    The values are rounded and sorted once, and the ids come back in the
    shape of the values; the rounding grid is no coarser than tol / 10 or
    1e-9, nor finer than 1e-16.  Values within tol share a color; a pair
    separated by more than tol but less than 10*tol is ambiguous at this
    tolerance and raises.
    |dz| <= tol implies |d re| <= tol, so with the distinct values sorted
    by real part, each is compared only with the later values whose real
    part lies within 10*tol of its own (a little more, against rounding);
    that window holds every pair that the clustering or the audit reads.
    """
    decimals = min(max(9, 1 - int(np.floor(np.log10(tol)))), 16)
    # unique is sorted by (real, imag)
    unique, inverse = np.unique(np.round(values, decimals), return_inverse=True)
    u = unique.size
    hi = np.searchsorted(unique.real, unique.real + 11 * tol, side="right")
    width = hi - np.arange(u) - 1
    first = np.repeat(np.arange(u), width)
    second = first + np.arange(first.size) - np.repeat(np.cumsum(width) - width, width) + 1
    dist = np.abs(unique[second] - unique[first])
    parent = list(range(u))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # the single-link unions in the order (i, then j) of the pairwise scan
    for i, j in zip(first[dist <= tol].tolist(), second[dist <= tol].tolist()):
        parent[find(i)] = find(j)
    root = np.array([find(i) for i in range(u)], dtype=np.int64)
    roots, color = np.unique(root, return_inverse=True)
    # audit: a color must not straddle more than tol (single-link chaining),
    # and distinct colors must sit at least 10*tol apart
    span = np.full(roots.size, np.inf)
    np.minimum.at(span, color, unique.real)
    span_hi = np.full(roots.size, -np.inf)
    np.maximum.at(span_hi, color, unique.real)
    wide = set(np.flatnonzero(span_hi - span > tol).tolist())
    same = color[first] == color[second]
    wide.update(color[first[same & (dist > tol)]].tolist())
    if wide:
        # report the color met first in sorted order, with its diameter
        c = min(wide, key=lambda k: np.flatnonzero(color == k)[0])
        vals = unique[color == c]
        diameter = float(np.abs(vals[:, None] - vals[None, :]).max())
        raise NumericError(f"chained value cluster has diameter {diameter:.3e} > tol {tol:.1e}")
    near = ~same & (dist < 10 * tol)
    if near.any():
        # report the pair of colors with the least (root, root), with their distance
        ends = np.sort(np.stack([root[first[near]], root[second[near]]]), axis=0)
        pick = np.lexsort((ends[1], ends[0]))[0]
        between = (ends[0] == ends[0, pick]) & (ends[1] == ends[1, pick])
        dmin = float(dist[near][between].min())
        raise NumericError(f"entry values {dmin:.3e} apart cannot be clustered at tol {tol:.1e}")
    return color[inverse].reshape(values.shape)


def _rank_rows(rows: np.ndarray) -> np.ndarray:
    """Rank of each row among the distinct rows in lexicographic order.

    The ids ``np.unique(rows, axis=0, return_inverse=True)`` gives, from one
    lexsort (first column most significant) and a neighbour difference.
    """
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    step = np.empty(len(rows), dtype=np.int64)
    step[:1] = 0
    step[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.int64)
    ids[order] = np.cumsum(step)
    return ids


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
        inverse = _rank_rows(rows)
        new_count = int(inverse.max()) + 1
        old_count = np.count_nonzero(np.bincount(np.concatenate([vc_a, vc_b])))
        vc_a = inverse[:na].astype(np.int64)
        vc_b = inverse[na:].astype(np.int64)
        # the old color leads each signature, so an equal count relabels the
        # old colors one to one, and the histograms checked above still match
        if new_count == old_count:
            return vc_a, vc_b


class _Budget:
    def __init__(self, cap: int):
        self.remaining = cap

    def spend(self) -> None:
        self.remaining -= 1
        if self.remaining < 0:
            raise ResourceError("backtracking search exceeded its node budget")


def _individualize(
    ec_a: np.ndarray, ec_b: np.ndarray, fixed_a: list[int], fixed_b: list[int]
) -> Optional[tuple[np.ndarray, np.ndarray, Optional[int]]]:
    """Give fixed_a[i] and fixed_b[i] color i + 1 and every other vertex 0, and refine jointly.

    Returns the refined colorings and the least color of more than one
    vertex (None when the partition is discrete), or None when the
    histograms diverge.
    """
    vc_a = np.zeros(len(ec_a), dtype=np.int64)
    vc_b = np.zeros(len(ec_b), dtype=np.int64)
    vc_a[fixed_a] = vc_b[fixed_b] = np.arange(1, len(fixed_a) + 1)
    vc_a, vc_b = _joint_refine(ec_a, vc_a, ec_b, vc_b)
    if vc_a is None:
        return None
    cells = np.flatnonzero(np.bincount(vc_a) > 1)
    return vc_a, vc_b, int(cells[0]) if cells.size else None


def _search_isomorphism(
    ec_a: np.ndarray,
    ec_b: np.ndarray,
    fixed_a: list[int],
    fixed_b: list[int],
    budget: _Budget,
) -> Optional[Permutation]:
    """Color isomorphism from graph A to graph B extending fixed_a -> fixed_b."""
    budget.spend()
    refined = _individualize(ec_a, ec_b, fixed_a, fixed_b)
    if refined is None:
        return None
    vc_a, vc_b, cell = refined
    if cell is None:
        # discrete partition: both colorings are bijections onto 0..n-1
        vertex_b = np.empty_like(vc_b)
        vertex_b[vc_b] = np.arange(len(vc_b))
        idx = vertex_b[vc_a]
        return Permutation(tuple(idx.tolist())) if np.array_equal(ec_b[np.ix_(idx, idx)], ec_a) else None
    v = int(np.flatnonzero(vc_a == cell)[0])
    for u in np.flatnonzero(vc_b == cell).tolist():
        found = _search_isomorphism(ec_a, ec_b, fixed_a + [v], fixed_b + [u], budget)
        if found is not None:
            return found
    return None


def colored_graph_automorphisms(
    color: np.ndarray, node_cap: int = DEFAULT_NODE_CAP
) -> tuple[list[Permutation], int]:
    """Generators and order of the automorphism group of an edge coloring.

    Individualizes one vertex of the first non-singleton cell per level;
    the per-level orbits give the order by the orbit-stabilizer theorem.
    """
    n = len(color)
    budget = _Budget(node_cap)

    def level(fixed: list[int]) -> tuple[list[Permutation], int]:
        vc, _, cell = _individualize(color, color, fixed, fixed)
        if cell is None:
            return [], 1
        v, *others = np.flatnonzero(vc == cell).tolist()
        gens, stab_order = level(fixed + [v])
        reached = orbit(PermutationGroup(n, gens), v)
        for u in others:
            if u in reached:
                continue
            found = _search_isomorphism(color, color, fixed + [v], fixed + [u], budget)
            if found is not None:
                gens.append(found)
                reached = orbit(PermutationGroup(n, gens), v)
        return gens, stab_order * len(reached)

    return level([])


def gram_symmetry_group(
    gram: GramMatrix, tol: float = COLOR_TOL, node_cap: int = DEFAULT_NODE_CAP
) -> PermutationGroup:
    """The group of permutations whose matrices commute with the Gram matrix.

    Every returned generator is checked to commute with the Gram matrix
    within 10*tol before the group is returned.
    """
    gens, order = colored_graph_automorphisms(_cluster_values(gram.entries, tol), node_cap)
    entries = gram.entries
    scale = max(1.0, float(np.abs(entries).max()))
    for g in gens:
        # with P[g(y), y] = 1, (P G - G P)[g(x), y] = G[x, y] - G[g(x), g(y)]
        idx = np.asarray(g.images)
        if np.abs(entries[np.ix_(idx, idx)] - entries).max() > 10 * tol * scale:
            raise NumericError("automorphism search returned a non-commuting generator")
    group = PermutationGroup(gram.n, gens)
    if group.order != order:
        raise NumericError("search order bookkeeping disagrees with the stabilizer chain")
    return group


def find_gram_isomorphism(gram_a: GramMatrix, gram_b: GramMatrix) -> Optional[Permutation]:
    """A permutation carrying gram_a onto gram_b entrywise, or None.

    Colors are clustered at COLOR_TOL over the union of both entry sets so the
    color ids align; the search then looks for a color isomorphism.
    """
    if gram_a.n != gram_b.n:
        return None
    ec_a, ec_b = _cluster_values(np.stack([gram_a.entries, gram_b.entries]), COLOR_TOL)
    return _search_isomorphism(ec_a, ec_b, [], [], _Budget(DEFAULT_NODE_CAP))
