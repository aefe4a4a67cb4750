"""Finite permutation groups given by generators.

Points are 0-based everywhere.  Products act on the left, so
``(p * q)(x) == p(q(x))`` and permutation matrices satisfy
``P[p * q] == P[p] @ P[q]``.

Group order and membership go through a stabilizer chain built
incrementally (Schreier generators sifted against the chain); all results
are exact integers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import InputError, ResourceError

DEFAULT_ELEMENT_LIMIT = 10**6


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., degree-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if other.degree != self.degree:
            raise InputError("degree mismatch in product")
        return Permutation(tuple(self.images[j] for j in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int = 0) -> Permutation:
    """Parse cycle notation like ``"(0 1 2)(3 4)"``; whitespace/comma insensitive.

    The degree grows to cover the largest point mentioned unless a larger
    one is given.
    """
    stripped = text.strip()
    if stripped and not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)+|\s*", stripped):
        raise InputError(f"cannot parse cycle notation: {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(stripped):
        pts = [int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok]
        if len(pts) != len(set(pts)):
            raise InputError(f"repeated point in cycle: ({body})")
        if pts:
            cycles.append(pts)
    n = max([degree] + [max(c) + 1 for c in cycles if c])
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


def _transversal(point: int, gens: Sequence[Permutation], degree: int) -> dict[int, Permutation]:
    """Schreier transversal of the orbit of `point`: maps each q to an element taking `point` to q.

    Breadth-first with the generators in the given order, so the insertion
    order of the dict, and with it every Schreier generator built from it,
    is reproducible.
    """
    trans = {point: Permutation.identity(degree)}
    frontier = [point]
    while frontier:
        new_frontier = []
        for p in frontier:
            for g in gens:
                q = g(p)
                if q not in trans:
                    trans[q] = g * trans[p]
                    new_frontier.append(q)
        frontier = new_frontier
    return trans


class _StabilizerChain:
    """Stabilizer chain with a flat strong generating set.

    The pool of generators at level i is every strong generator fixing
    base[0..i-1] pointwise; the classical up-down Schreier-Sims loop
    reprocesses a level whenever a sifted Schreier generator survives.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.sgs: list[Permutation] = []
        # transversals[i][p] maps base[i] to p
        self.transversals: list[dict[int, Permutation]] = []

    def order(self) -> int:
        n = 1
        for t in self.transversals:
            n *= len(t)
        return n

    def _fix_level(self, g: Permutation) -> int:
        k = 0
        for beta in self.base:
            if g(beta) != beta:
                break
            k += 1
        return k

    def _pool(self, level: int) -> list[Permutation]:
        return [g for g in self.sgs if self._fix_level(g) >= level]

    def _rebuild_orbit(self, level: int) -> list[Permutation]:
        pool = self._pool(level)
        self.transversals[level] = _transversal(self.base[level], pool, self.degree)
        return pool

    def _sift_from(self, g: Permutation, start: int) -> Permutation:
        for i in range(start, len(self.base)):
            target = g(self.base[i])
            rep = self.transversals[i].get(target)
            if rep is None:
                return g
            g = rep.inverse() * g
        return g

    def _register(self, g: Permutation) -> int:
        """Add a strong generator, extending the base if nothing moves it."""
        if all(g(b) == b for b in self.base):
            moved = next(i for i in range(self.degree) if g(i) != i)
            self.base.append(moved)
            self.transversals.append({})
        self.sgs.append(g)
        return self._fix_level(g)

    def _process(self, start_level: int) -> None:
        """Verify Schreier generators from start_level back up to level 0."""
        i = start_level
        while i >= 0:
            if i >= len(self.base):
                i = len(self.base) - 1
                continue
            pool = self._rebuild_orbit(i)
            trans = self.transversals[i]
            dirty = False
            for p in sorted(trans):
                rep = trans[p]
                for g in pool:
                    schreier = trans[g(p)].inverse() * (g * rep)
                    residue = self._sift_from(schreier, i + 1)
                    if not residue.is_identity():
                        i = self._register(residue)
                        dirty = True
                        break
                if dirty:
                    break
            if not dirty:
                i -= 1

    def extend(self, gen: Permutation) -> None:
        if gen.is_identity():
            return
        residue = self._sift_from(gen, 0)
        if residue.is_identity():
            return
        level = self._register(residue)
        self._process(level)

    def contains(self, g: Permutation) -> bool:
        return self._sift_from(g, 0).is_identity()


class PermutationGroup:
    """A group of permutations of {0, ..., degree-1}, given by generators."""

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        gens = tuple(g if isinstance(g, Permutation) else Permutation(tuple(g)) for g in generators)
        for g in gens:
            if g.degree != degree:
                raise InputError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = gens
        self._chain: Optional[_StabilizerChain] = None

    def __repr__(self) -> str:
        return f"PermutationGroup(degree={self.degree}, ngens={len(self.generators)})"

    @staticmethod
    def from_cycles(degree: int, cycle_strings: Iterable[str]) -> "PermutationGroup":
        return PermutationGroup(degree, [parse_cycles(s, degree) for s in cycle_strings])

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def chain(self) -> _StabilizerChain:
        if self._chain is None:
            chain = _StabilizerChain(self.degree)
            for g in self.generators:
                chain.extend(g)
            self._chain = chain
        return self._chain

    @cached_property
    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain().contains(g)

    def elements(self, element_limit: int = DEFAULT_ELEMENT_LIMIT) -> list[Permutation]:
        """All group elements by deterministic BFS over the generators.

        Level-by-level closure with a lexicographic tie-break on image
        tuples, so the enumeration order is reproducible.
        """
        if self.order > element_limit:
            raise ResourceError(f"group order {self.order} exceeds element limit {element_limit}")
        ident = self.identity()
        seen = {ident.images}
        out = [ident]
        frontier = [ident]
        while frontier:
            new_frontier = []
            for p in frontier:
                for g in self.generators:
                    q = g * p
                    if q.images not in seen:
                        seen.add(q.images)
                        new_frontier.append(q)
            new_frontier.sort(key=lambda p: p.images)
            out.extend(new_frontier)
            frontier = new_frontier
        return out


@dataclass
class GroupAction:
    """A permutation group acting on its points {0, ..., degree-1}."""

    group: PermutationGroup

    @property
    def point_count(self) -> int:
        return self.group.degree


def orbit(group: PermutationGroup, point: int) -> set[int]:
    """Smallest generator-closed subset of the point set containing `point`."""
    if not 0 <= point < group.degree:
        raise InputError(f"point {point} out of range for degree {group.degree}")
    seen = {point}
    frontier = [point]
    while frontier:
        p = frontier.pop()
        for g in group.generators:
            q = g(p)
            if q not in seen:
                seen.add(q)
                frontier.append(q)
    return seen


def is_transitive(action: GroupAction) -> bool:
    return len(orbit(action.group, 0)) == action.point_count


def group_order(group: PermutationGroup) -> int:
    return group.order


def point_stabilizer(group: PermutationGroup, point: int) -> PermutationGroup:
    """The stabilizer of `point`, generated by Schreier generators.

    Satisfies |G| = |orbit(point)| * |stabilizer|.
    """
    if not 0 <= point < group.degree:
        raise InputError(f"point {point} out of range for degree {group.degree}")
    transversal = _transversal(point, group.generators, group.degree)
    gens: list[Permutation] = []
    seen = set()
    probe = _StabilizerChain(group.degree)
    for p, rep in transversal.items():
        for g in group.generators:
            schreier = transversal[g(p)].inverse() * (g * rep)
            if schreier.is_identity() or schreier.images in seen:
                continue
            seen.add(schreier.images)
            if not probe.contains(schreier):
                probe.extend(schreier)
                gens.append(schreier)
    return PermutationGroup(group.degree, gens)


def pair_index(n: int, i: int, j: int) -> int:
    """Index of the ordered pair (i, j), i != j, in lexicographic order."""
    return i * (n - 1) + (j if j < i else j - 1)


def induced_pair_action(action: GroupAction) -> GroupAction:
    """Action on ordered pairs of distinct points, indexed lexicographically."""
    n = action.point_count
    if n < 2:
        raise InputError("pair action needs at least 2 points")
    if not is_transitive(action):
        raise InputError("pair action requires a transitive source action")
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    gens = []
    for g in action.group.generators:
        images = [0] * len(pairs)
        for idx, (i, j) in enumerate(pairs):
            images[idx] = pair_index(n, g(i), g(j))
        gens.append(Permutation(tuple(images)))
    return GroupAction(PermutationGroup(n * (n - 1), gens))


def regular_action(group: PermutationGroup, element_limit: int = DEFAULT_ELEMENT_LIMIT) -> GroupAction:
    """Left-translation action of the group on its own elements.

    Elements are enumerated by the deterministic BFS of
    :meth:`PermutationGroup.elements`, so point indexing is reproducible.
    """
    elems = group.elements(element_limit)
    index = {p.images: i for i, p in enumerate(elems)}
    gens = []
    for g in group.generators:
        images = tuple(index[(g * p).images] for p in elems)
        gens.append(Permutation(images))
    return GroupAction(PermutationGroup(len(elems), gens))
