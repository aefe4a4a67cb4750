"""Finite permutation groups given by generators.

Points are 0-based everywhere.  Products act on the left, so
``(p * q)(x) == p(q(x))`` and permutation matrices satisfy
``P[p * q] == P[p] @ P[q]``.

Group order and membership go through a stabilizer chain built by the
deterministic Schreier-Sims algorithm (Holt, Eick and O'Brien, *Handbook
of Computational Group Theory*, section 4.4).  Transversals only grow, and
each Schreier generator is sifted once.  All results are exact integers.
Inside the chain and the transversals, elements are numpy index arrays
of images: the gather ``a[b]`` is the product ``a * b``, one scatter
inverts, and comparing the array's bytes with the identity's tests for
it.  ``Permutation`` stays a validated tuple of Python ints at the API
boundary.

``symmetry.gram_symmetry_group`` cross-checks the order that its search
reports against this chain.  Because the chain is exact, the check is
certain in both directions: a reported order above the order of the group
the generators generate (an over-counted orbit, or a lost generator) and
one below it (an under-counted orbit).  A randomised Schreier-Sims that
stops on reaching the reported order would catch only the first.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import errors
from .errors import InputError, NumericError, refuse_past_limit


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0, ..., degree-1}, stored as its image tuple of Python ints."""

    images: tuple[int, ...]

    def __post_init__(self):
        try:
            object.__setattr__(self, "images", tuple(map(operator.index, self.images)))
        except TypeError:
            raise InputError(f"permutation images must be integers: {self.images}") from None
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def _unchecked(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a permutation, skipping validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

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
        return Permutation._unchecked(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._unchecked(_invert(self.images))

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


def parse_cycles(text: str, degree: Optional[int] = None) -> Permutation:
    """Parse cycle notation like ``"(0 1 2)(3 4)"``; whitespace/comma insensitive.

    With no degree, the degree grows to cover the largest point mentioned;
    a given degree is kept, and a point at or past it is refused before
    any image is listed.
    """
    stripped = text.strip()
    if stripped and not re.fullmatch(r"(\s*\([\d\s,]*\)\s*)+|\s*", stripped):
        raise InputError(f"cannot parse cycle notation: {text!r}")
    bodies = _CYCLE_RE.findall(stripped)
    cycles = [[int(tok) for tok in re.split(r"[,\s]+", body.strip()) if tok] for body in bodies]
    # a point met twice, in one cycle or in two, makes no product of disjoint cycles
    points = [p for c in cycles for p in c]
    if len(points) != len(set(points)):
        raise InputError(f"repeated point in cycle notation: {text!r}")
    if degree is not None and points and max(points) >= degree:
        raise InputError(f"cycle point {max(points)} is not below the degree {degree}: {text!r}")
    n = max([degree or 0, *(p + 1 for p in points)])
    images = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            images[a] = b
    return Permutation(tuple(images))


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Image tuple of ``a * b``, unchecked: ``x -> a[b[x]]``."""
    return tuple(map(a.__getitem__, b))


def _invert(a: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, j in enumerate(a):
        inv[j] = i
    return tuple(inv)


def _as_array(images) -> np.ndarray:
    """Images as an index array, the element form of the chain."""
    return np.asarray(images, dtype=np.intp)


def _invert_array(a: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[a] = np.arange(a.size, dtype=a.dtype)
    return inv


class _Transversal:
    """Extend-only Schreier transversal of the orbit of `point`.

    ``reps[q]`` takes `point` to q and ``invs[q]`` is its inverse; both
    are image arrays, and ``None`` off the orbit.  Representatives are
    never replaced, so a Schreier generator, once formed, stays the same
    element however far the orbit or the generator list grows later.
    ``cursor[j]`` counts the orbit points already paired with ``gens[j]``.
    With `release_reps`, each representative is dropped once every generator
    has passed its point, leaving ``invs``; no generator is taken after that.
    """

    def __init__(self, point: int, degree: int, release_reps: bool = False):
        ident = np.arange(degree, dtype=np.intp)
        self.point = point
        self.release_reps = release_reps
        self.orbit = [point]
        self.reps: list[Optional[np.ndarray]] = [None] * degree
        self.invs: list[Optional[np.ndarray]] = [None] * degree
        self.reps[point] = self.invs[point] = ident
        self.gens: list[np.ndarray] = []
        self.cursor: list[int] = []

    def add_generator(self, g: np.ndarray) -> None:
        """Take g, refused first if the orbit of `point` it gives would make the tables
        kept, ``invs`` and unless released ``reps``, pass the limit: an orbit of at most
        `degree` points is counted only when `degree` points would pass it."""
        tables = 1 if self.release_reps else 2
        if tables * g.size * g.size > errors.MAX_ARRAY_ENTRIES:
            label = _suborbits(self.gens + [g], g.size)
            entries = tables * int(np.count_nonzero(label == label[self.point])) * g.size
            refuse_past_limit(entries, f"the transversal of point {self.point} of degree {g.size}")
        self.gens.append(g)
        self.cursor.append(0)

    def schreier_generators(self) -> Iterator[np.ndarray]:
        """Visit every new (orbit point, generator) pair once, point-major.

        A pair that reaches a new point extends the orbit (breadth-first,
        generators in the given order, so the result is reproducible); any
        other pair yields its Schreier generator ``invs[g(p)] * g * reps[p]``.
        Each pair is marked visited before it is yielded, so a caller may
        stop at any yield and resume with a fresh call.
        """
        k = min(self.cursor, default=len(self.orbit))
        while k < len(self.orbit):
            rep = self.reps[self.orbit[k]]
            for j, g in enumerate(self.gens):
                if self.cursor[j] > k:
                    continue
                self.cursor[j] = k + 1
                moved = g[rep]
                q = moved.item(self.point)
                inv = self.invs[q]
                if inv is None:
                    self.orbit.append(q)
                    self.reps[q] = moved
                    self.invs[q] = _invert_array(moved)
                else:
                    yield inv[moved]
            if self.release_reps:
                self.reps[self.orbit[k]] = rep = None
            k += 1


class _StabilizerChain:
    """Deterministic Schreier-Sims with a flat strong generating set.

    Level i holds the transversal of base[i] under the strong generators
    that fix base[0..i-1] pointwise.  Transversals only grow, and each
    (orbit point, strong generator) pair of a level is sifted at most once:
    by Schreier's lemma the Schreier generators of any fixed transversal
    generate the point stabilizer, and a generator that once sifted to the
    identity stays in the group of the lower levels, which only grows.  A
    residue that survives its sift becomes a new strong generator, and the
    up-down loop resumes at the level where the sift stopped.  Elements are
    image arrays.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.identity = np.arange(degree, dtype=np.intp)
        self._identity_bytes = self.identity.tobytes()
        self.levels: list[_Transversal] = []

    def order(self) -> int:
        return math.prod(len(t.orbit) for t in self.levels)

    def _sift(self, g: np.ndarray, start: int) -> tuple[np.ndarray, int]:
        """Strip g through the levels from `start`; return the residue and the level it stopped at.

        A level whose base point g fixes is passed without a product: its
        representative there is the identity.
        """
        levels = self.levels
        for i in range(start, len(levels)):
            t = levels[i]
            q = g.item(t.point)
            if q == t.point:
                continue
            inv = t.invs[q]
            if inv is None:
                return g, i
            g = inv[g]
        return g, len(levels)

    def _is_identity(self, residue: np.ndarray, level: int) -> bool:
        """Whether a sift residue is the identity; one that stopped early moves a base point."""
        return level == len(self.levels) and residue.tobytes() == self._identity_bytes

    def _add_strong(self, g: np.ndarray, level: int) -> None:
        """Add a residue that fixes base[0..level-1] and moves base[level].

        At ``level == len(base)`` the residue fixes the whole base, and its
        first moved point becomes a new base point.
        """
        if level == len(self.levels):
            moved = int(np.flatnonzero(g != self.identity)[0])
            self.levels.append(_Transversal(moved, self.degree))
        for t in self.levels[: level + 1]:
            t.add_generator(g)

    def extend(self, g: np.ndarray) -> bool:
        """Add g to the group; return whether the group grew."""
        residue, level = self._sift(g, 0)
        if self._is_identity(residue, level):
            return False
        self._add_strong(residue, level)
        i = level
        while i >= 0:
            for schreier in self.levels[i].schreier_generators():
                residue, level = self._sift(schreier, i + 1)
                if not self._is_identity(residue, level):
                    self._add_strong(residue, level)
                    i = level
                    break
            else:
                i -= 1
        return True

    def contains(self, g: np.ndarray) -> bool:
        return self._is_identity(*self._sift(g, 0))


class PermutationGroup:
    """A group of permutations of {0, ..., degree-1}, given by generators."""

    def __init__(self, degree: int, generators: Iterable[Permutation]):
        if degree < 0:
            raise InputError(f"group degree must be non-negative, got {degree}")
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
                chain.extend(_as_array(g.images))
            self._chain = chain
        return self._chain

    @cached_property
    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain().contains(_as_array(g.images))

    def elements(self) -> list[Permutation]:
        """All group elements by deterministic BFS over the generators.

        Level-by-level closure with a lexicographic tie-break on image
        tuples, so the enumeration order is reproducible.  The list, |G|
        tuples of `degree` entries, is refused past the limit before it starts.
        """
        refuse_past_limit(self.order * self.degree, f"the {self.order} elements of degree {self.degree}")
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


def _suborbits(generators: Iterable[np.ndarray], n: int) -> np.ndarray:
    """Least point of the orbit of each of the n points under the generators.

    Min-label hooking with pointer jumping, one generator s at a time: a
    round hooks the root of the larger label across every edge x -> s(x)
    whose ends disagree onto the smaller one, then jumps pointers until
    every point points at its root; rounds repeat until s agrees.  Later
    hooks only merge trees, so every generator still agrees at the end.
    A root is the least point of its tree, hence of its orbit.
    """
    label = np.arange(n, dtype=np.intp)
    for s in generators:
        while True:
            ends = label[s]
            split = ends != label
            if not split.any():
                break
            ends, own = ends[split], label[split]
            np.minimum.at(label, np.maximum(ends, own), np.minimum(ends, own))
            while True:
                jumped = label[label]
                if np.array_equal(jumped, label):
                    break
                label = jumped
    return label


def orbit(group: PermutationGroup, point: int) -> set[int]:
    """The orbit of `point`: the points that `_suborbits` gives its label."""
    if not 0 <= point < group.degree:
        raise InputError(f"point {point} out of range for degree {group.degree}")
    label = _suborbits((_as_array(g.images) for g in group.generators), group.degree)
    return set(np.flatnonzero(label == label[point]).tolist())


def is_transitive(action: GroupAction) -> bool:
    return len(orbit(action.group, 0)) == action.point_count


def _generator_transversal(group: PermutationGroup, point: int) -> _Transversal:
    """The unexplored transversal of `point` under the group's generators, releasing its reps."""
    transversal = _Transversal(point, group.degree, release_reps=True)
    for g in group.generators:
        transversal.add_generator(_as_array(g.images))
    return transversal


def action_on(elements: Sequence, key: Callable, maps: Iterable[Callable]) -> GroupAction:
    """The action on `elements`, one generator ``x -> f(x)`` per map f.

    Point i is ``elements[i]``; an image is found by its `key`.  A map that
    sends an element outside the set raises NumericError, and one that is
    not injective on it raises InputError.
    """
    index = {key(e): i for i, e in enumerate(elements)}
    if len(index) != len(elements):
        raise InputError("the elements of an action must have distinct keys")
    gens = []
    for f in maps:
        images = tuple(index.get(key(f(e))) for e in elements)
        if None in images:
            raise NumericError("a generator sends an element outside the acted-on set")
        gens.append(Permutation(images))
    return GroupAction(PermutationGroup(len(elements), gens))


def induced_pair_action(action: GroupAction) -> GroupAction:
    """Action on ordered pairs of distinct points, indexed lexicographically."""
    n = action.point_count
    if n < 2:
        raise InputError("pair action needs at least 2 points")
    if not is_transitive(action):
        raise InputError("pair action requires a transitive source action")
    pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
    maps = [partial(map, g.images.__getitem__) for g in action.group.generators]
    return action_on(pairs, tuple, maps)


def regular_action(group: PermutationGroup) -> GroupAction:
    """Left-translation action of the group on its own elements.

    Elements are enumerated by the deterministic BFS of
    :meth:`PermutationGroup.elements`, so point indexing is reproducible.
    """
    elems = group.elements()
    return action_on(elems, operator.attrgetter("images"), [g.__mul__ for g in group.generators])
