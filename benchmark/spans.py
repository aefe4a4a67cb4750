"""Spans around the layers linepack.cli calls, installed from outside the package.

The tracer replaces, for as long as it is installed, the names that
``linepack.cli`` imports plus a few methods on the package's classes with
wrappers that open a span per call.  Spans nest on the one thread the CLI
runs on; a layer's self time is its span's duration minus the durations of
its direct children, so the self times of one command add up to the
duration of its root span (``cli.self``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# Names imported into linepack.cli, by the layer their time is charged to.
CLI_NAMES = {
    "induced_pair_action": "permgroup.action",
    "regular_action": "permgroup.action",
    "scheme_from_action": "scheme.build",
    "central_primitive_idempotents": "idempotents.decompose",
    "projection_from_subset": "frames.projection",
    "projective_reduce": "frames.reduce",
    "packing_report": "frames.report",
    "gram_symmetry_group": "symmetry.search",
    "heis_etf_gram": "heisenberg.closed",
    "heis_etf_gram_direct": "heisenberg.direct",
}

TIME_LAYERS = (
    "permgroup.action",
    "permgroup.chain",
    "fixtures.load",
    "scheme.build",
    "scheme.structure_constants",
    "idempotents.decompose",
    "frames.projection",
    "frames.reduce",
    "frames.report",
    "symmetry.search",
    "heisenberg.closed",
    "heisenberg.direct",
    "heisenberg.equals",
    "heisenberg.export",
    "cli.self",  # the root span around linepack.cli.main
)

# Sizes kept as the largest value seen; every other count is a sum.
MAX_COUNTS = ("permgroup.degree", "permgroup.group_order", "symmetry.group_order")
COUNTS = MAX_COUNTS + ("scheme.orbitals", "idempotents.projections", "frames.subsets")


class Tracer:
    """Collects self time per layer and counts, for one job at a time."""

    def __init__(self):
        self._stack: list[list[float]] = []  # open spans: [start, time in children]
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0

    def count(self, name: str, value: float) -> None:
        if name in MAX_COUNTS:
            self.counts[name] = max(self.counts[name], value)
        else:
            self.counts[name] += value

    def call(self, layer: str, fn, *args, **kwargs):
        """Run fn inside a span charged to `layer`."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.self_s[layer] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            else:
                self.root_s += duration

    def _wrap(self, layer: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(layer, fn, *args, **kwargs)
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self, linepack) -> None:
        """Wrap the layer entry points of an imported linepack package."""
        cli = linepack.cli
        on_result = {
            "induced_pair_action": lambda a, r: self.count("permgroup.degree", r.point_count),
            "regular_action": lambda a, r: self.count("permgroup.degree", r.point_count),
            "scheme_from_action": self._on_scheme,
            "central_primitive_idempotents": lambda a, r: self.count(
                "idempotents.projections", r.n_projections
            ),
            "projection_from_subset": lambda a, r: self.count("frames.subsets", 1),
            "gram_symmetry_group": lambda a, r: self.count("symmetry.group_order", r.order),
        }
        for name, layer in CLI_NAMES.items():
            self._patch(cli, name, self._wrap(layer, getattr(cli, name), on_result.get(name)))

        fixtures = linepack.fixtures
        self._patch(fixtures, "group_from_json", self._wrap("fixtures.load", fixtures.group_from_json))
        gram_cls = linepack.frames.GramMatrix
        self._patch(
            gram_cls,
            "from_json_dict",
            staticmethod(self._wrap("fixtures.load", gram_cls.from_json_dict)),
        )

        group_cls = linepack.permgroup.PermutationGroup
        self._patch(group_cls, "chain", self._wrap("permgroup.chain", group_cls.chain, self._on_chain))

        scheme_cls = linepack.scheme.SchurianScheme
        constants = scheme_cls.__dict__["structure_constants"]
        traced = functools.cached_property(self._wrap("scheme.structure_constants", constants.func))
        traced.__set_name__(scheme_cls, "structure_constants")
        self._patch(scheme_cls, "structure_constants", traced)

        exact_cls = linepack.heisenberg.ExactGram
        self._patch(exact_cls, "equals", self._wrap("heisenberg.equals", exact_cls.equals))
        self._patch(
            exact_cls, "export_entries", self._wrap("heisenberg.export", exact_cls.export_entries)
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def _on_scheme(self, args, scheme) -> None:
        self.count("permgroup.degree", scheme.point_count)
        self.count("scheme.orbitals", scheme.n_orbitals)

    def _on_chain(self, args, chain) -> None:
        group = args[0]
        self.count("permgroup.degree", group.degree)
        self.count("permgroup.group_order", chain.order())
