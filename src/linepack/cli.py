"""Command-line front end: transitive actions -> schemes -> projections -> packings.

Every command reads/writes the JSON formats of the owning modules and is
deterministic given its inputs and seed.  Exit codes: 0 success, 2 input
error, 3 numeric error, 4 resource cap exceeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import fixtures
from .errors import InputError, NumericError, ResourceError
from .frames import (
    GramMatrix,
    coherence,
    difference_set_check,
    gap_clusters,
    harmonic_gram,
    packing_report,
    projective_reduce,
    welch_bound,
)
from .heisenberg import GammaTwist, heis_etf_gram, heis_etf_gram_direct, make_spec
from .idempotents import (
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
)
from .permgroup import GroupAction, induced_pair_action, orbit, regular_action
from .scheme import is_commutative, scheme_from_action
from .symmetry import ColoredDigraph, gram_symmetry_group, find_gram_isomorphism

MAX_SUBSET_BITS = 20

_FIXTURE_GROUPS = {
    "agl": "agl_f2_3_lines.json",
    "sl2_f8": "sl2_f8_projective.json",
    "m11": "m11_on_12_points.json",
}


@dataclass
class JobConfig:
    """Parsed invocation: what to run, on what, and under which knobs."""

    group_path: str
    action: str = "natural"
    multiplicity_free_only: bool = False
    max_subset_size: Optional[int] = None
    tol: float = 1e-8
    seed: int = 0
    element_limit: int = 10**6

    def __post_init__(self):
        if self.tol <= 0:
            raise InputError("tolerances must be positive")
        if self.max_subset_size is not None and self.max_subset_size < 1:
            raise InputError(f"--max-subset-size must be at least 1, got {self.max_subset_size}")


def _read_json(path_str: str, what: str):
    """Parsed contents of a JSON input file; unreadable or malformed files are input errors."""
    try:
        return json.loads(Path(path_str).read_text())
    except OSError as exc:
        raise InputError(f"cannot read {what} file {path_str}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} file {path_str} is not valid JSON: {exc}") from None


def _parse_ints(text: str, what: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InputError(f"{what} must be comma-separated integers, got {text!r}") from None


def _load_group(spec: str):
    if spec.startswith("fixture:"):
        name = spec.split(":", 1)[1]
        return fixtures.load_group_fixture(_FIXTURE_GROUPS.get(name, name))
    return fixtures.group_from_json(_read_json(spec, "group"))


def _build_action(group, action_label: str, element_limit: int) -> GroupAction:
    if action_label == "natural":
        return GroupAction(group)
    if action_label == "pairs":
        return induced_pair_action(GroupAction(group))
    if action_label == "regular":
        return regular_action(group, element_limit)
    raise InputError(f"unknown action {action_label!r} (use natural, pairs, or regular)")


def _load_gram(path_str: str) -> GramMatrix:
    return GramMatrix.from_json_dict(_read_json(path_str, "Gram"))


def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(payload: dict, output: Optional[str]) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
    if output:
        Path(output).write_text(text + "\n")
    else:
        print(text)


def cmd_scheme(cfg: JobConfig) -> dict:
    group = _load_group(cfg.group_path)
    action = _build_action(group, cfg.action, cfg.element_limit)
    sch = scheme_from_action(action)
    payload = sch.to_json_dict()
    payload["commutative"] = is_commutative(sch)
    return payload


def cmd_idempotents(cfg: JobConfig, include_projections: bool = False) -> dict:
    group = _load_group(cfg.group_path)
    action = _build_action(group, cfg.action, cfg.element_limit)
    sch = scheme_from_action(action)
    dec = central_primitive_idempotents(sch, seed=cfg.seed, tol=cfg.tol)
    payload = dec.to_json_dict(include_projections=include_projections)
    payload["multiplicity_free"] = multiplicity_free(dec)
    payload["commutative"] = is_commutative(sch)
    return payload


def _iter_subsets(indices: list[int], max_size: Optional[int]):
    for r in range(1, len(indices) + 1):
        if max_size is not None and r > max_size:
            return
        yield from itertools.combinations(indices, r)


def cmd_scan_etf(cfg: JobConfig, reduce: bool = True) -> dict:
    group = _load_group(cfg.group_path)
    action = _build_action(group, cfg.action, cfg.element_limit)
    sch = scheme_from_action(action)
    dec = central_primitive_idempotents(sch, seed=cfg.seed, tol=cfg.tol)
    pool = list(range(dec.n_projections))
    if cfg.multiplicity_free_only:
        pool = [j for j in pool if dec.multiplicities[j] == 1]
    largest = len(pool) if cfg.max_subset_size is None else min(cfg.max_subset_size, len(pool))
    n_subsets = sum(math.comb(len(pool), k) for k in range(1, largest + 1))
    if n_subsets > 2**MAX_SUBSET_BITS:
        raise ResourceError(
            f"{n_subsets} subsets of {len(pool)} projections exceed the "
            f"2^{MAX_SUBSET_BITS} subset cap"
        )
    rows = []
    for subset in _iter_subsets(pool, cfg.max_subset_size):
        gram = projection_from_subset(dec, subset)
        rank = sum(dec.ranks[j] for j in subset)
        entry = {"subset": list(subset), "rank": rank, "n": gram.n, "reduced": False}
        if reduce:
            gram, class_map = projective_reduce(gram, tol=max(cfg.tol, 1e-9) * 10)
            entry["reduced"] = True
            entry["n"] = gram.n
            entry["class_size"] = len(class_map) // gram.n if gram.n else 0
        if gram.n >= 2 and rank >= 1:
            report = packing_report(gram, tol=cfg.tol)
            entry.update(
                {
                    "coherence": report.coherence,
                    "welch": report.welch,
                    "is_etf": report.is_etf,
                    "welch_met": report.welch_met,
                    "orthoplex_met": report.orthoplex_met,
                    "levenstein_met": report.levenstein_met,
                    "field": report.field,
                }
            )
        else:
            entry.update({"coherence": 0.0, "is_etf": True, "welch_met": True, "field": "real"})
        rows.append(entry)
    # coherences within tol of each other tie, so rows that are equal in
    # exact arithmetic are ordered by subset and not by rounding noise
    level = np.zeros(len(rows), dtype=np.int64)
    if rows:
        for rank, idx in enumerate(gap_clusters(np.array([e["coherence"] for e in rows]), cfg.tol)):
            level[idx] = rank
    ranked = sorted(zip(level, rows), key=lambda t: (not t[1]["is_etf"], t[0], t[1]["subset"]))
    rows = [row for _, row in ranked]
    return {
        "n_projections": dec.n_projections,
        "ranks": list(dec.ranks),
        "multiplicity_free": multiplicity_free(dec),
        "results": rows,
    }


def cmd_reduce(gram_path: str, tol: float) -> dict:
    gram = _load_gram(gram_path)
    reduced, class_map = projective_reduce(gram, tol=tol)
    sizes = [class_map.count(r) for r in sorted(set(class_map))]
    payload = reduced.to_json_dict()
    payload["class_map"] = class_map
    payload["class_count"] = len(sizes)
    payload["equal_class_sizes"] = len(set(sizes)) == 1
    return payload


def cmd_heisenberg(
    moduli: str, parity: str, gamma: int, exact: bool, verify: bool, tol: float
) -> dict:
    spec = make_spec(_parse_ints(moduli, "--moduli"))
    twist = GammaTwist(gamma)
    exact_gram = heis_etf_gram(spec, twist, parity)
    gram = exact_gram.to_gram_matrix()
    payload: dict = {
        "moduli": list(spec.moduli),
        "parity": parity,
        "gamma": twist.for_spec(spec),
        "n": gram.n,
        "report": packing_report(gram, tol=tol).to_json_dict(),
    }
    if exact:
        payload["exact_entries"] = exact_gram.export_entries()
    else:
        payload["gram"] = gram.to_json_dict()
    if verify:
        direct = heis_etf_gram_direct(spec, twist, parity)
        payload["closed_equals_direct"] = exact_gram.equals(direct)
        if not payload["closed_equals_direct"]:
            raise NumericError("closed-form Gram disagrees with the direct computation")
    return payload


def _parse_dual_subset(text: str, n_moduli: int) -> list[tuple[int, ...]]:
    text = text.strip()
    if text.startswith("["):
        try:
            return [
                (int(item),) if isinstance(item, (int, float)) else tuple(int(x) for x in item)
                for item in json.loads(text)
            ]
        except (ValueError, TypeError):
            raise InputError(f"--subset is not a JSON list of dual elements: {text!r}") from None
    if n_moduli != 1:
        raise InputError("comma-separated subsets require a single modulus; use JSON lists")
    return [(a,) for a in _parse_ints(text, "--subset")]


def cmd_harmonic(moduli: str, subset: str, tol: float) -> dict:
    mods = _parse_ints(moduli, "--moduli")
    dual = _parse_dual_subset(subset, len(mods))
    gram = harmonic_gram(mods, dual)
    flag, lam = difference_set_check(mods, dual)
    return {
        "moduli": mods,
        "subset": [list(d) for d in dual],
        "gram": gram.to_json_dict(),
        "difference_set": flag,
        "lambda": lam,
        "report": packing_report(gram, tol=tol).to_json_dict(),
    }


def cmd_symmetry(gram_path: str, tol: float, node_cap: int, colors_path: Optional[str]) -> dict:
    gram = _load_gram(gram_path)
    colors = None
    if colors_path:
        data = _read_json(colors_path, "colors")
        if not isinstance(data, dict) or "color" not in data:
            raise InputError(f"colors file {colors_path} needs a 'color' matrix")
        colors = ColoredDigraph(gram.n, np.asarray(data["color"], dtype=np.int64))
    group = gram_symmetry_group(gram, tol=tol, node_cap=node_cap, colors=colors)
    return {
        "order": group.order,
        "generators": [g.cycle_string() for g in group.generators],
        "transitive": len(orbit(group, 0)) == gram.n,
    }


def _verify_figure2() -> dict:
    action = fixtures.agl_line_action()
    sch = scheme_from_action(action)
    dec = central_primitive_idempotents(sch)
    checks: dict = {"multiplicity_free": multiplicity_free(dec)}
    target = fixtures.figure2_gram()
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    checks["unique_rank7"] = len(rank7) == 1
    computed = projection_from_subset(dec, rank7)
    ok_values = (
        np.abs(np.diag(computed.entries.real) - 0.25).max() < 1e-9
        and np.abs(computed.entries.imag).max() < 1e-9
    )
    off = computed.entries.real[~np.eye(28, dtype=bool)]
    counts = {
        "plus": int((np.abs(off - 1 / 12) < 1e-9).sum()),
        "minus": int((np.abs(off + 1 / 12) < 1e-9).sum()),
    }
    target_off = target.entries.real[~np.eye(28, dtype=bool)]
    target_counts = {
        "plus": int((np.abs(target_off - 1 / 12) < 1e-9).sum()),
        "minus": int((np.abs(target_off + 1 / 12) < 1e-9).sum()),
    }
    checks["entry_multiset_matches"] = bool(ok_values and counts == target_counts)
    perm = find_gram_isomorphism(computed, target)
    checks["permutation_equivalent"] = perm is not None
    checks["coherence_is_welch_28_7"] = (
        abs(coherence(computed.normalized()) - welch_bound(28, 7)) < 1e-9
    )
    checks["passed"] = all(bool(v) for v in checks.values())
    return checks


# figure -> (loader, n, rank, coherence check name, coherence, field), all from
# the paper's three-MUB figures
_MUB_FIGURES = {
    "figure3": (fixtures.figure3_gram, 12, 4, "coherence_half", 0.5, "real"),
    "figure4": (fixtures.figure4_gram, 6, 2, "coherence_inv_sqrt2", 1 / np.sqrt(2), "complex"),
}


def _verify_mub_figure(load, n: int, d: int, coherence_name: str, coh: float, field: str) -> dict:
    report = packing_report(load())
    checks = {
        "n": report.n == n,
        f"rank_{d}": report.d == d,
        coherence_name: abs(report.coherence - coh) < 1e-9,
        "orthoplex_met": report.orthoplex_met,
        "levenstein_met": report.levenstein_met,
        "tight": report.is_tight,
        field: report.field == field,
    }
    checks["passed"] = all(checks.values())
    return checks


def cmd_verify_figures() -> dict:
    results = {"figure2": _verify_figure2()}
    for name, spec in _MUB_FIGURES.items():
        results[name] = _verify_mub_figure(*spec)
    for name in sorted(results):
        status = "pass" if results[name]["passed"] else "FAIL"
        print(f"{name}: {status}", file=sys.stderr)
    if not all(r["passed"] for r in results.values()):
        raise NumericError("figure verification failed")
    return results


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linepack",
        description="Line packings from transitive group actions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_group_opts(p):
        p.add_argument("group", help="group JSON path or fixture:{agl,sl2_f8,m11}")
        p.add_argument("--action", default="natural", choices=["natural", "pairs", "regular"])
        p.add_argument("--element-limit", type=int, default=10**6)
        p.add_argument("--tol", type=float, default=1e-8)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", default=None)

    p = sub.add_parser("scheme", help="orbital scheme of a transitive action")
    add_group_opts(p)

    p = sub.add_parser("idempotents", help="primitive central idempotents")
    add_group_opts(p)
    p.add_argument("--projections", action="store_true", help="include dense matrices")

    p = sub.add_parser("scan-etf", help="rank every projection subset as a packing")
    add_group_opts(p)
    p.add_argument("--reduce", dest="reduce", action="store_true", default=True)
    p.add_argument("--no-reduce", dest="reduce", action="store_false")
    p.add_argument("--max-subset-size", type=int, default=None)
    p.add_argument(
        "--multiplicity-free-only",
        action="store_true",
        help="only multiplicity-one constituents enter subsets",
    )

    p = sub.add_parser("reduce", help="projective reduction of a Gram matrix")
    p.add_argument("gram", help="Gram JSON path")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--output", default=None)

    p = sub.add_parser("heisenberg", help="parity ETF of a Heisenberg group")
    p.add_argument("--moduli", required=True, help="comma-separated odd moduli, e.g. 3 or 3,9")
    p.add_argument("--parity", choices=["even", "odd"], default="odd")
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--exact", dest="exact", action="store_true", default=True)
    p.add_argument("--float", dest="exact", action="store_false")
    p.add_argument("--verify", action="store_true", help="check closed form against direct traces")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--output", default=None)

    p = sub.add_parser("harmonic", help="harmonic frame from a dual subset")
    p.add_argument("--moduli", required=True)
    p.add_argument("--subset", required=True, help='e.g. "1,2,4" or "[[0,1],[2,0]]"')
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--output", default=None)

    p = sub.add_parser("symmetry", help="symmetry group of a Gram matrix")
    p.add_argument("gram", help="Gram JSON path")
    p.add_argument("--tol", type=float, default=1e-7)
    p.add_argument("--node-cap", type=int, default=10**7)
    p.add_argument("--assume-colors", default=None, help='JSON file with a "color" matrix')
    p.add_argument("--output", default=None)

    p = sub.add_parser("verify-figures", help="check the shipped figure fixtures")
    p.add_argument("--output", default=None)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("scheme", "idempotents", "scan-etf"):
            cfg = JobConfig(
                group_path=args.group,
                action=args.action,
                tol=args.tol,
                seed=args.seed,
                element_limit=args.element_limit,
                multiplicity_free_only=getattr(args, "multiplicity_free_only", False),
                max_subset_size=getattr(args, "max_subset_size", None),
            )
            if args.command == "scheme":
                payload = cmd_scheme(cfg)
            elif args.command == "idempotents":
                payload = cmd_idempotents(cfg, include_projections=args.projections)
            else:
                payload = cmd_scan_etf(cfg, reduce=args.reduce)
            _emit(payload, args.output)
        elif args.command == "reduce":
            _emit(cmd_reduce(args.gram, args.tol), args.output)
        elif args.command == "heisenberg":
            _emit(
                cmd_heisenberg(
                    args.moduli, args.parity, args.gamma, args.exact, args.verify, args.tol
                ),
                args.output,
            )
        elif args.command == "harmonic":
            _emit(cmd_harmonic(args.moduli, args.subset, args.tol), args.output)
        elif args.command == "symmetry":
            _emit(
                cmd_symmetry(args.gram, args.tol, args.node_cap, args.assume_colors),
                args.output,
            )
        elif args.command == "verify-figures":
            _emit(cmd_verify_figures(), args.output)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
