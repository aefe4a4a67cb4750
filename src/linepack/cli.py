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
import os
import sys
from pathlib import Path
from typing import Iterable, Optional

import numpy as np

from . import fixtures
from .errors import InputError, NumericError, ResourceError, refuse_orbital_matrix_past_limit
from .frames import (
    COLOR_TOL,
    REDUCE_TOL,
    REPORT_TOL,
    GramMatrix,
    difference_set_check,
    gap_clusters,
    harmonic_gram,
    packing_report,
    projective_reduce,
)
from .heisenberg import GammaTwist, heis_etf_gram, heis_etf_gram_direct, make_spec
from .idempotents import (
    central_primitive_idempotents,
    multiplicity_free,
    projection_from_subset,
)
from .permgroup import GroupAction, induced_pair_action, orbit, regular_action
from .scheme import SchurianScheme, is_commutative, scheme_from_action
from .symmetry import DEFAULT_NODE_CAP, _cluster_values, find_gram_isomorphism, gram_symmetry_group

MAX_SUBSET_BITS = 20

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
        return fixtures.named_group(spec.split(":", 1)[1])
    return fixtures.group_from_json(_read_json(spec, "group"))


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


# The emitter below writes exactly the bytes of
# json.dumps(value, indent=2, sort_keys=True, default=_json_default), which
# runs the standard library's pure-Python encoder.  It lays out the
# containers itself and leaves the scalars to the C encoder, which runs when
# `indent` is None; with "\x00" as item separator, which encoded JSON never
# contains raw, the C output splits into items.  Values are encoded in
# batches.  A batch's scalars take one C call.  Its containers are grouped
# by shape (dicts by key sequence, lists by length).  A group of lists of
# scalars takes one C call, cut into one body per list.  In any other group
# the children, column by column, are the next batch, and each container
# is filled into the one %-template of its shape.  A batch sits at one
# depth, so a container met more than once in a group has one text, and
# it is made once.


_NESTED = (list, tuple, dict)


def _all_scalars(values: Iterable) -> bool:
    return not any(issubclass(t, _NESTED) for t in set(map(type, values)))


def _c_encode(value) -> str:
    return json.dumps(value, separators=("\x00", ": "), default=_json_default)


def _layout(bodies: list[str], depth: int, brackets: str) -> list[str]:
    """Containers at `depth` around their item texts, joined by "\x00", as indent=2 lays them out."""
    pad = "\n" + "  " * depth
    opening, separator, closing = brackets[0] + pad + "  ", "," + pad + "  ", pad + brackets[1]
    return [opening + body.replace("\x00", separator) + closing for body in bodies]


def _same_shape(rows: list, depth: int) -> list[str]:
    """Texts at `depth` of non-empty dicts with one key sequence, or lists of one length."""
    lists = not isinstance(rows[0], dict)
    if lists and _all_scalars(itertools.chain.from_iterable(rows)):
        # one body per list, cut from one C call, with no text per scalar
        return _layout(_c_encode(rows)[2:-2].split("]\x00["), depth, "[]")
    distinct = {id(row): row for row in rows}
    if len(distinct) < len(rows):
        texts = dict(zip(distinct, _same_shape(list(distinct.values()), depth)))
        return [texts[id(row)] for row in rows]
    if lists:
        keys = range(len(rows[0]))
        slots, brackets = ["%s"] * len(keys), "[]"
    elif len(rows) > 1 and not all(type(k) is str for k in rows[0]):
        # equal keys may encode differently (1, 1.0 and True), so one template per dict
        return [_same_shape([row], depth)[0] for row in rows]
    else:
        keys = sorted(rows[0])
        # keys converted and escaped as json.dumps does, each cut from `"key": 0`
        items = _c_encode(dict.fromkeys(keys, 0))[1:-1].split("\x00")
        slots, brackets = [item[:-1].replace("%", "%%") + "%s" for item in items], "{}"
    [template] = _layout(["\x00".join(slots)], depth, brackets)
    m = len(rows)
    texts = _texts([row[k] for k in keys for row in rows], depth + 1)
    columns = (texts[j : j + m] for j in range(0, len(texts), m))
    return list(map(template.__mod__, zip(*columns)))


def _texts(values: list, depth: int) -> list[str]:
    """The JSON text of each value at `depth`."""
    if _all_scalars(values):
        return _c_encode(values)[1:-1].split("\x00") if values else []
    texts = [""] * len(values)
    scalar_at, shapes = [], {}
    for i, v in enumerate(values):
        if not isinstance(v, _NESTED):
            scalar_at.append(i)
        elif not v:
            texts[i] = "{}" if isinstance(v, dict) else "[]"
        else:
            shapes.setdefault(tuple(v) if isinstance(v, dict) else len(v), []).append(i)
    for i, text in zip(scalar_at, _texts([values[i] for i in scalar_at], depth)):
        texts[i] = text
    for at in shapes.values():
        for i, text in zip(at, _same_shape([values[i] for i in at], depth)):
            texts[i] = text
    return texts


def _dumps(value) -> str:
    """json.dumps(value, indent=2, sort_keys=True, default=_json_default), byte for byte."""
    return _texts([value], 0)[0]


def _emit(payload: dict, output: Optional[str]) -> None:
    text = _dumps(payload)
    if output:
        try:
            Path(output).write_text(text + "\n")
        except OSError as exc:
            raise InputError(f"cannot write output file {output}: {exc.strerror}") from None
        return
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as with `| head`: whatever is still buffered
        # goes to devnull, so the exit flush raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _scheme(args) -> SchurianScheme:
    """The orbital scheme of the group under --action, refused from its point count before it is built."""
    group = _load_group(args.group)
    n = group.degree
    points = group.order if args.action == "regular" else n * (n - 1) if args.action == "pairs" else n
    refuse_orbital_matrix_past_limit(points)
    if args.action == "regular":
        return scheme_from_action(regular_action(group))
    action = GroupAction(group)
    if args.action == "pairs":
        action = induced_pair_action(action)
    return scheme_from_action(action)


def cmd_scheme(args) -> dict:
    sch = _scheme(args)
    payload = sch.to_json_dict()
    payload["commutative"] = is_commutative(sch)
    return payload


def cmd_idempotents(args) -> dict:
    sch = _scheme(args)
    dec = central_primitive_idempotents(sch, seed=args.seed)
    payload = dec.to_json_dict(include_projections=args.projections)
    payload["multiplicity_free"] = multiplicity_free(dec)
    payload["commutative"] = is_commutative(sch)
    return payload


def scan_row(subset, rank: int, gram: GramMatrix, reduce: bool) -> dict:
    """The `scan-etf` row of one subset's projection Gram, reduced when asked."""
    entry = {"subset": list(subset), "rank": rank, "n": gram.n, "reduced": False}
    if reduce:
        gram, class_map = projective_reduce(gram)
        entry["reduced"] = True
        entry["n"] = gram.n
        entry["class_size"] = len(class_map) // gram.n if gram.n else 0
    if gram.n >= 2 and rank >= 1:
        report = packing_report(gram)
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
    return entry


def cmd_scan_etf(args) -> dict:
    dec = central_primitive_idempotents(_scheme(args), seed=args.seed)
    pool = list(range(dec.n_projections))
    largest = len(pool) if args.max_subset_size is None else min(args.max_subset_size, len(pool))
    n_subsets = sum(math.comb(len(pool), k) for k in range(1, largest + 1))
    if n_subsets > 2**MAX_SUBSET_BITS:
        raise ResourceError(
            f"{n_subsets} subsets of {len(pool)} projections exceed the "
            f"2^{MAX_SUBSET_BITS} subset cap"
        )
    rows = [
        scan_row(
            subset,
            sum(dec.ranks[j] for j in subset),
            projection_from_subset(dec, subset),
            args.reduce,
        )
        for k in range(1, largest + 1)
        for subset in itertools.combinations(pool, k)
    ]
    # coherences within REPORT_TOL of each other tie, so rows that are equal
    # in exact arithmetic are ordered by subset and not by rounding noise
    level = np.zeros(len(rows), dtype=np.int64)
    if rows:
        coherences = np.array([e["coherence"] for e in rows])
        for rank, idx in enumerate(gap_clusters(coherences, REPORT_TOL)):
            level[idx] = rank
    ranked = sorted(zip(level, rows), key=lambda t: (not t[1]["is_etf"], t[0], t[1]["subset"]))
    rows = [row for _, row in ranked]
    return {
        "n_projections": dec.n_projections,
        "ranks": list(dec.ranks),
        "multiplicity_free": multiplicity_free(dec),
        "results": rows,
    }


def cmd_reduce(args) -> dict:
    reduced, class_map = projective_reduce(_load_gram(args.gram), tol=args.tol)
    sizes = np.bincount(class_map)
    sizes = sizes[sizes > 0]
    payload = reduced.to_json_dict()
    payload["class_map"] = class_map
    payload["class_count"] = len(sizes)
    payload["equal_class_sizes"] = bool(sizes.min() == sizes.max())
    return payload


def cmd_heisenberg(args) -> dict:
    spec = make_spec(_parse_ints(args.moduli, "--moduli"))
    twist = GammaTwist(args.gamma)
    # the direct traces check their arguments at the call, before any closed-form work
    direct = heis_etf_gram_direct(spec, twist, args.parity) if args.verify else None
    exact_gram = heis_etf_gram(spec, twist, args.parity)
    if direct is not None and not exact_gram.equals(direct):
        raise NumericError("closed-form Gram disagrees with the direct computation")
    gram = exact_gram.to_gram_matrix()
    payload: dict = {
        "moduli": list(spec.moduli),
        "parity": args.parity,
        "gamma": twist.for_spec(spec),
        "n": gram.n,
        "report": packing_report(gram).to_json_dict(),
    }
    if args.exact:
        payload["exact_entries"] = exact_gram.export_entries()
    else:
        payload["gram"] = gram.to_json_dict()
    if args.verify:
        payload["closed_equals_direct"] = True
    return payload


def _parse_dual_subset(text: str, n_moduli: int) -> list[tuple[int, ...]]:
    text = text.strip()
    if text.startswith("["):
        error = InputError(f"--subset is not a JSON list of integer dual elements: {text!r}")
        try:
            items = json.loads(text)
        except ValueError:
            raise error from None
        dual = [item if isinstance(item, list) else [item] for item in items]
        # JSON integers only: a float, a boolean or a string is no dual coordinate
        if not all(type(a) is int for alpha in dual for a in alpha):
            raise error
        return [tuple(alpha) for alpha in dual]
    if n_moduli != 1:
        raise InputError("comma-separated subsets require a single modulus; use JSON lists")
    return [(a,) for a in _parse_ints(text, "--subset")]


def cmd_harmonic(args) -> dict:
    mods = _parse_ints(args.moduli, "--moduli")
    dual = _parse_dual_subset(args.subset, len(mods))
    gram = harmonic_gram(mods, dual)
    flag, lam = difference_set_check(mods, dual)
    return {
        "moduli": mods,
        "subset": [list(d) for d in dual],
        "gram": gram.to_json_dict(),
        "difference_set": flag,
        "lambda": lam,
        "report": packing_report(gram).to_json_dict(),
    }


def cmd_symmetry(args) -> dict:
    gram = _load_gram(args.gram)
    group = gram_symmetry_group(gram, tol=args.tol, node_cap=args.node_cap)
    return {
        "order": group.order,
        "generators": [g.cycle_string() for g in group.generators],
        "transitive": len(orbit(group, 0)) == gram.n,
    }


def _verify_figure2() -> dict:
    """Figure 2's facts from the pipeline's certified tests: the packing report,
    the joint entry colouring and the isomorphism search."""
    sch = scheme_from_action(GroupAction(fixtures.named_group("agl")))
    dec = central_primitive_idempotents(sch)
    checks: dict = {"multiplicity_free": multiplicity_free(dec)}
    target = fixtures.figure2_gram()
    rank7 = [j for j in range(dec.n_projections) if dec.ranks[j] == 7]
    checks["unique_rank7"] = len(rank7) == 1
    computed = projection_from_subset(dec, rank7)
    # the colours find_gram_isomorphism reads: one clustering of both entry sets
    colors = _cluster_values(np.stack([computed.entries, target.entries]), COLOR_TOL).reshape(2, -1)
    histograms = [np.bincount(c, minlength=colors.max() + 1) for c in colors]
    checks["entry_multiset_matches"] = bool(np.array_equal(*histograms))
    checks["permutation_equivalent"] = find_gram_isomorphism(computed, target) is not None
    report = packing_report(computed)
    checks["coherence_is_welch_28_7"] = report.n == 28 and report.d == 7 and report.welch_met
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
        coherence_name: abs(report.coherence - coh) <= REPORT_TOL,
        "orthoplex_met": report.orthoplex_met,
        "levenstein_met": report.levenstein_met,
        "tight": report.is_tight,
        field: report.field == field,
    }
    checks["passed"] = all(checks.values())
    return checks


def cmd_verify_figures(args=None) -> dict:
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

    def command(name, run, help, group=False):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        p.add_argument("--output", default=None)
        if group:
            p.add_argument("group", help=f"group JSON path or fixture:NAME, NAME one of {fixtures.GROUP_NAMES}")
            p.add_argument("--action", default="natural", choices=["natural", "pairs", "regular"])
        return p

    command("scheme", cmd_scheme, "orbital scheme of a transitive action", group=True)

    p = command("idempotents", cmd_idempotents, "primitive central idempotents", group=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--projections", action="store_true", help="include dense matrices")

    p = command("scan-etf", cmd_scan_etf, "rank every projection subset as a packing", group=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-reduce", dest="reduce", action="store_false")
    p.add_argument("--max-subset-size", type=int, default=None)

    # reduce and symmetry alone take --tol: only a Gram read from a file brings its own rounding
    p = command("reduce", cmd_reduce, "projective reduction of a Gram matrix")
    p.add_argument("gram", help="Gram JSON path")
    p.add_argument("--tol", type=float, default=REDUCE_TOL)

    p = command("heisenberg", cmd_heisenberg, "parity ETF of a Heisenberg group")
    p.add_argument("--moduli", required=True, help="comma-separated odd moduli, e.g. 3 or 3,9")
    p.add_argument("--parity", choices=["even", "odd"], default="odd")
    p.add_argument("--gamma", type=int, default=1)
    p.add_argument("--float", dest="exact", action="store_false")
    p.add_argument("--verify", action="store_true", help="check closed form against direct traces")

    p = command("harmonic", cmd_harmonic, "harmonic frame from a dual subset")
    p.add_argument("--moduli", required=True)
    p.add_argument("--subset", required=True, help='e.g. "1,2,4" or "[[0,1],[2,0]]"')

    p = command("symmetry", cmd_symmetry, "symmetry group of a Gram matrix")
    p.add_argument("gram", help="Gram JSON path")
    p.add_argument("--tol", type=float, default=COLOR_TOL)
    p.add_argument("--node-cap", type=int, default=DEFAULT_NODE_CAP)

    command("verify-figures", cmd_verify_figures, "check the shipped figure fixtures")
    return parser


def _check_ranges(args) -> None:
    """Refuse a flag value outside its range, before any input is read."""
    tol = getattr(args, "tol", None)
    if tol is not None and not (math.isfinite(tol) and tol > 0):
        raise InputError(f"--tol must be positive and finite, got {tol}")
    for name, least in (("seed", 0), ("max_subset_size", 1), ("node_cap", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            bound = "at least 1" if least else "non-negative"
            raise InputError(f"--{name.replace('_', '-')} must be {bound}, got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_ranges(args)
        _emit(args.run(args), args.output)
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
