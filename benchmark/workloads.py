"""Workloads of the linepack benchmark: seeded inputs, CLI jobs and output checks.

A job is a workload's fixed list of ``linepack`` CLI commands, run in order.
Every input is derived from the workload seed: each group's points are
relabelled by a seeded permutation, each symmetry Gram gets a seeded
simultaneous row/column permutation, and the ``--seed`` and ``--gamma`` flags
are drawn from the seed.  The checks read only facts that survive the
relabelling: (d, n, coherence) rows of the reduced packings, constituent
ranks, symmetry group orders and the exact Heisenberg verification.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
DATA_DIR = BENCH_DIR / "data"

# The CLI rounds nothing, so coherences are compared with a float tolerance.
COHERENCE_TOL = 1e-7


@dataclass
class Command:
    """One CLI invocation: its argv after ``linepack`` and the check of its stdout."""

    label: str
    argv: list[str]
    check: Callable[[dict], list[str]]  # returns the failed facts, empty when correct


@dataclass
class Job:
    commands: list[Command]
    input_files: list[Path]  # what the set-up probe parses


# --- seeded relabelling ------------------------------------------------------


def relabel_generators(generators: list[list[int]], rng: random.Random) -> list[list[int]]:
    """Conjugate every generator by one random permutation s: g' = s g s^-1."""
    degree = len(generators[0])
    s = list(range(degree))
    rng.shuffle(s)
    out = []
    for g in generators:
        images = [0] * degree
        for i in range(degree):
            images[s[i]] = s[g[i]]
        out.append(images)
    return out


def write_group(path: Path, generators: list[list[int]], rng: random.Random) -> Path:
    gens = relabel_generators(generators, rng)
    path.write_text(json.dumps({"degree": len(gens[0]), "generators": gens}))
    return path


def write_gram(path: Path, rows: list[list[float]], rng: random.Random) -> Path:
    """Real Gram JSON with rows and columns permuted by one seeded permutation."""
    n = len(rows)
    s = list(range(n))
    rng.shuffle(s)
    entries = [[[rows[s[i]][s[j]], 0.0] for j in range(n)] for i in range(n)]
    path.write_text(json.dumps({"n": n, "entries": entries}))
    return path


# --- base groups and Grams ---------------------------------------------------


def fixture_generators(src_dir: Path, name: str) -> list[list[int]]:
    data = json.loads((src_dir / "linepack" / "data" / name).read_text())
    return [list(map(int, g)) for g in data["generators"]]


def cyclic_generators(n: int) -> list[list[int]]:
    return [[(i + 1) % n for i in range(n)]]


def dihedral_generators(n: int) -> list[list[int]]:
    """Rotation and reflection of the n-gon; the group has order 2n."""
    return [[(i + 1) % n for i in range(n)], [(-i) % n for i in range(n)]]


def hoggar_generators() -> list[list[int]]:
    """Generators of the 256-point Hoggar action, built by the package's fixture code."""
    from linepack.fixtures import hoggar_heisenberg_action

    return [list(g.images) for g in hoggar_heisenberg_action().group.generators]


def hoggar_etf_rows() -> list[list[float]]:
    """The real 28x64 Hoggar ETF as a Gram: (7 I + S) / 64 with S the stored signs."""
    data = json.loads((DATA_DIR / "hoggar_28x64_signs.json").read_text())
    diag = data["diagonal"][0] / data["diagonal"][1]
    off = data["off_diagonal"][0] / data["off_diagonal"][1]
    return [
        [diag if i == j else (off if ch == "+" else -off) for j, ch in enumerate(row)]
        for i, row in enumerate(data["signs"])
    ]


def simplex_rows(n: int) -> list[list[float]]:
    return [[1.0 if i == j else -1.0 / (n - 1) for j in range(n)] for i in range(n)]


# --- output checks -----------------------------------------------------------


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= COHERENCE_TOL


def scan_rows(*expected: tuple[int, int, float, bool | None]) -> Callable[[dict], list[str]]:
    """Each expected (d, n, coherence, is_etf) must be a row of the scan; None skips is_etf."""

    def check(payload: dict) -> list[str]:
        rows = payload.get("results", [])
        bad = []
        for d, n, coh, etf in expected:
            hit = any(
                row.get("rank") == d
                and row.get("n") == n
                and _close(row.get("coherence", -1.0), coh)
                and (etf is None or row.get("is_etf") is etf)
                for row in rows
            )
            if not hit:
                bad.append(f"no row {d}x{n} at coherence {coh:.6g} (etf={etf})")
        return bad

    return check


def regular_commutative(n: int) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        ranks = payload.get("ranks", [])
        bad = []
        if len(ranks) != n:
            bad.append(f"{len(ranks)} constituents, expected {n}")
        if any(r != 1 for r in ranks):
            bad.append("a constituent has rank other than 1")
        return bad

    return check


def dihedral_regular(n_linear: int, n_planar: int) -> Callable[[dict], list[str]]:
    """Regular action of a dihedral group: ranks 1 (degree 1) and 4 (degree 2, multiplicity 2)."""

    def check(payload: dict) -> list[str]:
        ranks = payload.get("ranks", [])
        degrees = payload.get("m", [])
        mults = payload.get("n", [])
        bad = []
        if len(ranks) != n_linear + n_planar:
            bad.append(f"{len(ranks)} constituents, expected {n_linear + n_planar}")
        if sorted(ranks) != [1] * n_linear + [4] * n_planar:
            bad.append(f"ranks {sorted(ranks)} are not 1^{n_linear} 4^{n_planar}")
        if len(degrees) != len(ranks) or len(mults) != len(ranks):
            bad.append("degrees or multiplicities missing")
        elif any(d is None or m is None or r != d * m for r, d, m in zip(ranks, degrees, mults)):
            bad.append("rank != degree * multiplicity")
        return bad

    return check


def group_order(order: int) -> Callable[[dict], list[str]]:
    def check(payload: dict) -> list[str]:
        got = payload.get("order")
        return [] if got == order else [f"symmetry order {got}, expected {order}"]

    return check


def heisenberg_etf(size: int, parity: str) -> Callable[[dict], list[str]]:
    """|A| = size: an n = size^2 ETF in d = size(size -+ 1)/2, coherence 1/(size -+ 1)."""
    sign = 1 if parity == "even" else -1
    d, n, coh = size * (size + sign) // 2, size * size, 1.0 / (size + sign)

    def check(payload: dict) -> list[str]:
        rep = payload.get("report", {})
        bad = []
        if payload.get("closed_equals_direct") is not True:
            bad.append("closed form does not equal the direct computation")
        if not (
            rep.get("d") == d
            and rep.get("n") == n
            and _close(rep.get("coherence", -1.0), coh)
            and rep.get("is_etf") is True
        ):
            bad.append(f"report is not a {d}x{n} ETF at coherence {coh:.6g}")
        return bad

    return check


# --- workloads ---------------------------------------------------------------

PARTS = ("scan-pairs", "regular-idempotents", "hoggar-symmetry", "heisenberg-exact")
# The benchmark's workloads each run two parts in one job: a check's time
# budget allows two workloads of about a minute each, and longer runs average
# over more of a shared machine's speed drift than four half-minute ones.
COMBINED = {
    "action-pipeline": ("scan-pairs", "regular-idempotents"),
    "symmetry-exact": ("hoggar-symmetry", "heisenberg-exact"),
}
WORKLOADS = (*COMBINED, *PARTS)


def build_job(workload: str, seed: int, src_dir: Path, work_dir: Path) -> Job:
    """Write the workload's inputs for `seed` into work_dir and return its job."""
    if workload in COMBINED:
        jobs = [build_job(part, seed, src_dir, work_dir) for part in COMBINED[workload]]
        return Job(
            [c for job in jobs for c in job.commands], [f for job in jobs for f in job.input_files]
        )
    rng = random.Random(f"{workload}:{seed}")
    work_dir.mkdir(parents=True, exist_ok=True)

    def group_file(name: str, gens: list[list[int]]) -> str:
        return str(write_group(work_dir / f"{name}.json", gens, rng))

    def cli_seed() -> str:
        return str(rng.randrange(1, 2**31))

    if workload == "scan-pairs":
        sl2 = group_file("sl2_f8", fixture_generators(src_dir, "sl2_f8_projective.json"))
        m11 = group_file("m11", fixture_generators(src_dir, "m11_on_12_points.json"))
        agl = group_file("agl", fixture_generators(src_dir, "agl_f2_3_lines.json"))
        commands = [
            Command(
                "sl2_f8-pairs",
                ["scan-etf", sl2, "--action", "pairs", "--seed", cli_seed()],
                scan_rows((21, 36, 1 / 7, True), (7, 36, 3 / 7, False)),
            ),
            Command(
                "m11-pairs",
                ["scan-etf", m11, "--action", "pairs", "--seed", cli_seed()],
                scan_rows((11, 66, 1 / 3, None)),
            ),
            Command(
                "agl-lines",
                ["scan-etf", agl, "--seed", cli_seed()],
                scan_rows((7, 28, 1 / 3, True), (21, 28, 1 / 9, True)),
            ),
        ]
        files = [sl2, m11, agl]
    elif workload == "regular-idempotents":
        z31 = group_file("z31", cyclic_generators(31))
        z40 = group_file("z40", cyclic_generators(40))
        d20 = group_file("d20", dihedral_generators(20))
        commands = [
            Command("z31", ["idempotents", z31, "--seed", cli_seed()], regular_commutative(31)),
            Command("z40", ["idempotents", z40, "--seed", cli_seed()], regular_commutative(40)),
            Command(
                "d20-regular",
                ["idempotents", d20, "--action", "regular", "--seed", cli_seed()],
                dihedral_regular(4, 9),
            ),
        ]
        files = [z31, z40, d20]
    elif workload == "hoggar-symmetry":
        hog = group_file("hoggar", hoggar_generators())
        etf = str(write_gram(work_dir / "hoggar_28x64.json", hoggar_etf_rows(), rng))
        simplex = str(write_gram(work_dir / "simplex_20.json", simplex_rows(20), rng))
        commands = [
            Command(
                "hoggar-scan",
                ["scan-etf", hog, "--max-subset-size", "2", "--seed", cli_seed()],
                scan_rows((8, 64, 1 / 3, True), (28, 64, 1 / 7, True)),
            ),
            Command("hoggar-etf-symmetry", ["symmetry", etf], group_order(2_580_480)),
            Command("simplex-20-symmetry", ["symmetry", simplex], group_order(math.factorial(20))),
        ]
        files = [hog, etf, simplex]
    elif workload == "heisenberg-exact":
        gamma13 = str(rng.randrange(1, 13))
        gamma3 = str(rng.randrange(1, 3))
        commands = [
            Command(
                "z13-odd",
                ["heisenberg", "--moduli", "13", "--gamma", gamma13, "--verify"],
                heisenberg_etf(13, "odd"),
            ),
            Command(
                "z3xz3-even",
                ["heisenberg", "--moduli", "3,3", "--parity", "even", "--gamma", gamma3, "--verify"],
                heisenberg_etf(9, "even"),
            ),
        ]
        files = []
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return Job(commands, [Path(f) for f in files])


def check_output(command: Command, stdout: bytes) -> list[str]:
    """Failed facts of one command's stdout; an unparsable payload is one failure."""
    try:
        payload = json.loads(stdout)
    except (ValueError, UnicodeDecodeError) as exc:
        return [f"stdout is not JSON ({exc.__class__.__name__})"]
    if not isinstance(payload, dict):
        return ["stdout is not a JSON object"]
    return command.check(payload)
