"""Tests of the benchmark's own pieces: inputs, output checks, tail rule and tracer.

Run from the root of a checkout:  python -m pytest -q benchmark
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import linepack.cli  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def agl_job(tmp_path: Path, seed: int = 0) -> workloads.Job:
    return workloads.build_job("scan-pairs", seed, SRC, tmp_path)


def run_cli(argv: list[str], tracer=None) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tracer.call("cli.self", linepack.cli.main, argv) if tracer else linepack.cli.main(argv)
    assert code == 0
    return json.loads(buf.getvalue())


def test_inputs_follow_the_seed(tmp_path):
    def files(seed, sub):
        job = workloads.build_job("hoggar-symmetry", seed, SRC, tmp_path / sub)
        flags = [[a for a in c.argv if str(tmp_path) not in a] for c in job.commands]
        return [p.read_text() for p in job.input_files], flags

    assert files(3, "a") == files(3, "b")
    assert files(3, "a")[0] != files(4, "c")[0]


def test_relabelling_is_a_conjugation():
    import random

    gens = workloads.dihedral_generators(7)
    relabelled = workloads.relabel_generators(gens, random.Random(1))
    original = linepack.permgroup.PermutationGroup(7, gens)
    conjugate = linepack.permgroup.PermutationGroup(7, relabelled)
    assert relabelled != gens
    assert conjugate.order == original.order == 14


def test_real_payload_passes_and_corrupted_payload_fails(tmp_path):
    agl = next(c for c in agl_job(tmp_path).commands if c.label == "agl-lines")
    payload = run_cli(agl.argv)
    assert workloads.check_output(agl, json.dumps(payload).encode()) == []

    row = next(r for r in payload["results"] if r["rank"] == 7 and r["n"] == 28)
    row["coherence"] += 1e-3
    assert workloads.check_output(agl, json.dumps(payload).encode())
    row["coherence"] -= 1e-3
    row["is_etf"] = False
    assert workloads.check_output(agl, json.dumps(payload).encode())
    assert workloads.check_output(agl, b"{not json")
    assert workloads.check_output(agl, b"[]")


@pytest.mark.parametrize(
    "check, good, bad",
    [
        (
            workloads.dihedral_regular(4, 9),
            {"ranks": [1] * 4 + [4] * 9, "m": [1] * 4 + [2] * 9, "n": [1] * 4 + [2] * 9},
            {"ranks": [1] * 4 + [4] * 9, "m": [1] * 4 + [4] * 9, "n": [1] * 4 + [2] * 9},
        ),
        (workloads.regular_commutative(3), {"ranks": [1, 1, 1]}, {"ranks": [1, 2]}),
        (workloads.group_order(120), {"order": 120}, {"order": 60}),
        (
            workloads.heisenberg_etf(13, "odd"),
            {"closed_equals_direct": True, "report": {"d": 78, "n": 169, "coherence": 1 / 12, "is_etf": True}},
            {"closed_equals_direct": False, "report": {"d": 78, "n": 169, "coherence": 1 / 12, "is_etf": True}},
        ),
    ],
)
def test_checks_reject_wrong_facts(check, good, bad):
    assert check(good) == []
    assert check(bad)


def test_tail_keeps_samples_beyond_it():
    assert run.tail([5.0, 1.0, 3.0, 2.0, 4.0]) == (4.0, 80.0, 1)
    value, pct, beyond = run.tail([float(i) for i in range(100)])
    assert (value, pct, beyond) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_self_times_add_up_to_the_root_span(tmp_path):
    sl2, m11, agl = agl_job(tmp_path).commands
    tracer = Tracer()
    tracer.install(linepack)
    try:
        payload = run_cli(agl.argv, tracer)
    finally:
        tracer.uninstall()
    assert linepack.cli.projective_reduce is linepack.frames.projective_reduce
    assert workloads.check_output(agl, json.dumps(payload).encode()) == []
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, abs=1e-9)
    assert tracer.counts["frames.subsets"] == len(payload["results"])
    assert tracer.counts["permgroup.degree"] == 28
    assert tracer.self_s["frames.reduce"] > 0 and tracer.self_s["idempotents.decompose"] > 0
