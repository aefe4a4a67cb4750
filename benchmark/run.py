"""Benchmark of the linepack CLI on named workloads.

Run from the root of a source checkout:

    python3 benchmark/run.py --workload action-pipeline --seed 1 --seconds 56 --trace 0

With ``--trace 0`` it runs the workload's job (a fixed list of CLI commands)
again and again for ``--seconds`` seconds, one fresh ``python -m linepack.cli``
process per command, and reports the end-to-end metrics.  With ``--trace 1``
it replays the same argv in this process through ``linepack.cli.main`` with
spans around each layer and reports the per-layer metrics.  Every output is
checked; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the checkout holds no
linepack sources.  See README.md in this directory for the workloads and
the map from layer metrics to end-to-end metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from spans import COUNTS, TIME_LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, Job, build_job, check_output  # noqa: E402

BLAS_THREADS = 1
COMMAND_TIMEOUT_S = 30.0
# Start no new job after this many seconds, so a run ends well within 180 s.
DEADLINE_S = 90.0
SETUP_SAMPLES = 7
TAIL_BEYOND = 10

SETUP_PROBE = """\
import json, sys
import linepack.cli
from linepack.fixtures import group_from_json
from linepack.frames import GramMatrix
for path in sys.argv[1:]:
    with open(path) as fh:
        data = json.load(fh)
    (GramMatrix.from_json_dict if "entries" in data else group_from_json)(data)
"""


class Totals:
    """Commands attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def environment_record() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    return {
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
    }


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with min(10, N // 4) of the N samples beyond it.

    Returns (value, percentile, samples beyond).  Ten samples beyond need
    more than ten jobs, and a run's time budget holds only a few, so the
    count beyond shrinks with N (to 0, the maximum, below four jobs) and is
    reported beside the value.
    """
    ordered = sorted(values)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


# --- end-to-end pass: one fresh process per command --------------------------


def run_process(args: list[str], env: dict, stdout, stderr) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS in MiB) of one child; killed after the timeout."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=stdout, stderr=stderr, env=env, cwd=ROOT)
    timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def measure_setup(job: Job, env: dict) -> list[float]:
    """Wall times of fresh processes that import the CLI and parse the inputs."""
    args = [sys.executable, "-c", SETUP_PROBE, *map(str, job.input_files)]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        wall, code, _ = run_process(args, env, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError(f"set-up probe exited with {code}")
        if i:  # the first one fills the bytecode and page caches
            samples.append(wall)
    return samples


def e2e_pass(job: Job, seconds: float, work: Path, totals: Totals, started: float) -> dict:
    env = child_env()
    setup = measure_setup(job, env)
    job_walls: list[float] = []
    per_command: dict[str, list[float]] = {c.label: [] for c in job.commands}
    peak_rss = 0.0
    measure_start = time.perf_counter()
    while True:
        job_wall = 0.0
        results = []
        for cmd in job.commands:
            out_path, err_path = work / f"{cmd.label}.out", work / f"{cmd.label}.err"
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                wall, code, rss = run_process(
                    [sys.executable, "-m", "linepack.cli", *cmd.argv], env, out, err
                )
            job_wall += wall
            per_command[cmd.label].append(wall)
            peak_rss = max(peak_rss, rss)
            results.append((cmd, code, out_path, err_path))
        job_walls.append(job_wall)
        for cmd, code, out_path, err_path in results:
            if code != 0:
                stderr = err_path.read_text(errors="replace").strip().splitlines()[-1:]
                problems = [f"exit code {code} {stderr}"]
            else:
                problems = check_output(cmd, out_path.read_bytes())
            totals.record(cmd.label, problems)
        now = time.perf_counter()
        predicted = now - measure_start + statistics.median(job_walls)
        if predicted > seconds or now - started > DEADLINE_S:
            break

    tail_wall, tail_pct, beyond = tail(job_walls)
    n_jobs = len(job_walls)
    metrics = {
        "job_s": statistics.median(job_walls),
        "job_s_tail": tail_wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mib": peak_rss,
        "ok_frac": 1.0 - totals.failed / totals.attempted,
    }
    for label, walls in per_command.items():
        print(f"command {label:22s} median {statistics.median(walls):.4f} s over {len(walls)} runs")
    print(f"job_s        {metrics['job_s']:.4f} s   (median of {n_jobs} jobs)")
    print(f"job_s_tail   {tail_wall:.4f} s   (p{tail_pct:.0f}: {n_jobs} jobs, {beyond} beyond)")
    print(f"setup_s      {metrics['setup_s']:.4f} s   (median of {len(setup)} fresh processes)")
    print(f"peak_rss_mib {peak_rss:.1f} MiB")
    print(f"failed_frac  {totals.failed / totals.attempted:.4f} fraction "
          f"({totals.failed} of {totals.attempted} commands)")
    return metrics


# --- traced pass: the same argv replayed in this process ---------------------


def import_linepack():
    import linepack
    import linepack.cli

    if SRC.resolve() not in Path(linepack.__file__).resolve().parents:
        raise RuntimeError(f"imported linepack from {linepack.__file__}, not from {SRC}")
    return linepack


def clear_function_caches() -> None:
    """Empty module-level functools caches of linepack, as a fresh process would start."""
    for name, module in list(sys.modules.items()):
        if name.startswith("linepack."):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


def replay_job(linepack, job: Job, tracer) -> tuple[float, list]:
    """(wall seconds spent in the commands, [(command, exit code, stdout)])."""
    main = linepack.cli.main
    wall = 0.0
    results = []
    for cmd in job.commands:
        clear_function_caches()
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = tracer.call("cli.self", main, cmd.argv) if tracer else main(cmd.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of one command is counted, and the run goes on
            traceback.print_exc()
            code = 1
        wall += time.perf_counter() - start
        results.append((cmd, code, buf.getvalue()))
    return wall, results


def check_replay(results: list, totals: Totals) -> None:
    for cmd, code, text in results:
        problems = [f"exit code {code}"] if code != 0 else check_output(cmd, text.encode())
        totals.record(cmd.label, problems)


def layer_sample(tracer, wall: float, results: list) -> dict:
    """Per-layer metrics of one traced job."""
    if abs(sum(tracer.self_s.values()) - tracer.root_s) > 1e-6:
        raise RuntimeError(f"self times do not add up to the {tracer.root_s} s of the root spans")
    sample = {f"{layer}_s": tracer.self_s.get(layer, 0.0) for layer in TIME_LAYERS}
    sample["trace.unattributed_s"] = wall - tracer.root_s
    sample.update({name: tracer.counts.get(name, 0) for name in COUNTS})
    payloads = [json.loads(text) for _, code, text in results if code == 0]
    sample["frames.etf_rows"] = sum(
        row.get("is_etf") is True for payload in payloads for row in payload.get("results", [])
    )
    sample["cli.output_bytes"] = sum(len(text.encode()) for _, _, text in results)
    subsets = sample["frames.subsets"]
    frames_s = sample["frames.projection_s"] + sample["frames.reduce_s"] + sample["frames.report_s"]
    sample["frames.etf_yield"] = sample["frames.etf_rows"] / subsets if subsets else 0.0
    sample["frames.subsets_per_s"] = subsets / frames_s if subsets and frames_s else 0.0
    return sample


def traced_pass(job: Job, seconds: float, totals: Totals, started: float) -> dict:
    linepack = import_linepack()
    tracer = Tracer()
    measure_start = time.perf_counter()
    _, results = replay_job(linepack, job, None)  # warm-up: imports and BLAS start-up
    check_replay(results, totals)

    plain_walls, traced_walls, samples = [], [], []
    while True:
        wall, results = replay_job(linepack, job, None)
        plain_walls.append(wall)
        check_replay(results, totals)

        tracer.reset()
        tracer.install(linepack)
        try:
            wall, results = replay_job(linepack, job, tracer)
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        check_replay(results, totals)

        samples.append(layer_sample(tracer, wall, results))

        now = time.perf_counter()
        pair = statistics.median(plain_walls) + statistics.median(traced_walls)
        if now - measure_start + pair > seconds or now - started > DEADLINE_S:
            break

    metrics = {name: statistics.fmean(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
    print(f"traced jobs {len(traced_walls)}: median wall {statistics.median(traced_walls):.4f} s "
          f"traced, {statistics.median(plain_walls):.4f} s untraced")
    for name in sorted(metrics):
        print(f"{name:28s} {metrics[name]:.6g}")
    return metrics


def metric_units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "linepack" / "cli.py").is_file():
        print(f"error: no linepack sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # Set before numpy is imported here or in any child; see README.md.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    # One core for this process and its children: no migration between
    # cores mid-command, and every run measures on the same core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    print(f"linepack benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment_record(), sort_keys=True))
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"linepack-{args.workload}-", dir=build_dir))
    totals = Totals()
    try:
        job = build_job(args.workload, args.seed, SRC, work)
        if args.trace:
            units = metric_units("per_layer")
            values = traced_pass(job, args.seconds, totals, started)
        else:
            units = metric_units("end_to_end")
            values = e2e_pass(job, args.seconds, work, totals, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    mismatch = set(units) ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    result = {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
