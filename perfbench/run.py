"""The repository's benchmark: cold and warm campaigns through the SDK.

Usage (from the repository root)::

    python3 perfbench/run.py --workload campaign_1c --seed 0 \\
        --seconds 15 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``campaign_1c``, ``mix_4c`` and ``stream_long``.  Every workload drives
``repro.api.Session`` with specs drawn from ``--seed``.

``--trace 0`` repeats the workload — a cold pass on an empty store and
trace cache, then warm passes over the filled store — for about
``--seconds`` (and at least enough repetitions for the tail
percentile), and reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` runs one untraced and one traced repetition
and reports the per-layer split measured by the wrappers in
``perfbench/tracing.py``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero when any output check fails.
All scratch files live under ``.perfbench-work/`` in the checkout and
are removed at exit, except the traced run's spans, which stay in
``.perfbench-work/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: digests of every workload's canonical outputs at the default seed
EXPECTED = HERE / "expected_digests.json"
DEFAULT_SEED = 0
SETUP_PROBES = 5
VALIDATION = ("the simulator is not validated against hardware; no "
              "accuracy error is reported")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def calibration_score() -> float:
    """Host speed: millions of simple interpreter loop steps per second."""
    steps = 2_000_000
    start = time.perf_counter()
    total = 0
    for i in range(steps):
        total += i & 7
    return steps / (time.perf_counter() - start) / 1e6


def provenance(seed: int) -> dict:
    def git(*args):
        if not (ROOT / ".git").exists():
            return None  # never let git search the directories above
        try:
            done = subprocess.run(["git", "-C", str(ROOT), *args],
                                  capture_output=True, text=True,
                                  timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode())
        source.update(path.read_bytes())
    status = git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": git("rev-parse", "HEAD") or "not a git checkout",
        "git_dirty": None if status is None else bool(status),
        "source_sha256": source.hexdigest(),
        "seed": seed,
        "calibration_mops": round(calibration_score(), 2),
        "validation": VALIDATION,
    }


def measure_setup(work: pathlib.Path, workload, scale: str) -> list:
    """Set-up seconds of fresh interpreters (the first one is discarded:
    it pays for byte-compiling a fresh checkout)."""
    times = []
    for index in range(SETUP_PROBES + 1):
        probe = work / f"setup-{index}"
        probe.mkdir(parents=True)
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(probe),
             scale, str(workload.jobs), "1" if workload.queue else "0"],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times[1:]


def peak_rss_mb() -> tuple:
    """Peak RSS (MB) of this process and of its largest worker child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return own / 1024.0, children / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    from perfbench import report
    from perfbench.workloads import SCALE, WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; "
              f"valid: {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    try:
        if args.trace:
            outcome = report.traced(workload, work)
            kept = work.parent / f"spans-{workload.name}.jsonl"
            shutil.copyfile(work / "spans" / "spans.jsonl", kept)
            outcome.notes.append(f"spans written to {kept.relative_to(ROOT)}")
        else:
            outcome = report.timed(workload, work, args.seconds)
            own, worker = peak_rss_mb()
            outcome.metrics["peak_rss_mb"] = (own + worker, "MB")
            outcome.notes.append(f"peak_rss_mb: {own:.1f} MB benchmark "
                                 f"process + {worker:.1f} MB largest worker")
            setup = measure_setup(work, workload, SCALE)
            outcome.metrics["setup_s"] = (statistics.median(setup), "s")
            outcome.notes.append(
                f"setup_s: median of {len(setup)} fresh interpreters")
        if args.seed == DEFAULT_SEED:
            outcome.check_digest(json.loads(EXPECTED.read_text()))
        # Last: its git subprocesses would count as worker children.
        stamp = provenance(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    outcome.print(stamp)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
