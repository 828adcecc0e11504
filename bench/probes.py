"""Measurements outside the operation loop: set-up, kernels, files, provenance."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from effectkit import Effect, psd_part, read_matrix, write_matrix

from workloads import CHILD_ENV, ROOT, interior_effect

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120


def _child(args) -> str:
    done = subprocess.run([sys.executable, *args], env=CHILD_ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{args} exited {done.returncode}: {done.stderr}")
    return done.stdout


def setup_runs(workload: str | None, work: Path, repeats: int) -> list[dict]:
    """Fresh interpreters timing the import and, optionally, a first call."""
    args = [str(BENCH_DIR / "setup_probe.py")]
    if workload is not None:
        args += [workload, str(work / "warmup")]
    runs = [json.loads(_child(args)) for _ in range(repeats)]
    expected = str(ROOT / "src" / "effectkit" / "__init__.py")
    for run in runs:
        if run["effectkit"] != expected:
            raise RuntimeError(f"child imported effectkit from {run['effectkit']}")
    return runs


def setup_seconds(workload: str, work: Path, repeats: int) -> list[float]:
    """Import plus first-call time in each of `repeats` fresh interpreters."""
    return [r["import_s"] + r["first_call_s"] for r in setup_runs(workload, work, repeats)]


def import_seconds(work: Path, repeats: int) -> float:
    return statistics.median(r["import_s"] for r in setup_runs(None, work, repeats))


def interpreter_seconds(repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        _child(["-c", "pass"])
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _per_call_us(fn, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def kernel_probe() -> dict:
    """Per-matrix cost of psd_part and eigh, single and in a stack of 1,024."""
    out = {}
    rng = np.random.default_rng(0)
    for n in (2, 4, 8):
        # A Hermitian matrix with eigenvalues of both signs, so psd_part clips.
        u = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        h = (u * np.linspace(-1.0, 1.0, n)) @ u.conj().T
        h = (h + h.conj().T) / 2.0
        stack = np.stack([h] * 1024)
        out[f"hermitian.psd_part_us.n{n}"] = _per_call_us(lambda: psd_part(h), 400)
        out[f"hermitian.eigh_us.n{n}"] = _per_call_us(lambda: np.linalg.eigh(h), 400)
        out[f"hermitian.eigh_stacked_us.n{n}"] = (
            _per_call_us(lambda: np.linalg.eigh(stack), 3) / 1024)
    return out


def matrixio_probe(work: Path) -> dict:
    """Write and read cost of one dim-3 effect file like the cli workload's."""
    work.mkdir(parents=True, exist_ok=True)
    effect = Effect(interior_effect(3, np.random.default_rng(0)))
    path = work / "probe.mat"
    return {
        "matrixio.write_us": _per_call_us(lambda: write_matrix(path, effect), 200),
        "matrixio.read_us": _per_call_us(lambda: read_matrix(path), 200),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
    except OSError:  # git not installed
        return None
    return done.stdout.strip() or None


def provenance() -> dict:
    """Machine, toolchain and code identity recorded with every result."""
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    src_files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in src_files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_modules": len(src_files),
    }
