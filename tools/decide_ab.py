"""Time decide in two checkouts inside one interpreter, pair by pair.

    python tools/decide_ab.py BASE [CHANGE] [--seeds 1,3] [--runs 11]

BASE and CHANGE are directories holding a checkout of this repository
(CHANGE defaults to the one this script lives in).  Each checkout's
``src/effectkit`` is copied into a temporary directory under a name of its
own (``effectkit_base``, ``effectkit_change``) and both are imported here,
so the two run side by side in one process, on one BLAS thread.

Each checkout builds its own inputs, untimed, with the stream builder of
``tools/verdicts.py``: round 0 of the benchmark's ``generic`` workload for
each seed given, and round 0 of its ``rules`` workload at the first seed.
A ``generic`` operation is ``decide(a, b)`` on two Effects; a ``rules``
operation is the benchmark's: two Effects built from raw arrays,
``decide``, then ``verify_mn`` and ``mn_to_efg`` on any witness.  Every
stream is run --runs times, the checkouts alternating which goes first,
and each operation keeps its minimum over the runs.  Per checkout the
script prints, over those minima, the median, the mean of the decisions
that took 0 Newton steps, the mean of those that took at least one, the
95th percentile and the total, and the ratio change / base of each.

It is informational and exits 0.  Run-to-run noise on a small shared host
can exceed 30% between benchmark processes; minima over interleaved runs in
one process resolve changes of a few percent.
"""

from __future__ import annotations

import argparse
import importlib
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "tools"))

import verdicts  # noqa: E402


def _load(checkout: Path, name: str, into: Path):
    """The package of checkout/src, imported as `name` from a copy in `into`."""
    shutil.copytree(checkout / "src" / "effectkit", into / name)
    return importlib.import_module(name)


def _inputs(pkg, workload: str, seed: int):
    """verdicts.bench_round(workload, seed), built with pkg as ``effectkit``."""
    aliases = {"effectkit": pkg}
    aliases.update({f"effectkit.{sub}": mod for sub, mod in vars(pkg).items()
                    if getattr(mod, "__name__", "").startswith(pkg.__name__ + ".")})
    saved = {k: sys.modules.pop(k) for k in list(sys.modules)
             if k == "workloads" or k == "effectkit" or k.startswith("effectkit.")}
    sys.modules.update(aliases)
    try:
        return verdicts.bench_round(workload, seed)
    finally:
        for k in [*aliases, "workloads"]:
            sys.modules.pop(k, None)
        sys.modules.update(saved)


def _op(pkg, workload: str):
    if workload == "generic":
        return lambda x: pkg.decide(x.a, x.b)

    def rules(x):
        a, b = pkg.Effect(x.a), pkg.Effect(x.b)
        res = pkg.decide(a, b)
        if res.witness is not None and pkg.verify_mn(a, b, *res.witness):
            pkg.mn_to_efg(*res.witness, a, b)
        return res
    return rules


def _time(op, xs, best, steps):
    for i, x in enumerate(xs):
        t0 = perf_counter()
        res = op(x)
        dt = perf_counter() - t0
        if dt < best[i]:
            best[i] = dt
        steps[i] = res.iterations


def _stats(best, steps) -> dict:
    us = sorted(t * 1e6 for t in best)
    zero = [t * 1e6 for t, k in zip(best, steps) if k == 0]
    solved = [t * 1e6 for t, k in zip(best, steps) if k > 0]
    return {
        "median us": statistics.median(us),
        "0-step mean us": statistics.fmean(zero) if zero else float("nan"),
        "barrier mean us": statistics.fmean(solved) if solved else float("nan"),
        "p95 us": us[min(len(us) - 1, int(0.95 * len(us)))],
        "total ms": sum(us) / 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", nargs="?", type=Path, default=HERE)
    parser.add_argument("--seeds", default="1,3",
                        help="comma-separated seeds of the generic rounds (default 1,3)")
    parser.add_argument("--runs", type=int, default=11,
                        help="interleaved runs per stream; each operation keeps its minimum")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    tmp = Path(tempfile.mkdtemp(prefix="decide_ab_"))
    sys.path.insert(0, str(tmp))
    try:
        pkgs = [_load(path.resolve(), name, tmp)
                for path, name in ((args.base, "effectkit_base"),
                                   (args.change, "effectkit_change"))]
        streams = [("generic", seed) for seed in seeds] + [("rules", seeds[0])]
        for workload, seed in streams:
            xs = [_inputs(pkg, workload, seed) for pkg in pkgs]
            ops = [_op(pkg, workload) for pkg in pkgs]
            best = [[float("inf")] * len(x) for x in xs]
            steps = [[0] * len(x) for x in xs]
            for run in range(args.runs):
                for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                    _time(ops[side], xs[side], best[side], steps[side])
            base, change = (_stats(b, s) for b, s in zip(best, steps))
            zero = sum(k == 0 for k in steps[0])
            print(f"{workload} seed {seed}: {len(xs[0])} operations, {zero} of them "
                  f"0-step; min of {args.runs} interleaved runs each")
            for key in base:
                print(f"  {key:>16}: base {base[key]:10.1f}  change {change[key]:10.1f}"
                      f"  ratio {change[key] / base[key]:.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
