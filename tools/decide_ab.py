"""Time decide and the symmetry operation in two checkouts inside one interpreter.

    python tools/decide_ab.py BASE [CHANGE] [--seeds 1,3] [--runs 11]

BASE and CHANGE are directories holding a checkout of this repository
(CHANGE defaults to the one this script lives in).  Each checkout's
``src/effectkit`` is copied into a temporary directory under a name of its
own (``effectkit_base``, ``effectkit_change``) and both are imported here,
so the two run side by side in one process, on one BLAS thread.

Each checkout builds its own inputs, untimed, with the stream builder of
``tools/verdicts.py``: round 0 of the benchmark's ``generic``, ``rules``
and ``symmetry`` workloads for each seed given.  A ``generic`` operation is
``decide(a, b)`` on two Effects; a ``rules`` operation is the benchmark's:
two Effects built from raw arrays, ``decide``, then ``verify_mn`` and
``mn_to_efg`` on any witness.  One ``rules`` round is 200 operations, so
one seed resolves little below about 10%; give several.  A ``symmetry``
operation is the benchmark's own ``Symmetry.run``: build the map handle,
``reconstruct``, ``verify_reconstruction`` over 20 trials and classify two
source/image pairs.  Every stream is run --runs times, the checkouts
alternating which goes first, and each operation keeps its minimum over
the runs.  Per checkout the script prints, over those minima, the median,
the mean of the decisions that took 0 Newton steps and the mean of those
that took at least one (``symmetry``: the mean of all), the 95th
percentile and the total, and the ratio change / base of each.  It also
checks that both checkouts return the same answer per operation: on
``generic`` and ``rules`` the verdict, reason, residual (``float.hex``),
Newton steps and witness and dual bytes, and on ``rules`` whether
``verify_mn`` accepts the witness and ``mn_to_efg`` converts it; on
``symmetry`` the flags, unitary bytes, gap (``float.hex``), query count
and strata.

It is informational and exits 0, or 1 if that check fails.  Run-to-run
noise on a small shared host can exceed 30% between benchmark processes;
minima over interleaved runs in one process resolve changes of a few
percent.
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
    """verdicts.bench_round(workload, seed) and the bench's workloads module,
    both imported with pkg as ``effectkit``."""
    aliases = {"effectkit": pkg}
    for sub in (path.stem for path in Path(pkg.__file__).parent.glob("*.py")):
        if sub != "__init__":
            aliases[f"effectkit.{sub}"] = importlib.import_module(f"{pkg.__name__}.{sub}")
    saved = {k: sys.modules.pop(k) for k in list(sys.modules)
             if k == "workloads" or k == "effectkit" or k.startswith("effectkit.")}
    sys.modules.update(aliases)
    try:
        return verdicts.bench_round(workload, seed), sys.modules["workloads"]
    finally:
        for k in [*aliases, "workloads"]:
            sys.modules.pop(k, None)
        sys.modules.update(saved)


def _op(pkg, workload: str, bench):
    if workload == "symmetry":
        return bench.Symmetry(0, HERE / ".bench_work").run
    if workload == "generic":
        return lambda x: (pkg.decide(x.a, x.b), None)

    def rules(x):  # the decision, and the bench's certificate answer
        a, b = pkg.Effect(x.a), pkg.Effect(x.b)
        res = pkg.decide(a, b)
        if res.witness is None:
            return res, None
        if not pkg.verify_mn(a, b, *res.witness):
            return res, False
        try:
            pkg.mn_to_efg(*res.witness, a, b)
        except pkg.InvalidCertificate:
            return res, False
        return res, True
    return rules


def _time(op, xs, best, results):
    for i, x in enumerate(xs):
        t0 = perf_counter()
        res = op(x)
        dt = perf_counter() - t0
        if dt < best[i]:
            best[i] = dt
        results[i] = res


def _signature(workload: str, out) -> tuple:
    """What both checkouts must return alike for one operation."""
    if workload == "symmetry":
        fit = out.fit
        return (fit.antiunitary, fit.perp, fit.unitary.tobytes(),
                float(out.verify_gap).hex(), out.queries, out.strata)
    res, certified = out
    parts = [e.matrix for e in res.witness or ()] + list(res.dual or ())
    return (res.verdict.value, res.reason.value, float(res.residual).hex(), res.iterations,
            [x.tobytes() for x in parts], certified)


def _stats(best, results, workload) -> dict:
    us = sorted(t * 1e6 for t in best)
    out = {"median us": statistics.median(us)}
    if workload == "symmetry":
        out["mean us"] = statistics.fmean(us)
    else:
        steps = [res.iterations for res, _ in results]
        zero = [t * 1e6 for t, k in zip(best, steps) if k == 0]
        solved = [t * 1e6 for t, k in zip(best, steps) if k > 0]
        out["0-step mean us"] = statistics.fmean(zero) if zero else float("nan")
        out["barrier mean us"] = statistics.fmean(solved) if solved else float("nan")
    out["p95 us"] = us[min(len(us) - 1, int(0.95 * len(us)))]
    out["total ms"] = sum(us) / 1e3
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", nargs="?", type=Path, default=HERE)
    parser.add_argument("--seeds", default="1,3",
                        help="comma-separated seeds of the rounds (default 1,3)")
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
        streams = [(workload, seed) for workload in ("generic", "rules", "symmetry")
                   for seed in seeds]
        for workload, seed in streams:
            built = [_inputs(pkg, workload, seed) for pkg in pkgs]
            xs = [x for x, _ in built]
            ops = [_op(pkg, workload, bench) for pkg, (_, bench) in zip(pkgs, built)]
            best = [[float("inf")] * len(x) for x in xs]
            results = [[None] * len(x) for x in xs]
            for run in range(args.runs):
                for side in ((0, 1) if run % 2 == 0 else (1, 0)):
                    _time(ops[side], xs[side], best[side], results[side])
            base, change = (_stats(b, r, workload) for b, r in zip(best, results))
            if ([_signature(workload, r) for r in results[0]]
                    != [_signature(workload, r) for r in results[1]]):
                print(f"{workload} seed {seed}: the checkouts' answers differ",
                      file=sys.stderr)
                return 1
            kind = "answers equal"
            if workload != "symmetry":
                kind += f", {sum(r.iterations == 0 for r, _ in results[0])} of them 0-step"
            print(f"{workload} seed {seed}: {len(xs[0])} operations, {kind}; "
                  f"min of {args.runs} interleaved runs each")
            for key in base:
                print(f"  {key:>16}: base {base[key]:10.1f}  change {change[key]:10.1f}"
                      f"  ratio {change[key] / base[key]:.3f}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
