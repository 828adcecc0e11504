"""Compare the coexistence verdicts of two checkouts, stream by stream.

    python tools/verdicts.py BASE [CHANGE]

BASE and CHANGE are directories holding a checkout of this repository
(CHANGE defaults to the one this script lives in).  Each checkout runs in
its own interpreter with PYTHONPATH=<checkout>/src, over the same streams:

- ``acc1``: acceptance criterion 1's rule stream (500 pairs per rule and
  dimension, dims 2-5), decided with fast paths on;
- ``acc2``: the same pairs with fast paths off (criterion 2);
- ``acc6``: criterion 6's generic pairs (200 per dimension) and their four
  standard-automorphism images;
- ``generic``: round 0 of seed 0 of the benchmark's ``generic`` workload;
- ``edge``: rank-one pairs whose sum peaks at 1 +- 10^u, u uniform in
  [-7, -2] (120 per dimension, dims 2-5 and 8, half above 1), decided with
  fast paths off: the solver's tolerance boundary.

For each stream it prints the table of (BASE verdict -> CHANGE verdict)
transitions and, per checkout, the largest residual a Coexistent verdict
reports.  Each child also re-checks its own certificates: every witness
against ``verify_mn``, and every dual, where the checkout has them, against
``verify_dual``; the failures are counted per stream.  The exit status is 1
if a definite verdict flipped or became Indeterminate, or a certificate
failed, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
STREAMS = ("acc1", "acc2", "acc6", "generic", "edge")
DIMS = (2, 3, 4, 5)
EDGE_DIMS = (2, 3, 4, 5, 8)


def _edge_pairs(dim, count, seed):
    """Rank-one effects alpha pp*, beta qq* whose sum peaks at 1 +- 10^u.

    On span{p, q} the peak is ((alpha + beta) + sqrt((alpha + beta)^2 -
    4 alpha beta (1 - c))) / 2 for c = |<p, q>|^2, which fixes c; draws with
    no overlap c in (0, 1) reaching the target are skipped.
    """
    import numpy as np
    from effectkit.hermitian import Effect

    rng = np.random.default_rng(seed)
    made = 0
    while made < count:
        alpha, beta = rng.uniform(0.3, 0.999, size=2)
        target = 1.0 + (1 if made % 2 else -1) * 10.0 ** rng.uniform(-7.0, -2.0)
        total = alpha + beta
        gap = 2.0 * target - total
        one_minus_c = (total * total - gap * gap) / (4.0 * alpha * beta)
        if not (gap > 0.0 and 0.0 < one_minus_c < 1.0):
            continue
        p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r -= p * np.vdot(p, r)
        r /= np.linalg.norm(r)
        q = (math.sqrt(1.0 - one_minus_c) * np.exp(2j * np.pi * rng.random()) * p
             + math.sqrt(one_minus_c) * r)
        yield Effect(alpha * np.outer(p, p.conj())), Effect(beta * np.outer(q, q.conj()))
        made += 1


def _pairs(stream):
    """(a, b, fast_paths) for every decision of one stream, in order."""
    from effectkit.harness import RULE_FAMILIES, rule_instance, trial_rng
    from effectkit.hermitian import random_effect
    from effectkit.preservers import apply_standard, random_standard_spec

    if stream in ("acc1", "acc2"):
        for rule in RULE_FAMILIES:
            for dim in DIMS:
                for index in range(500):
                    rng = trial_rng(0, f"acc1:{rule}:{dim}", index)
                    a, b, _ = rule_instance(rule, dim, rng)
                    yield a, b, stream == "acc1"
    elif stream == "acc6":
        for dim in DIMS:
            for index in range(200):
                rng = trial_rng(0, f"acc6:{dim}", index)
                a = random_effect(dim, seed=rng)
                b = random_effect(dim, seed=rng)
                yield a, b, True
                for flags in range(4):
                    spec = random_standard_spec(
                        dim, seed=trial_rng(1, f"acc6:{dim}:{flags}", index),
                        transpose=bool(flags & 1), perp=bool(flags & 2))
                    yield apply_standard(spec, a), apply_standard(spec, b), True
    elif stream == "generic":
        sys.path.insert(0, str(HERE / "bench"))
        from workloads import Generic

        for case in Generic(0, HERE / ".bench_work").round_inputs(0):
            yield case.a, case.b, True
    else:  # edge
        for dim in EDGE_DIMS:
            for a, b in _edge_pairs(dim, 120, seed=dim):
                yield a, b, False


def emit() -> dict:
    """Verdicts and certificate failures of the effectkit on sys.path."""
    import effectkit.coexistence as co

    verify_dual = getattr(co, "verify_dual", None)
    out = {}
    for stream in STREAMS:
        verdicts, bad, worst = [], 0, 0.0
        for a, b, fast in _pairs(stream):
            res = co.decide(a, b, fast_paths=fast)
            verdicts.append(res.verdict.value)
            if res.coexistent:
                worst = max(worst, res.residual)
            if res.witness is not None and not co.verify_mn(a, b, *res.witness):
                bad += 1
            dual = getattr(res, "dual", None)
            if dual is not None and not verify_dual(a, b, *dual):
                bad += 1
        out[stream] = {"verdicts": verdicts, "bad_certificates": bad,
                       "max_witness_residual": worst}
    return out


def _run_child(checkout: Path):
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.Popen([sys.executable, __file__, "--emit"],
                            env=env, stdout=subprocess.PIPE, text=True)


def _table(base, change) -> tuple[str, bool]:
    pairs = Counter(zip(base, change))
    lines, worse = [], False
    for (old, new), count in sorted(pairs.items()):
        lost = old != new and old != "Indeterminate"
        worse |= lost
        lines.append(f"  {old:>13} -> {new:<13} {count:6d}{'  <-- lost' if lost else ''}")
    return "\n".join(lines), worse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path, default=HERE)
    parser.add_argument("--emit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        json.dump(emit(), sys.stdout)
        return 0
    if args.base is None:
        parser.error("BASE is required")

    children = [_run_child(path.resolve()) for path in (args.base, args.change)]
    results = []
    for child in children:
        stdout, _ = child.communicate()
        if child.returncode:
            print(f"a child exited with status {child.returncode}", file=sys.stderr)
            return 2
        results.append(json.loads(stdout))
    base, change = results

    failed = False
    for stream in STREAMS:
        table, worse = _table(base[stream]["verdicts"], change[stream]["verdicts"])
        bad = base[stream]["bad_certificates"], change[stream]["bad_certificates"]
        worst = base[stream]["max_witness_residual"], change[stream]["max_witness_residual"]
        print(f"{stream}: {len(change[stream]['verdicts'])} decisions, "
              f"certificates failing (base, change): {bad}, "
              f"largest Coexistent residual (base, change): ({worst[0]:.3g}, {worst[1]:.3g})")
        print(table)
        failed |= worse or bad[1] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
