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
  fast paths off: the solver's tolerance boundary;
- ``mixed``: 600 pairs at dims 2-7 (100 per dimension) whose spectra are
  scaled by a factor in [0.4, 1.6], clipped to [0, 1] and partly zeroed,
  so that many effects are rank-deficient or touch 1, decided with fast
  paths off.  The solver's constants were tuned on ``generic``, ``acc6``
  and ``edge``; this stream is held out from that tuning.

For each stream it prints the table of (BASE verdict -> CHANGE verdict)
transitions and, per checkout, the largest residual a Coexistent verdict
reports and the solver's Newton steps: their total over the stream, and
their median and maximum over the decisions that took at least one.  Each
child also re-checks its own certificates: every witness against
``verify_mn``, and every dual, where the checkout has them, against
``verify_dual``; the failures are counted per stream.  Each child also
hashes every decision's verdict, reason, residual (``float.hex``), Newton
steps, witness bytes and dual bytes, and the script prints ``bytes: same``
or ``bytes: differ`` for the stream, and the same comparison over the
decisions BASE settles in 0 Newton steps (exact rules and corner
candidates); these lines are informational.

The ``maps`` section fits ``reconstruct`` in each checkout to criterion 9's
standard automorphisms (dims 2-6, 4 flag combinations, 50 specs each) and
to the trace-threshold maps at dims 2-6 with alpha 1 and 2, and checks the
i-th fit with ``verify_reconstruction(handle, fit, 20, seed=i)``.  It also
fits 40 seeded ``random_ges_spec`` maps (dims 2-6 in turn, seed i), which
are not standard, and records the name of the exception each raises, or
``ok``.  It prints ``bytes: same`` or ``bytes: differ`` over each fit's
unitary bytes, flags, residual and gap (``float.hex``) and each ges
outcome, and each checkout's total calls to the map handles during the
fits of the first two groups; it too is informational.  The exit status is 1 if a definite
verdict flipped or became Indeterminate, or a certificate failed, and 0
otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
STREAMS = ("acc1", "acc2", "acc6", "generic", "edge", "mixed")
DIMS = (2, 3, 4, 5)
EDGE_DIMS = (2, 3, 4, 5, 8)
MIXED_DIMS = (2, 3, 4, 5, 6, 7)


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


def _mixed_pairs(dim, count, seed):
    """Randomly rotated effects with scaled, clipped, partly zeroed spectra."""
    import numpy as np
    from effectkit.hermitian import Effect

    rng = np.random.default_rng(seed)
    for _ in range(count):
        pair = []
        for _ in range(2):
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            u, _ = np.linalg.qr(g)
            w = np.clip(rng.uniform(0.4, 1.6) * rng.random(dim), 0.0, 1.0)
            w[:rng.integers(0, dim)] = 0.0
            m = (u * w) @ u.conj().T
            pair.append(Effect((m + m.conj().T) / 2.0))
        yield tuple(pair)


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
        for case in bench_round("generic", 0):
            yield case.a, case.b, True
    elif stream == "edge":
        for dim in EDGE_DIMS:
            for a, b in _edge_pairs(dim, 120, seed=dim):
                yield a, b, False
    else:  # mixed
        for dim in MIXED_DIMS:
            for a, b in _mixed_pairs(dim, 100, seed=100 + dim):
                yield a, b, False


def bench_round(workload, seed):
    """Round 0 of the benchmark's ``generic``, ``rules`` or ``symmetry`` workload.

    The workloads import the ``effectkit`` found in sys.modules or on
    sys.path when the bench module is first imported.
    """
    if str(HERE / "bench") not in sys.path:
        sys.path.insert(0, str(HERE / "bench"))
    import workloads

    cls = {"generic": workloads.Generic, "rules": workloads.Rules,
           "symmetry": workloads.Symmetry}[workload]
    return cls(seed, HERE / ".bench_work").round_inputs(0)


def _fingerprint(res, dual) -> str:
    """sha256 of one decision's verdict, reason, residual, steps and certificate bytes."""
    digest = hashlib.sha256()
    parts = [e.matrix for e in res.witness or ()] + list(dual or ())
    head = (res.verdict.value, res.reason.value, float(res.residual).hex(),
            res.iterations, res.witness is not None, dual is not None)
    digest.update(repr(head).encode())
    for x in parts:
        digest.update(x.tobytes())
    return digest.hexdigest()


def _map_fits():
    """Fingerprints, handle calls and ges outcomes of the maps section."""
    from effectkit.harness import trial_rng
    from effectkit.preservers import (
        TraceThresholdSpec,
        preserver_handle,
        random_ges_spec,
        random_standard_spec,
    )
    from effectkit.reconstruction import reconstruct, verify_reconstruction

    specs = [random_standard_spec(dim, seed=trial_rng(0, f"acc9:{dim}:{flags}", index),
                                  transpose=bool(flags & 1), perp=bool(flags & 2))
             for dim in range(2, 7) for flags in range(4) for index in range(50)]
    specs += [TraceThresholdSpec(dim, alpha) for dim in range(2, 7) for alpha in (1.0, 2.0)]
    prints, calls = [], 0
    for index, spec in enumerate(specs):
        handle = preserver_handle(spec)

        def counted(e):
            nonlocal calls
            calls += 1
            return handle(e)

        fit = reconstruct(counted, spec.dim)
        digest = hashlib.sha256(fit.unitary.tobytes())
        gap = verify_reconstruction(handle, fit, 20, seed=index)
        digest.update(repr((fit.antiunitary, fit.perp, fit.residual.hex(), gap.hex())).encode())
        prints.append(digest.hexdigest())
    ges = []
    for index in range(40):
        spec = random_ges_spec(2 + index % 5, seed=index)
        try:
            reconstruct(preserver_handle(spec), spec.dim)
            ges.append("ok")
        except ValueError as exc:
            ges.append(type(exc).__name__)
    return {"fingerprints": prints, "calls": calls, "ges": ges}


def emit() -> dict:
    """Verdicts, certificate failures and byte fingerprints of the effectkit on sys.path."""
    import effectkit.coexistence as co

    verify_dual = getattr(co, "verify_dual", None)
    out = {}
    for stream in STREAMS:
        verdicts, steps, prints, bad, worst = [], [], [], 0, 0.0
        for a, b, fast in _pairs(stream):
            res = co.decide(a, b, fast_paths=fast)
            verdicts.append(res.verdict.value)
            steps.append(res.iterations)
            if res.coexistent:
                worst = max(worst, res.residual)
            if res.witness is not None and not co.verify_mn(a, b, *res.witness):
                bad += 1
            dual = getattr(res, "dual", None)
            if dual is not None and not verify_dual(a, b, *dual):
                bad += 1
            prints.append(_fingerprint(res, dual))
        out[stream] = {"verdicts": verdicts, "steps": steps, "bad_certificates": bad,
                       "max_witness_residual": worst, "fingerprints": prints}
    out["maps"] = _map_fits()
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


def _steps(steps) -> str:
    taken = sorted(x for x in steps if x > 0)
    if not taken:
        return "total 0"
    return (f"total {sum(taken)}, median {statistics.median(taken):g} "
            f"and max {taken[-1]} over {len(taken)}")


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
        print(f"  Newton steps: base {_steps(base[stream]['steps'])}; "
              f"change {_steps(change[stream]['steps'])}")
        same = base[stream]["fingerprints"] == change[stream]["fingerprints"]
        settled = [(old, new) for old, new, steps in zip(
            base[stream]["fingerprints"], change[stream]["fingerprints"], base[stream]["steps"])
            if steps == 0]
        same_settled = all(old == new for old, new in settled)
        print(f"  bytes: {'same' if same else 'differ'}; over the {len(settled)} "
              f"decisions base settles in 0 steps: {'same' if same_settled else 'differ'}")
        print(table)
        failed |= worse or bad[1] > 0
    maps = base["maps"], change["maps"]
    same = maps[0]["fingerprints"] == maps[1]["fingerprints"]
    same_ges = maps[0]["ges"] == maps[1]["ges"]
    print(f"maps: {len(maps[1]['fingerprints'])} reconstruct fits, handle calls "
          f"(base, change): ({maps[0]['calls']}, {maps[1]['calls']}); "
          f"{len(maps[1]['ges'])} ges fits: {dict(sorted(Counter(maps[1]['ges']).items()))}")
    print(f"  bytes: {'same' if same else 'differ'}; "
          f"ges outcomes: {'same' if same_ges else 'differ'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
