"""effectkit benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload generic --seed 0 --seconds 20 --trace 0

Workloads: generic, rules, symmetry, cli (see bench/README.md for why each
exists and what it should and should not move).  One closed-loop caller
runs whole rounds of the workload for about --seconds, checks every answer
and prints, as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones of BENCHMARK.json, measured untraced; with --trace 1
they are the per-layer ones, from a traced pass followed by an untraced
pass over the same inputs.  A full report goes to .bench_out/.

The run exits 1 if any answer is wrong and 2, printing no result, if it
cannot run (for instance when src/effectkit is missing from the checkout).
"""

import os

# Pin BLAS before numpy is imported; child processes get the same setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from array import array  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("generic", "rules", "symmetry", "cli")
SETUP_REPEATS = 4  # fresh interpreters before and again after the timed loop
PROBE_REPEATS = 5  # fresh interpreters per cli.interpreter_s / cli.import_s


class CannotRun(Exception):
    pass


def import_effectkit():
    """Import effectkit from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import effectkit
    except ImportError as exc:
        raise CannotRun(f"cannot import effectkit from {src}: {exc}") from exc
    if Path(effectkit.__file__).resolve().parent != (src / "effectkit").resolve():
        raise CannotRun(f"effectkit was imported from {effectkit.__file__}, not {src}")


@dataclass
class Measured:
    # Latencies are packed doubles and signatures are kept only when the
    # traced run compares them, so the benchmark's own memory barely grows
    # with the number of operations and peak_rss_mb stays the program's.
    latencies: array = field(default_factory=lambda: array("d"))
    signatures: list | None = None
    statuses: Counter = field(default_factory=Counter)
    errors: list = field(default_factory=list)
    rounds: int = 0
    child_rss_kb: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)


def measure(wl, runner, *, seconds=None, rounds=None, signatures=False) -> Measured:
    """Run whole rounds for about `seconds`, or exactly `rounds` rounds."""
    m = Measured(signatures=[] if signatures else None)
    deadline = perf_counter() + seconds if seconds is not None else None
    while rounds is None or m.rounds < rounds:
        started = perf_counter()
        xs = wl.round_inputs(m.rounds)
        results = []
        for x in xs:
            t0 = perf_counter()
            try:
                res = runner(x)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                res = None
            m.latencies.append(perf_counter() - t0)
            results.append(res)
        for res in results:
            m.statuses["failed" if res is None else wl.status(res)] += 1
            if signatures:
                m.signatures.append(None if res is None else wl.signature(res))
            m.child_rss_kb = max(m.child_rss_kb, getattr(res, "maxrss_kb", 0))
        m.errors += [f"round {m.rounds} {e}" for e in wl.check_round(xs, results)]
        m.rounds += 1
        # Stop before a round that would end past the deadline, so that a
        # run that fits one long round (generic) does not run two.
        now = perf_counter()
        if deadline is not None and now + (now - started) > deadline:
            break
    return m


def harrell_davis(sorted_x, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of sorted samples.

    A Beta((n+1)q, (n+1)(1-q))-weighted mean of all order statistics, with
    the weights taken at interval midpoints.  Where a few hundred samples
    lie thinly around the quantile it does not jump from one sample to the
    next as a single order statistic does.
    """
    n = len(sorted_x)
    mid = (np.arange(n) + 0.5) / n
    log_w = (q * (n + 1) - 1) * np.log(mid) + ((1 - q) * (n + 1) - 1) * np.log1p(-mid)
    w = np.exp(log_w - log_w.max())
    return float(w @ sorted_x / w.sum())


def end_to_end(wl, m: Measured, setup_s: float) -> tuple[dict, dict]:
    by_round = np.frombuffer(m.latencies).reshape(m.rounds, -1)
    # Every round holds the same input classes in the same positions.  The
    # median is taken over positions of each position's median over rounds:
    # where latencies have two modes (rules: with and without a witness to
    # certify) the plain median sits on the edge of one and jumps with the
    # host's speed, which this estimator does not.  One round: plain median.
    p50 = float(np.median(np.median(by_round, axis=0)))
    lat = np.sort(by_round, axis=None)
    tail = harrell_davis(lat, wl.tail_pct / 100)
    # The cli workload runs in its child processes; the others in this one.
    rss_kb = m.child_rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": m.ops_per_s,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail * 1e3,
        "definite_frac": m.statuses["definite"] / len(lat),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    detail = {
        "tail_percentile": wl.tail_pct,
        "tail_samples_beyond": int(np.sum(lat > tail)),
        "samples": len(lat),
        "latency_plain_p50_ms": float(np.median(lat)) * 1e3,
        "latency_p99_ms": float(np.percentile(lat, 99)) * 1e3,
        "latency_max_ms": float(lat.max()) * 1e3,
        "rss_of": "child processes" if m.child_rss_kb else "benchmark process",
    }
    return metrics, detail


_VERDICT_KEYS = {"Coexistent": "coexistent", "NotCoexistent": "not_coexistent",
                 "Indeterminate": "indeterminate"}


def layer_metrics(tr) -> dict:
    """Per-layer counts and self times from the traced pass's spans."""
    m = defaultdict(float)
    solver_s = defaultdict(float)
    cli_ms = defaultdict(list)
    reconstruct_spans = set()
    map_parents = []
    for i, (s, self_s) in enumerate(zip(tr.spans, tr.self_times())):
        a = s.attrs
        if s.name == "hermitian.effect":
            m["hermitian.effect.calls"] += 1
            m["hermitian.effect.self_s"] += self_s
        elif s.name == "coexistence.fast_path":
            m["fast_path.calls"] += 1
            m["fast_path.self_s"] += self_s
            if "hit" in a:
                m["fast_path.hits"] += 1
                m[f"fast_path.hits.{a['hit']}"] += 1
            else:
                m["fast_path.miss_s"] += s.end - s.start
        elif s.name == "coexistence.solver":
            verdict = _VERDICT_KEYS[a["verdict"]]
            m["solver.calls"] += 1
            m["solver.self_s"] += self_s
            m[f"solver.calls.{verdict}"] += 1
            m[f"solver.self_s.{verdict}"] += self_s
            m["solver.cycles"] += a["cycles"]
            m[f"solver.cycles.d{a['dim']}"] += a["cycles"]
            m["solver.cycles_max"] = max(m["solver.cycles_max"], a["cycles"])
            solver_s[a["dim"]] += self_s
        elif s.name == "coexistence.certificates":
            m["certificates.calls"] += 1
            m["certificates.self_s"] += self_s
            m["certificates.rejected"] += a["rejected"]
        elif s.name.startswith("preservers."):
            m["preservers.self_s"] += self_s
            if s.name == "preservers.map":
                m["preservers.map_evals"] += 1
                map_parents.append(s.parent)
        elif s.name == "reconstruction.reconstruct":
            reconstruct_spans.add(i)
            m["reconstruction.calls"] += 1
            m["reconstruction.self_s"] += self_s
        elif s.name == "reconstruction.verify":
            m["reconstruction.verify_s"] += self_s
        elif s.name == "strata.classify":
            m["strata.classify.calls"] += 1
            m["strata.classify.self_s"] += self_s
        elif s.name == "cli.process":
            cli_ms[a["command"]].append((s.end - s.start) * 1e3)
    if m["fast_path.calls"]:
        m["fast_path.hit_ratio"] = m["fast_path.hits"] / m["fast_path.calls"]
    for dim, seconds in solver_s.items():
        if m[f"solver.cycles.d{dim}"]:
            m[f"solver.us_per_cycle.d{dim}"] = seconds / m[f"solver.cycles.d{dim}"] * 1e6
    if m["reconstruction.calls"]:
        queries = sum(p in reconstruct_spans for p in map_parents)
        m["reconstruction.queries_per_call"] = queries / m["reconstruction.calls"]
    for command, times in cli_ms.items():
        m[f"cli.process_ms.{command}"] = statistics.median(times)
    return m


def run(args, spec) -> tuple[bool, Measured, dict, dict]:
    from probes import (import_seconds, interpreter_seconds, kernel_probe,
                        matrixio_probe, provenance, setup_seconds)
    from tracing import Tracer
    from workloads import WORKLOADS

    work = ROOT / ".bench_work" / str(os.getpid())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    wl = WORKLOADS[args.workload](args.seed, work)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "closed_loop_callers": 1}
    try:
        if not args.trace:
            # setup_s is the median over interpreters started on both sides of
            # the timed loop, so a change of machine speed during the run
            # moves it less than it would move a burst of consecutive starts.
            setup = setup_seconds(args.workload, work, SETUP_REPEATS)
            m = measure(wl, wl.run, seconds=args.seconds)
            setup += setup_seconds(args.workload, work, SETUP_REPEATS)
            metrics, report["end_to_end_detail"] = end_to_end(wl, m, statistics.median(setup))
            report["setup_s_samples"] = setup
            names = spec["end_to_end"]
        else:
            tr = Tracer()

            def traced(x):
                tr.begin_op()
                with tr.span("op"):
                    return wl.run_traced(x, tr)

            m = measure(wl, traced, seconds=args.seconds / 2, signatures=True)
            plain = measure(wl, wl.run, rounds=m.rounds, signatures=True)
            metrics = layer_metrics(tr)
            metrics.update(kernel_probe())
            metrics.update(matrixio_probe(work))
            metrics["cli.interpreter_s"] = interpreter_seconds(PROBE_REPEATS)
            metrics["cli.import_s"] = import_seconds(work, PROBE_REPEATS)
            metrics["trace.overhead_frac"] = 1.0 - m.ops_per_s / plain.ops_per_s
            mismatched = sum(a != b for a, b in zip(m.signatures, plain.signatures))
            if mismatched:
                m.errors.append(f"{mismatched} traced results differ from untraced ones")
            m.errors += plain.errors
            report["untraced_pass"] = {"ops": len(plain.latencies),
                                       "ops_per_s": plain.ops_per_s,
                                       "statuses": dict(plain.statuses)}
            report["spans"] = len(tr.spans)
            tr.write(out_dir / f"spans-{tag}.json")
            names = spec["per_layer"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unknown = set(metrics) - {entry["name"] for entry in names}
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # A per-layer metric of a layer this workload does not reach reads 0.
    metrics = {entry["name"]: {"value": float(metrics.get(entry["name"], 0.0)),
                               "unit": entry["unit"]} for entry in names}

    report.update(rounds=m.rounds, attempted=len(m.latencies), statuses=dict(m.statuses),
                  wrong_answers=len(m.errors), errors=m.errors[:50], metrics=metrics,
                  provenance=provenance())
    (out_dir / f"{tag}.json").write_text(json.dumps(report, indent=1) + "\n")
    (out_dir / f"latencies-{tag}.json").write_text(json.dumps(m.latencies.tolist()) + "\n")
    return not m.errors, m, metrics, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        import_effectkit()
        correct, m, metrics, report = run(args, spec)
    except (CannotRun, OSError, RuntimeError) as exc:
        print(f"bench: cannot run: {exc}", file=sys.stderr)
        return 2

    print(f"{args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(m.latencies)} ops in {m.rounds} rounds, {dict(m.statuses)}, "
          f"{len(m.errors)} wrong answers")
    for error in m.errors[:10]:
        print(f"  wrong: {error}")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    for key in ("end_to_end_detail", "untraced_pass", "provenance"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(json.dumps({"correct": correct, "attempted": len(m.latencies),
                      "failed": m.statuses["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
