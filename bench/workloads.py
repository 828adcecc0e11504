"""The four benchmark workloads: inputs, operations and correctness checks.

Each workload is a sequence of rounds.  A round is one full rotation of the
workload's input mix, and a run always ends on a round boundary, so every
run measures the same mix whatever its length.  Inputs are numpy arrays and
files made here from the seed; effectkit only receives them.

Every workload has two forms of its operation.  ``run`` calls effectkit the
way a user would.  ``run_traced`` makes the same calls split at the layer
boundaries, each inside a span: ``decide(a, b)`` becomes ``fast_path(a, b)``
followed, on a miss, by ``decide(a, b, fast_paths=False)``, which is the
path ``decide`` itself takes.  Both forms return results with the same
``signature``, and the traced run checks that they do.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from effectkit import (
    Effect,
    InvalidCertificate,
    Reason,
    StandardAutomorphismSpec,
    Verdict,
    classify,
    decide,
    document_preserver_spec,
    document_matrix,
    fast_path,
    freedom_dimension,
    loads_document,
    mn_to_efg,
    preserver_handle,
    preserver_spec_document,
    read_document,
    read_matrix,
    reconstruct,
    verify_mn,
    verify_reconstruction,
    write_document,
    write_matrix,
)

ROOT = Path(__file__).resolve().parent.parent

DECIDE_DIMS = (2, 3, 4, 5)
LO, HI = 1e-3, 1.0 - 1e-3  # interior eigenvalues stay this far from 0 and 1

# Environment for every process the benchmark starts: BLAS pinned to one
# thread before numpy loads, and effectkit imported from this checkout.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))


# ---------------------------------------------------------------------------
# Input generation (numpy only)


def round_rng(seed: int, workload: str, round_index: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "little")
    return np.random.default_rng([seed, tag, round_index])


def haar_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(u, w):
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2.0


def interior_effect(dim, rng):
    """Random effect with every eigenvalue in [LO, HI] and Haar eigenvectors."""
    w = LO + (HI - LO) * rng.random(dim)
    return hermitian(haar_unitary(dim, rng), w)


def stratum_effect(dim, p, q, rng):
    """Random effect with p eigenvalues at 1, q at 0 and the rest interior."""
    w = np.concatenate([np.ones(p), LO + (HI - LO) * rng.random(dim - p - q),
                        np.zeros(q)])
    return hermitian(haar_unitary(dim, rng), w)


def random_stratum(dim, rng):
    p = int(rng.integers(0, dim + 1))
    q = int(rng.integers(0, dim - p + 1))
    return p, q


def automorphism_image(m, u, transpose, perp):
    """A -> U A U* (A transposed first if antiunitary), then I - . if perp."""
    x = u @ (m.T if transpose else m) @ u.conj().T
    x = (x + x.conj().T) / 2.0
    return np.eye(len(m)) - x if perp else x


def criterion6_pair(dim, index):
    """Source pair `index` at `dim` of acceptance criterion 6's stream.

    Same draws as trial_rng(0, f"acc6:{dim}", index) followed by two
    random_effect calls, rebuilt here so the pool does not move when the
    package's own generators change.
    """
    digest = hashlib.sha256(f"0:acc6:{dim}:{index}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return interior_effect(dim, rng), interior_effect(dim, rng)


RULE_FAMILIES = ("scalar", "projection-commuting", "projection-noncommuting",
                 "commuting", "rank-one")


def rule_instance(family, dim, rng):
    """Arrays (A, B) governed by one exact rule, and the rule's verdict.

    Margins keep ground truth away from the rules' thresholds: non-commuting
    pairs have commutator norm at least 1e-2, rank-one pairs keep the top
    eigenvalue of A + B at least 1e-3 away from 1.
    """
    if family == "scalar":
        return (rng.uniform() * np.eye(dim, dtype=complex),
                interior_effect(dim, rng), Verdict.COEXISTENT)
    if family in ("projection-commuting", "projection-noncommuting"):
        rank = int(rng.integers(1, dim))
        u = haar_unitary(dim, rng)
        proj = hermitian(u, np.r_[np.ones(rank), np.zeros(dim - rank)])
        if family == "projection-commuting":
            return proj, hermitian(u, rng.uniform(LO, HI, dim)), Verdict.COEXISTENT
        while True:
            b = interior_effect(dim, rng)
            if np.linalg.norm(proj @ b - b @ proj) >= 1e-2:
                return proj, b, Verdict.NOT_COEXISTENT
    if family == "commuting":
        u = haar_unitary(dim, rng)
        return (hermitian(u, rng.uniform(LO, HI, dim)),
                hermitian(u, rng.uniform(LO, HI, dim)), Verdict.COEXISTENT)
    if family == "rank-one":
        while True:
            alpha, beta = rng.uniform(0.55, 0.999, 2)
            overlap = rng.uniform(0.02, 0.98)
            s = alpha + beta
            peak = (s + np.sqrt(s * s - 4 * alpha * beta * (1 - overlap))) / 2
            if abs(peak - 1.0) >= 1e-3:
                break
        p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        p /= np.linalg.norm(p)
        r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        r -= p * np.vdot(p, r)
        r /= np.linalg.norm(r)
        q = (np.sqrt(overlap) * np.exp(2j * np.pi * rng.random()) * p
             + np.sqrt(1 - overlap) * r)
        truth = Verdict.COEXISTENT if peak <= 1.0 else Verdict.NOT_COEXISTENT
        return (alpha * np.outer(p, p.conj()), beta * np.outer(q, q.conj()), truth)
    raise ValueError(family)


# ---------------------------------------------------------------------------
# Shared pieces of the operations

RULE_NAMES = {Reason.SCALAR_RULE: "scalar", Reason.PROJECTION_RULE: "projection",
              Reason.COMMUTE_RULE: "commute", Reason.RANK_ONE_RULE: "rank_one"}


def traced_decide(tr, a, b):
    """decide(a, b) split outside-in into its fast path and its solver."""
    with tr.span("coexistence.fast_path") as attrs:
        res = fast_path(a, b)
    if res is not None:
        attrs["hit"] = RULE_NAMES[res.reason]
        return res
    with tr.span("coexistence.solver") as attrs:
        res = decide(a, b, fast_paths=False)
    attrs.update(dim=a.dim, verdict=res.verdict.value, cycles=res.iterations)
    return res


def decide_status(res) -> str:
    return "definite" if res.definite else "indeterminate"


def phase_gap(u, v):
    """Frobenius distance between U and V minimised over a global phase."""
    z = complex(np.trace(v.conj().T @ u))
    if z != 0:
        v = v * (z / abs(z))
    return float(np.linalg.norm(u - v))


class Workload:
    """Interface shared by the workloads (see the module docstring)."""

    name: str
    tail_pct = 95.0  # percentile reported as latency_tail_ms

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def round_inputs(self, r: int) -> list:
        raise NotImplementedError

    def run(self, x):
        raise NotImplementedError

    def run_traced(self, x, tr):
        raise NotImplementedError

    def check_round(self, xs, results) -> list[str]:
        """Messages for wrong answers; failed operations have result None."""
        raise NotImplementedError

    def signature(self, res):
        raise NotImplementedError

    def status(self, res) -> str:
        """"definite", "indeterminate" or "failed" for a completed call."""
        return "definite"


# ---------------------------------------------------------------------------
# generic


@dataclass
class PairCase:
    a: Effect
    b: Effect
    source: int | None  # index of the source pair when this is its image


class Generic(Workload):
    """Criterion 6's generic pairs and their automorphism images.

    The pool of source geometries is fixed: the first POOL_INDICES indices
    of criterion 6's stream at each of dims 2-5, slow and Indeterminate
    pairs included.  Each round conjugates every pool pair by a seeded Haar
    unitary (which leaves it a Haar-random pair) and follows it by its image
    under a seeded standard automorphism, the four flag combinations
    rotating.  The solver is covariant under these maps, so cycle counts,
    and with them the tail, repeat exactly across seeds while every array
    differs; independent draws per seed would make the run-to-run spread of
    a 20-second run far wider than any bound.
    """

    name = "generic"
    POOL_INDICES = 100

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.pool = [(dim, *criterion6_pair(dim, index))
                     for index in range(self.POOL_INDICES) for dim in DECIDE_DIMS]

    def round_inputs(self, r):
        rng = round_rng(self.seed, self.name, r)
        xs = []
        for k, (dim, a0, b0) in enumerate(self.pool):
            flags = k // len(DECIDE_DIMS) % 4  # rotates through each dim's pairs
            v = haar_unitary(dim, rng)
            a, b = (automorphism_image(m, v, False, False) for m in (a0, b0))
            w = haar_unitary(dim, rng)
            ai, bi = (automorphism_image(m, w, bool(flags & 1), bool(flags & 2))
                      for m in (a, b))
            xs.append(PairCase(Effect(a), Effect(b), None))
            xs.append(PairCase(Effect(ai), Effect(bi), len(xs) - 1))
        return xs

    def run(self, x):
        return decide(x.a, x.b)

    def run_traced(self, x, tr):
        return traced_decide(tr, x.a, x.b)

    def check_round(self, xs, results):
        errors = []
        for i, (x, res) in enumerate(zip(xs, results)):
            if res is None:
                continue
            if res.coexistent and (res.witness is None
                                   or not verify_mn(x.a, x.b, *res.witness)):
                errors.append(f"op {i}: Coexistent without a verifying witness")
            src = results[x.source] if x.source is not None else None
            if (src is not None and src.definite and res.definite
                    and src.verdict is not res.verdict):
                errors.append(f"op {i}: image says {res.verdict.value}, "
                              f"source says {src.verdict.value}")
        return errors

    def signature(self, res):
        return res.verdict.value, res.iterations

    def status(self, res):
        return decide_status(res)


# ---------------------------------------------------------------------------
# rules


@dataclass
class RuleCase:
    family: str
    a: np.ndarray
    b: np.ndarray
    truth: Verdict


@dataclass
class RuleResult:
    decision: object
    certified: bool | None  # None without a witness


class Rules(Workload):
    """Seeded instances of the five exact-rule families at dims 2-5.

    Each operation passes raw arrays: two validated Effects, decide with
    fast paths on, then verify_mn and mn_to_efg on any witness.
    """

    name = "rules"
    REPEATS = 10  # family x dim rotations per round

    def round_inputs(self, r):
        rng = round_rng(self.seed, self.name, r)
        return [RuleCase(family, *rule_instance(family, dim, rng))
                for _ in range(self.REPEATS)
                for family in RULE_FAMILIES for dim in DECIDE_DIMS]

    @staticmethod
    def _certify(a, b, res):
        m, n = res.witness
        if not verify_mn(a, b, m, n):
            return False
        try:
            mn_to_efg(m, n, a, b)
        except InvalidCertificate:
            return False
        return True

    def run(self, x):
        a, b = Effect(x.a), Effect(x.b)
        res = decide(a, b)
        return RuleResult(res, None if res.witness is None else self._certify(a, b, res))

    def run_traced(self, x, tr):
        with tr.span("hermitian.effect"):
            a = Effect(x.a)
        with tr.span("hermitian.effect"):
            b = Effect(x.b)
        res = traced_decide(tr, a, b)
        if res.witness is None:
            return RuleResult(res, None)
        m, n = res.witness
        with tr.span("coexistence.certificates") as attrs:
            verified = verify_mn(a, b, m, n)
        attrs["rejected"] = not verified
        with tr.span("coexistence.certificates") as attrs:
            try:
                mn_to_efg(m, n, a, b)
                converted = True
            except InvalidCertificate:
                converted = False
        attrs["rejected"] = not converted
        return RuleResult(res, verified and converted)

    def check_round(self, xs, results):
        errors = []
        for i, (x, out) in enumerate(zip(xs, results)):
            if out is None:
                continue
            truth = x.truth
            if x.family == "rank-one":  # recomputed as criterion 1 does
                peak = float(np.linalg.eigvalsh(x.a + x.b)[-1])
                truth = Verdict.COEXISTENT if peak <= 1.0 else Verdict.NOT_COEXISTENT
            res = out.decision
            if res.verdict is not truth:
                errors.append(f"op {i} ({x.family}): {res.verdict.value}, "
                              f"expected {truth.value}")
            if res.coexistent and out.certified is not True:
                errors.append(f"op {i} ({x.family}): witness fails verification")
        return errors

    def signature(self, out):
        return out.decision.verdict.value, out.decision.iterations, out.certified

    def status(self, out):
        return decide_status(out.decision)


# ---------------------------------------------------------------------------
# symmetry


@dataclass
class SymmetryCase:
    dim: int
    unitary: np.ndarray
    transpose: bool
    perp: bool
    sources: list  # (array, (p, q)) pairs classified with their images
    verify_seed: int


@dataclass
class SymmetryResult:
    fit: object
    verify_gap: float
    queries: int
    strata: list  # ((p, q) of source, (p, q) of image) per source


class Symmetry(Workload):
    """Seeded standard automorphisms at dims 2-6 x 4 flag combinations.

    Each operation builds the map handle, reconstructs the map from
    black-box queries, verifies the fit on fresh effects and classifies
    source/image pairs of effects with seeded strata.
    """

    name = "symmetry"
    DIMS = (2, 3, 4, 5, 6)
    VERIFY_TRIALS = 20
    SOURCES = 2

    def round_inputs(self, r):
        rng = round_rng(self.seed, self.name, r)
        xs = []
        for dim in self.DIMS:
            for flags in range(4):
                sources = []
                for _ in range(self.SOURCES):
                    p, q = random_stratum(dim, rng)
                    sources.append((stratum_effect(dim, p, q, rng), (p, q)))
                xs.append(SymmetryCase(dim, haar_unitary(dim, rng), bool(flags & 1),
                                       bool(flags & 2), sources,
                                       int(rng.integers(2 ** 31))))
        return xs

    def run(self, x):
        handle = preserver_handle(StandardAutomorphismSpec(x.unitary, x.transpose, x.perp))
        queries = 0

        def counted(e):
            nonlocal queries
            queries += 1
            return handle(e)

        fit = reconstruct(counted, x.dim)
        gap = verify_reconstruction(handle, fit, self.VERIFY_TRIALS, x.verify_seed)
        strata = []
        for arr, _ in x.sources:
            e = Effect(arr)
            strata.append((classify(e), classify(handle(e))))
        return SymmetryResult(fit, gap, queries, strata)

    def run_traced(self, x, tr):
        with tr.span("preservers.spec"):
            handle = preserver_handle(
                StandardAutomorphismSpec(x.unitary, x.transpose, x.perp))
        queries = 0

        def traced(e):
            with tr.span("preservers.map"):
                return handle(e)

        def counted(e):
            nonlocal queries
            queries += 1
            return traced(e)

        with tr.span("reconstruction.reconstruct"):
            fit = reconstruct(counted, x.dim)
        with tr.span("reconstruction.verify"):
            gap = verify_reconstruction(traced, fit, self.VERIFY_TRIALS, x.verify_seed)
        strata = []
        for arr, _ in x.sources:
            with tr.span("hermitian.effect"):
                e = Effect(arr)
            image = traced(e)
            with tr.span("strata.classify"):
                pq_source = classify(e)
            with tr.span("strata.classify"):
                pq_image = classify(image)
            strata.append((pq_source, pq_image))
        return SymmetryResult(fit, gap, queries, strata)

    def check_round(self, xs, results):
        errors = []
        for i, (x, out) in enumerate(zip(xs, results)):
            if out is None:
                continue
            fit = out.fit
            if (fit.antiunitary, fit.perp) != (x.transpose, x.perp):
                errors.append(f"op {i}: flags {fit.antiunitary, fit.perp}, "
                              f"expected {x.transpose, x.perp}")
            gap = phase_gap(fit.unitary, x.unitary)
            if not gap <= 1e-8:
                errors.append(f"op {i}: unitary off by {gap:.3g} after phase alignment")
            if not out.verify_gap <= 1e-7:
                errors.append(f"op {i}: verification gap {out.verify_gap:.3g}")
            for (_, (p, q)), (got_source, got_image) in zip(x.sources, out.strata):
                want_image = (q, p) if x.perp else (p, q)
                if got_source != (p, q) or got_image != want_image:
                    errors.append(f"op {i}: strata {got_source}->{got_image}, "
                                  f"expected {(p, q)}->{want_image}")
        return errors

    def signature(self, out):
        return out.fit.antiunitary, out.fit.perp, out.queries, out.strata


# ---------------------------------------------------------------------------
# cli

CRASH_CODES = (64, 66, 70)  # usage error, bad input file, internal error


@dataclass
class CliCase:
    command: str
    args: list
    code: int  # exit code of the in-process answer
    expect: object  # printed key lines, or the image matrix for apply
    truth: dict | None = None  # generator's ground truth for some key lines


@dataclass
class CliResult:
    code: int
    stdout: str
    maxrss_kb: int


def key_lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


def spawn_cli(args) -> CliResult:
    """Run one `python -m effectkit.cli` process and reap it with its rusage."""
    proc = subprocess.Popen([sys.executable, "-m", "effectkit.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=CHILD_ENV, cwd=ROOT, text=True)
    with proc:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode in CRASH_CODES or proc.returncode < 0:
        sys.stderr.write(err)
    return CliResult(proc.returncode, out, usage.ru_maxrss)


_CODES = {Verdict.COEXISTENT: 0, Verdict.NOT_COEXISTENT: 1, Verdict.INDETERMINATE: 2}


def _check_case(command, a_path, b_path):
    res = decide(read_matrix(a_path), read_matrix(b_path))
    return CliCase(command, ["check", str(a_path), str(b_path)], _CODES[res.verdict],
                   {"verdict": res.verdict.value, "iterations": str(res.iterations)})


class Cli(Workload):
    """One `python -m effectkit.cli` process per operation, five commands.

    Files are written and the in-process answers computed before a round is
    timed.  The solver pair is a pool pair of criterion 6's stream at dim 3,
    conjugated by a seeded unitary, so its cost repeats across seeds.
    """

    name = "cli"
    tail_pct = 80.0
    DIM = 3

    def round_inputs(self, r):
        rng = round_rng(self.seed, self.name, r)
        d = self.work / f"round{r}"
        d.mkdir(parents=True, exist_ok=True)
        fa, fb, _ = rule_instance(RULE_FAMILIES[r % 5], self.DIM, rng)
        v = haar_unitary(self.DIM, rng)
        sa, sb = (automorphism_image(m, v, False, False)
                  for m in criterion6_pair(self.DIM, r))
        p, q = random_stratum(4, rng)
        spec = StandardAutomorphismSpec(haar_unitary(self.DIM, rng), bool(r & 1), bool(r & 2))
        files = {"fa": fa, "fb": fb, "sa": sa, "sb": sb,
                 "strat": stratum_effect(4, p, q, rng),
                 "x": interior_effect(self.DIM, rng)}
        paths = {k: d / f"{k}.mat" for k in files}
        for k, m in files.items():
            write_matrix(paths[k], Effect(m))
        spec_path = d / "std.spec"
        write_document(spec_path, preserver_spec_document(spec))

        strat = read_matrix(paths["strat"])
        pq = classify(strat)
        handle = preserver_handle(document_preserver_spec(read_document(spec_path)))
        fit = reconstruct(handle, self.DIM)
        return [
            _check_case("check_fast", paths["fa"], paths["fb"]),
            _check_case("check_solver", paths["sa"], paths["sb"]),
            CliCase("stratify", ["stratify", str(paths["strat"])], 0,
                    {"p": str(pq[0]), "q": str(pq[1]),
                     "freedom_dimension": str(freedom_dimension(4, *pq))},
                    {"p": str(p), "q": str(q)}),
            CliCase("apply", ["apply", "--map", "standard", "--spec", str(spec_path),
                              str(paths["x"])], 0,
                    handle(read_matrix(paths["x"])).matrix),
            CliCase("reconstruct", ["reconstruct", "--map-spec", str(spec_path)], 0,
                    {"antiunitary": str(fit.antiunitary).lower(),
                     "perp": str(fit.perp).lower()},
                    {"antiunitary": str(spec.transpose).lower(),
                     "perp": str(spec.perp).lower()}),
        ]

    def run(self, x):
        return spawn_cli(x.args)

    def run_traced(self, x, tr):
        with tr.span("cli.process") as attrs:
            res = spawn_cli(x.args)
        attrs["command"] = x.command
        return res

    def check_round(self, xs, results):
        errors = []
        for i, (x, res) in enumerate(zip(xs, results)):
            if res is None or self.status(res) == "failed":
                continue
            if res.code != x.code:
                errors.append(f"op {i} ({x.command}): exit {res.code}, expected {x.code}")
            elif x.command == "apply":
                image = document_matrix(loads_document(res.stdout))
                if not np.array_equal(np.asarray(image), x.expect):
                    errors.append(f"op {i} (apply): printed image differs")
            else:
                got = key_lines(res.stdout)
                for want in (x.expect, x.truth or {}):
                    if any(got.get(k) != v for k, v in want.items()):
                        errors.append(f"op {i} ({x.command}): printed {got}, "
                                      f"expected {want}")
        return errors

    def signature(self, res):
        return res.code, res.stdout

    def status(self, res):
        if res.code in CRASH_CODES or res.code < 0:
            return "failed"
        return "indeterminate" if res.code == 2 else "definite"


WORKLOADS = {w.name: w for w in (Generic, Rules, Symmetry, Cli)}


# ---------------------------------------------------------------------------
# First calls for setup_s: one operation on a fixed input, the same for every
# seed, so that setup_s measures imports and lazy initialisation rather than
# whichever input a seed draws first.


def warmup(name: str, work: Path):
    """A zero-argument callable making the workload's first call."""
    if name == "cli":
        from effectkit import cli

        work.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(1)
        paths = [work / "warm_a.mat", work / "warm_b.mat"]
        for path in paths:
            write_matrix(path, Effect(interior_effect(3, rng)))

        def first_call():
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                cli.main(["check", *map(str, paths)])
        return first_call
    wl = WORKLOADS[name](0, work)
    x = wl.round_inputs(0)[1]
    return lambda: wl.run(x)
