"""Seeded property-test campaigns over the whole toolkit.

Every suite draws its per-trial randomness from sha256(master seed, suite
name, trial index), so campaigns are reproducible trial by trial and the
emitted report is byte-identical across runs apart from wall-time fields.
Ground truth never comes from the component under test: coexistent pairs are
built constructively, non-coexistent pairs come from exact structural rules,
and the solver is cross-checked against both.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from .coexistence import (
    FEAS_TOL,
    MAX_STEPS,
    SEP_TOL,
    Verdict,
    decide,
    decide_blockwise,
    efg_to_mn,
    mn_to_efg,
    sample_coexistent,
    verify_efg,
    verify_mn,
)
from .hermitian import (
    Effect,
    clamped_effect,
    direct_sum,
    loewner_leq,
    orthocomplement,
    random_effect,
    random_projection,
    random_unitary,
)
from .matrixio import dumps_document, matrix_document, write_document
from .preservers import (
    TraceThresholdSpec,
    apply_standard,
    apply_trace_threshold,
    block_components,
    preserver_handle,
    random_block_spec,
    random_standard_spec,
    trace_threshold_inverse,
)
from .reconstruction import phase_aligned_distance, reconstruct, verify_reconstruction

SUITE_NAMES = (
    "lemma_properties",
    "lem3_roundtrip",
    "convexity",
    "dirsum",
    "theorem_converse",
    "prop1_ccc",
    "prop2_oneway",
    "lem4_witness",
    "oracle_crosscheck",
    "reconstruction",
)

# Margins used when generating rule instances, so that generated ground truth
# is never within numerical noise of the rule's own decision boundary.
NONCOMMUTING_MARGIN = 1e-2
RANK_ONE_MARGIN = 1e-3


@dataclass(frozen=True)
class HarnessConfig:
    dims: tuple[int, ...] = (2, 3, 4, 5)
    trials_per_suite: int = 200
    seed: int = 0
    suites: tuple[str, ...] = SUITE_NAMES

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 or d > 8 for d in dims):
            raise ValueError("dims must be a nonempty subset of [2, 8]")
        object.__setattr__(self, "dims", dims)
        if self.trials_per_suite < 1:
            raise ValueError("need at least one trial per suite")
        suites = tuple(self.suites)
        unknown = [s for s in suites if s not in SUITE_NAMES]
        if unknown:
            raise ValueError(f"unknown suites: {unknown}")
        object.__setattr__(self, "suites", suites)


def trial_rng(master_seed: int, suite: str, index: int) -> np.random.Generator:
    digest = hashlib.sha256(f"{master_seed}:{suite}:{index}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


@dataclass(frozen=True)
class TrialOutcome:
    status: str  # "pass" | "fail" | "indeterminate"
    residual: float = 0.0
    detail: str = ""
    inputs: dict | None = None


def _fail(detail: str, residual: float = 0.0, **mats) -> TrialOutcome:
    inputs = {k: matrix_document(v) for k, v in mats.items()} or None
    return TrialOutcome("fail", residual, detail, inputs)


# ---------------------------------------------------------------------------
# Instance generators with constructive ground truth

RULE_FAMILIES = (
    "scalar",
    "projection-commuting",
    "projection-noncommuting",
    "commuting",
    "rank-one",
)


def rank_one_peak_value(alpha: float, beta: float, overlap: float) -> float:
    """Largest eigenvalue of alpha*pp* + beta*qq* with |<p,q>|^2 = overlap.

    On the two-dimensional span the sum has trace alpha+beta and determinant
    alpha*beta*(1-overlap), which gives the closed form below.
    """
    s = alpha + beta
    disc = math.sqrt(s * s - 4.0 * alpha * beta * (1.0 - overlap))
    return (s + disc) / 2.0


def _commuting_effect_pair(dim: int, rng) -> tuple[Effect, Effect]:
    u = random_unitary(dim, rng)
    wa = rng.uniform(1e-3, 1.0 - 1e-3, size=dim)
    wb = rng.uniform(1e-3, 1.0 - 1e-3, size=dim)
    a = (u * wa) @ u.conj().T
    b = (u * wb) @ u.conj().T
    return Effect.trusted((a + a.conj().T) / 2), Effect.trusted((b + b.conj().T) / 2)


def _rank_one_pair(dim: int, rng) -> tuple[Effect, Effect, Verdict]:
    while True:
        alpha = rng.uniform(0.55, 0.999)
        beta = rng.uniform(0.55, 0.999)
        overlap = rng.uniform(0.02, 0.98)
        peak = rank_one_peak_value(alpha, beta, overlap)
        if abs(peak - 1.0) >= RANK_ONE_MARGIN:
            break
    p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    p /= np.linalg.norm(p)
    r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    r -= p * np.vdot(p, r)
    r /= np.linalg.norm(r)
    phase = np.exp(2j * np.pi * rng.random())
    q = math.sqrt(overlap) * phase * p + math.sqrt(1.0 - overlap) * r
    a = Effect.trusted(alpha * np.outer(p, p.conj()))
    b = Effect.trusted(beta * np.outer(q, q.conj()))
    truth = Verdict.COEXISTENT if peak <= 1.0 else Verdict.NOT_COEXISTENT
    return a, b, truth


def rule_instance(rule: str, dim: int, rng) -> tuple[Effect, Effect, Verdict]:
    """A pair governed by one exact rule, with its ground-truth verdict.

    Instances keep a margin from the rule's decision boundary: non-commuting
    pairs have commutator norm at least 1e-2 and rank-one pairs keep the
    largest eigenvalue of A+B at least 1e-3 away from 1.
    """
    if rule == "scalar":
        t = float(rng.uniform(0.0, 1.0))
        a = Effect.trusted(t * np.eye(dim, dtype=complex))
        return a, random_effect(dim, seed=rng), Verdict.COEXISTENT
    if rule == "projection-commuting":
        rank = int(rng.integers(1, dim))
        p = random_projection(dim, rank, rng)
        _, v = np.linalg.eigh(p.matrix)
        w = rng.uniform(1e-3, 1.0 - 1e-3, size=dim)
        b = (v * w) @ v.conj().T
        return p, Effect.trusted((b + b.conj().T) / 2), Verdict.COEXISTENT
    if rule == "projection-noncommuting":
        rank = int(rng.integers(1, dim))
        p = random_projection(dim, rank, rng)
        while True:
            b = random_effect(dim, seed=rng)
            comm = p.matrix @ b.matrix - b.matrix @ p.matrix
            if np.linalg.norm(comm) >= NONCOMMUTING_MARGIN:
                return p, b, Verdict.NOT_COEXISTENT
    if rule == "commuting":
        a, b = _commuting_effect_pair(dim, rng)
        return a, b, Verdict.COEXISTENT
    if rule == "rank-one":
        return _rank_one_pair(dim, rng)
    raise ValueError(f"unknown rule family: {rule}")


def coexistent_pair(dim: int, rng) -> tuple[Effect, Effect]:
    """A pair that coexists by construction (split certificate exists)."""
    a = random_effect(dim, seed=rng)
    b = sample_coexistent(a, 1, rng)[0]
    return a, b


def noncoexistent_pair(dim: int, rng) -> tuple[Effect, Effect]:
    """A pair that provably fails to coexist, via one of the exact rules."""
    rule = "rank-one" if rng.integers(2) else "projection-noncommuting"
    while True:
        a, b, truth = rule_instance(rule, dim, rng)
        if truth is Verdict.NOT_COEXISTENT:
            return a, b


def generic_pair(dim: int, rng) -> tuple[Effect, Effect]:
    return random_effect(dim, seed=rng), random_effect(dim, seed=rng)


# ---------------------------------------------------------------------------
# Suites


def _suite_lemma_properties(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Exact-rule behavior: scalars, projections, commuting pairs, A vs A
    and A vs its complement all get definite verdicts with valid witnesses."""
    dim = cfg.dims[index % len(cfg.dims)]
    check = index % 4
    if check == 0:
        a, b, truth = rule_instance("scalar", dim, rng)
    elif check == 1:
        flavor = "projection-commuting" if (index // 4) % 2 else "projection-noncommuting"
        a, b, truth = rule_instance(flavor, dim, rng)
    elif check == 2:
        a, b, truth = rule_instance("commuting", dim, rng)
    else:
        a = random_effect(dim, seed=rng)
        b = a if (index // 4) % 2 else orthocomplement(a)
        truth = Verdict.COEXISTENT
    res = decide(a, b)
    if res.verdict is not truth:
        return _fail(f"expected {truth.value}, got {res.verdict.value}"
                     f" ({res.reason.value})", res.residual, a=a, b=b)
    if res.coexistent:
        m, n = res.witness
        if not verify_mn(a, b, m, n):
            return _fail("witness fails verification", res.residual, a=a, b=b)
    return TrialOutcome("pass", res.residual)


def _suite_lem3_roundtrip(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Solver witnesses convert between the (M, N) and (E, F, G) certificate
    forms, verify at 1e-6, and round-trip exactly."""
    dim = cfg.dims[index % len(cfg.dims)]
    a, b = coexistent_pair(dim, rng)
    res = decide(a, b)
    if res.verdict is Verdict.NOT_COEXISTENT:
        return _fail("constructed coexistent pair judged NotCoexistent",
                     res.residual, a=a, b=b)
    if not res.coexistent:
        return TrialOutcome("indeterminate", res.residual)
    m, n = res.witness
    if not verify_mn(a, b, m, n):
        return _fail("witness fails split verification", res.residual, a=a, b=b)
    e, f, g = mn_to_efg(m, n, a, b)
    if not verify_efg(a, b, e, f, g):
        return _fail("converted certificate fails verification",
                     res.residual, a=a, b=b)
    m2, n2 = efg_to_mn(e, f, g, a, b)
    gap = max(np.linalg.norm(m2 - m.matrix), np.linalg.norm(n2 - n.matrix))
    if gap > 1e-12:
        return _fail(f"round-trip changed the certificate by {gap:.3g}",
                     res.residual, a=a, b=b)
    return TrialOutcome("pass", res.residual)


def _suite_convexity(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Convex combinations of effects coexistent with A stay coexistent."""
    dim = cfg.dims[index % len(cfg.dims)]
    a = random_effect(dim, seed=rng)
    b1, b2 = sample_coexistent(a, 2, rng)
    worst = 0.0
    saw_indet = False
    for t in (0.25, 0.5, 0.75):
        mix = clamped_effect(t * b1.matrix + (1.0 - t) * b2.matrix)
        res = decide(a, mix)
        worst = max(worst, res.residual)
        if res.verdict is Verdict.NOT_COEXISTENT:
            return _fail(f"mixture at t={t} judged NotCoexistent",
                         res.residual, a=a, b1=b1, b2=b2)
        if not res.definite:
            saw_indet = True
    return TrialOutcome("indeterminate" if saw_indet else "pass", worst)


def _suite_dirsum(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Deciding on a direct sum agrees with deciding block by block."""
    block_dim = 2 if index % 2 == 0 else 3
    kinds = ("coexistent", "coexistent") if (index // 2) % 2 else \
            ("coexistent", "noncoexistent")
    a_blocks, b_blocks = [], []
    for kind in kinds:
        if kind == "coexistent":
            a, b = coexistent_pair(block_dim, rng)
        else:
            a, b = noncoexistent_pair(block_dim, rng)
        a_blocks.append(a)
        b_blocks.append(b)
    whole_a = Effect.trusted(direct_sum(a_blocks))
    whole_b = Effect.trusted(direct_sum(b_blocks))
    res_whole = decide(whole_a, whole_b)
    res_blocks = decide_blockwise(a_blocks, b_blocks)
    if res_whole.definite and res_blocks.definite \
            and res_whole.verdict is not res_blocks.verdict:
        return _fail(f"assembly says {res_whole.verdict.value}, blockwise says"
                     f" {res_blocks.verdict.value}", res_whole.residual,
                     a=whole_a, b=whole_b)
    if not (res_whole.definite and res_blocks.definite):
        return TrialOutcome("indeterminate",
                            max(res_whole.residual, res_blocks.residual))
    return TrialOutcome("pass", max(res_whole.residual, res_blocks.residual))


def _preserved(res, res_img, truth, what: str, a, b) -> TrialOutcome:
    """A source pair's verdict against its ground truth (None if unknown) and
    against the verdict on its image under the map named by what."""
    if truth is not None and res.definite and res.verdict is not truth:
        return _fail(f"source pair: expected {truth.value}, got {res.verdict.value}",
                     res.residual, a=a, b=b)
    if res.definite and res_img.definite and res.verdict is not res_img.verdict:
        return _fail(f"verdict changed under {what}: {res.verdict.value}"
                     f" -> {res_img.verdict.value}", res_img.residual, a=a, b=b)
    if not (res.definite and res_img.definite):
        return TrialOutcome("indeterminate", max(res.residual, res_img.residual))
    return TrialOutcome("pass", max(res.residual, res_img.residual))


def _suite_theorem_converse(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Conjugation-based automorphisms preserve verdicts in both directions."""
    dim = cfg.dims[index % len(cfg.dims)]
    spec = random_standard_spec(dim, rng,
                                transpose=bool(index % 4 & 1),
                                perp=bool(index % 4 & 2))
    kind = (index // 4) % 3
    truth = None
    if kind == 0:
        a, b = coexistent_pair(dim, rng)
        truth = Verdict.COEXISTENT
    elif kind == 1:
        a, b = noncoexistent_pair(dim, rng)
        truth = Verdict.NOT_COEXISTENT
    else:
        a, b = generic_pair(dim, rng)
    res_img = decide(apply_standard(spec, a), apply_standard(spec, b))
    return _preserved(decide(a, b), res_img, truth, "automorphism", a, b)


def _suite_prop1_ccc(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """The four-block map preserves verdicts in both directions, decided
    blockwise on the component pairs."""
    dim = 2 if index % 2 == 0 else 3
    spec = random_block_spec(dim, rng)
    if (index // 2) % 2 == 0:
        a, b = coexistent_pair(dim, rng)
        truth = Verdict.COEXISTENT
    else:
        a, b = noncoexistent_pair(dim, rng)
        truth = Verdict.NOT_COEXISTENT
    res_img = decide_blockwise(list(block_components(spec, a)),
                               list(block_components(spec, b)))
    return _preserved(decide(a, b), res_img, truth, "block map", a, b)


def _suite_prop2_oneway(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Trace-threshold maps: complement compatibility and inverse round-trip,
    order preservation, and one-way coexistence preservation."""
    dim = 3 if index % 2 == 0 else 4
    alpha = 1.0 if (index // 2) % 2 == 0 else 2.0
    spec = TraceThresholdSpec(dim, alpha)
    claim = index % 3
    if claim == 0:
        a = random_effect(dim, seed=rng)
        img = apply_trace_threshold(spec, a)
        perp_gap = np.linalg.norm(
            apply_trace_threshold(spec, orthocomplement(a)).matrix
            - orthocomplement(img).matrix)
        if perp_gap > 1e-12:
            return _fail(f"complement compatibility off by {perp_gap:.3g}", 0.0, a=a)
        back_gap = np.linalg.norm(trace_threshold_inverse(spec, img).matrix - a.matrix)
        if back_gap > 1e-9:
            return _fail(f"inverse round-trip off by {back_gap:.3g}", 0.0, a=a)
        return TrialOutcome("pass")
    if claim == 1:
        a = random_effect(dim, seed=rng)
        gap = random_effect(dim, seed=rng).matrix
        headroom = 1.0 - float(np.linalg.eigvalsh(a.matrix)[-1])
        b = clamped_effect(a.matrix + rng.uniform(0.2, 1.0) * headroom * gap)
        if not loewner_leq(apply_trace_threshold(spec, a),
                           apply_trace_threshold(spec, b)):
            return _fail("order not preserved", 0.0, a=a, b=b)
        return TrialOutcome("pass")
    a, b = coexistent_pair(dim, rng)
    res = decide(apply_trace_threshold(spec, a),
                 apply_trace_threshold(spec, b))
    if res.verdict is Verdict.NOT_COEXISTENT:
        return _fail("image of a coexistent pair judged NotCoexistent",
                     res.residual, a=a, b=b)
    if not res.definite:
        return TrialOutcome("indeterminate", res.residual)
    return TrialOutcome("pass", res.residual)


def _suite_lem4_witness(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Best-effort search for an effect coexisting with exactly one of two
    given effects; spectral projections of either effect are tried first."""
    dim = 3
    a = random_effect(dim, seed=rng)
    while True:
        b = random_effect(dim, seed=rng)
        if np.linalg.norm(b.matrix - a.matrix) > 0.05 and \
                np.linalg.norm(b.matrix - orthocomplement(a).matrix) > 0.05:
            break

    def distinguishes(c, near, far) -> bool:
        res_near = decide(c, near)
        res_far = decide(c, far)
        return res_near.verdict is Verdict.COEXISTENT \
            and res_far.verdict is Verdict.NOT_COEXISTENT

    for base, other in ((a, b), (b, a)):
        _, v = np.linalg.eigh(base.matrix)
        for cols in ([0], [1], [2], [0, 1], [0, 2], [1, 2]):
            sub = v[:, cols]
            c = Effect.trusted(sub @ sub.conj().T)
            if distinguishes(c, base, other):
                return TrialOutcome("pass")
    # Fallback: random members of the commutant of A against B.
    _, v = np.linalg.eigh(a.matrix)
    for _ in range(20):
        w = rng.uniform(1e-3, 1.0 - 1e-3, size=dim)
        c = clamped_effect((v * w) @ v.conj().T)
        if distinguishes(c, a, b):
            return TrialOutcome("pass")
    return _fail("no distinguishing effect found", 0.0, a=a, b=b)


def _suite_oracle_crosscheck(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """The feasibility solver, run with fast paths disabled, against exact
    ground truth from the structural rules."""
    rule = RULE_FAMILIES[index % len(RULE_FAMILIES)]
    dim = cfg.dims[(index // len(RULE_FAMILIES)) % len(cfg.dims)]
    a, b, truth = rule_instance(rule, dim, rng)
    res = decide(a, b, fast_paths=False)
    if not res.definite:
        return TrialOutcome("indeterminate", res.residual)
    if res.verdict is not truth:
        return _fail(f"{rule}: solver says {res.verdict.value},"
                     f" rule says {truth.value}", res.residual, a=a, b=b)
    return TrialOutcome("pass", res.residual)


def _suite_reconstruction(cfg: HarnessConfig, index: int, rng) -> TrialOutcome:
    """Generate-and-recover round trips for conjugation-based automorphisms."""
    dim = cfg.dims[index % len(cfg.dims)]
    transpose = bool(index % 4 & 1)
    perp = bool(index % 4 & 2)
    spec = random_standard_spec(dim, rng, transpose=transpose, perp=perp)
    handle = preserver_handle(spec)
    try:
        rec = reconstruct(handle, dim)
    except ValueError as exc:
        return _fail(f"reconstruction raised: {exc}", 0.0, u=spec.unitary)
    if rec.antiunitary != transpose or rec.perp != perp:
        return _fail(f"flags mismatch: got (transpose={rec.antiunitary},"
                     f" perp={rec.perp})", rec.residual, u=spec.unitary)
    gap = phase_aligned_distance(rec.unitary, spec.unitary)
    if gap > 1e-8:
        return _fail(f"unitary off by {gap:.3g} after phase alignment",
                     rec.residual, u=spec.unitary)
    worst = verify_reconstruction(handle, rec, trials=5, seed=rng)
    if worst > 1e-7:
        return _fail(f"verification residual {worst:.3g}", worst, u=spec.unitary)
    return TrialOutcome("pass", max(rec.residual, worst))


_SUITES = {
    "lemma_properties": _suite_lemma_properties,
    "lem3_roundtrip": _suite_lem3_roundtrip,
    "convexity": _suite_convexity,
    "dirsum": _suite_dirsum,
    "theorem_converse": _suite_theorem_converse,
    "prop1_ccc": _suite_prop1_ccc,
    "prop2_oneway": _suite_prop2_oneway,
    "lem4_witness": _suite_lem4_witness,
    "oracle_crosscheck": _suite_oracle_crosscheck,
    "reconstruction": _suite_reconstruction,
}


# ---------------------------------------------------------------------------
# Campaign driver and reports


def run_suite(name: str, cfg: HarnessConfig) -> dict:
    """Run one suite and return its report section."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite: {name}")
    fn = _SUITES[name]
    started = time.perf_counter()
    passed = failed = indeterminate = 0
    max_residual = 0.0
    failures: list[dict] = []
    for i in range(cfg.trials_per_suite):
        outcome = fn(cfg, i, trial_rng(cfg.seed, name, i))
        max_residual = max(max_residual, outcome.residual)
        if outcome.status == "pass":
            passed += 1
        elif outcome.status == "fail":
            failed += 1
            if len(failures) < 3:
                exemplar = {"trial": i, "detail": outcome.detail}
                if outcome.inputs:
                    exemplar["inputs"] = outcome.inputs
                failures.append(exemplar)
        else:
            indeterminate += 1
    return {
        "name": name,
        "trials": cfg.trials_per_suite,
        "passed": passed,
        "failed": failed,
        "indeterminate": indeterminate,
        "max_residual": max_residual,
        "wall_time_s": time.perf_counter() - started,
        "failures": failures,
    }


def config_document(cfg: HarnessConfig) -> dict:
    return {
        "dims": list(cfg.dims),
        "trials_per_suite": cfg.trials_per_suite,
        "seed": cfg.seed,
        "solver": {
            "feas_tol": FEAS_TOL,
            "sep_tol": SEP_TOL,
            "max_steps": MAX_STEPS,
        },
        "suites": list(cfg.suites),
    }


def run_all(cfg: HarnessConfig | None = None) -> dict:
    """Run the configured suites in order and assemble the full report."""
    if cfg is None:
        cfg = HarnessConfig()
    started = time.perf_counter()
    sections = [run_suite(name, cfg) for name in cfg.suites]
    totals = {
        "passed": sum(s["passed"] for s in sections),
        "failed": sum(s["failed"] for s in sections),
        "indeterminate": sum(s["indeterminate"] for s in sections),
    }
    return {
        "config": config_document(cfg),
        "suites": sections,
        "totals": totals,
        "total_wall_time_s": time.perf_counter() - started,
    }


def write_report(report: dict, path):
    write_document(path, report)


_TIMING_FIELDS = ("wall_time_s", "total_wall_time_s")


def strip_timings(doc):
    """The same document with all wall-time fields removed."""
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items()
                if k not in _TIMING_FIELDS}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


def report_signature(report: dict) -> str:
    """Canonical serialized report with timing fields stripped.

    Two runs with the same config and seed must produce equal signatures.
    """
    return dumps_document(strip_timings(report))
