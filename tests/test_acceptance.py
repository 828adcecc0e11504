"""End-to-end acceptance campaign.

Each test covers one numbered criterion at its stated tolerance and budget
and prints a single summary line (visible with pytest -s or -rA).  The
campaigns are seeded, so reruns measure identical instance streams.
"""

import time

import numpy as np
import pytest

from effectkit.coexistence import (
    CERT_TOL,
    Verdict,
    decide,
    decide_blockwise,
    efg_to_mn,
    mn_to_efg,
    sample_coexistent,
    verify_efg,
    verify_mn,
)
from effectkit.harness import (
    RULE_FAMILIES,
    HarnessConfig,
    coexistent_pair,
    noncoexistent_pair,
    report_signature,
    rule_instance,
    run_all,
    run_suite,
    trial_rng,
)
from effectkit.hermitian import (
    Effect,
    as_matrix,
    clamped_effect,
    conjugate,
    direct_sum,
    orthocomplement,
    random_effect,
)
from effectkit.preservers import (
    TraceThresholdSpec,
    apply_standard,
    apply_trace_threshold,
    block_components,
    preserver_handle,
    random_block_spec,
    random_standard_spec,
    trace_threshold_inverse,
)
from effectkit.reconstruction import (
    phase_aligned_distance,
    reconstruct,
    verify_reconstruction,
)

DIMS = (2, 3, 4, 5)
DEFINITE = (Verdict.COEXISTENT, Verdict.NOT_COEXISTENT)


def _summary(criterion, text):
    print(f"criterion {criterion}: PASS — {text}", flush=True)


def _rule_stream(rule, dim, count, label):
    for index in range(count):
        rng = trial_rng(0, f"{label}:{rule}:{dim}", index)
        yield rule_instance(rule, dim, rng)


def test_criterion_01_fast_path_exactness():
    started = time.perf_counter()
    checked = 0
    for rule in RULE_FAMILIES:
        for dim in DIMS:
            for a, b, truth in _rule_stream(rule, dim, 500, "acc1"):
                res = decide(a, b)
                if rule == "rank-one":
                    # independent ground truth: top eigenvalue of the sum
                    peak = float(np.linalg.eigvalsh(as_matrix(a) + as_matrix(b))[-1])
                    truth = Verdict.COEXISTENT if peak <= 1.0 else Verdict.NOT_COEXISTENT
                assert res.verdict == truth, (rule, dim)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    _summary(1, f"fast paths exact on {checked} pairs "
                f"({len(RULE_FAMILIES)} rules x dims 2-5), {elapsed:.1f} s")


def test_criterion_02_solver_cross_check():
    started = time.perf_counter()
    indeterminate = 0
    contradictions = 0
    checked = 0
    for rule in RULE_FAMILIES:
        for dim in DIMS:
            for a, b, truth in _rule_stream(rule, dim, 500, "acc1"):
                if rule == "rank-one":
                    peak = float(np.linalg.eigvalsh(as_matrix(a) + as_matrix(b))[-1])
                    truth = Verdict.COEXISTENT if peak <= 1.0 else Verdict.NOT_COEXISTENT
                res = decide(a, b, fast_paths=False)
                checked += 1
                if res.verdict == Verdict.INDETERMINATE:
                    indeterminate += 1
                elif res.verdict != truth:
                    contradictions += 1
    elapsed = time.perf_counter() - started
    rate = indeterminate / checked
    assert contradictions == 0
    assert rate <= 0.02
    assert elapsed <= 300.0
    _summary(2, f"solver agrees on {checked} instances, contradictions 0, "
                f"indeterminate {indeterminate} ({100 * rate:.2f}%), {elapsed:.1f} s")


def test_criterion_03_certificate_round_trip():
    assert CERT_TOL == 1e-6  # the witness checks' tolerance
    worst_gap = 0.0
    produced = 0
    index = 0
    while produced < 500:
        dim = DIMS[index % len(DIMS)]
        rng = trial_rng(0, "acc3", index)
        index += 1
        a, b = coexistent_pair(dim, rng)
        res = decide(a, b, fast_paths=False)
        if res.verdict != Verdict.COEXISTENT:
            continue
        m, n = res.witness
        assert verify_mn(a, b, m, n)
        e, f, g = mn_to_efg(m, n, a, b)
        assert verify_efg(a, b, e, f, g)
        m2, n2 = efg_to_mn(e, f, g, a, b)
        gap = max(np.linalg.norm(m2 - as_matrix(m)), np.linalg.norm(n2 - as_matrix(n)))
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-12
        produced += 1
    _summary(3, f"500 solver witnesses verified both ways at 1e-6, "
                f"round-trip gap ≤ {worst_gap:.2e}")


def test_criterion_04_blockwise_agreement():
    agreements = 0
    compared = 0
    for index in range(200):
        rng = trial_rng(0, "acc4", index)
        block_dim = 2 if index % 2 == 0 else 3
        pairs = []
        for k in range(2):
            kind = int(rng.integers(3))
            if kind == 0:
                pairs.append(coexistent_pair(block_dim, rng))
            elif kind == 1:
                pairs.append(noncoexistent_pair(block_dim, rng))
            else:
                pairs.append((random_effect(block_dim, seed=rng),
                              random_effect(block_dim, seed=rng)))
        a_blocks = [p[0] for p in pairs]
        b_blocks = [p[1] for p in pairs]
        block = decide_blockwise(a_blocks, b_blocks)
        whole = decide(Effect(direct_sum([as_matrix(x) for x in a_blocks])),
                       Effect(direct_sum([as_matrix(x) for x in b_blocks])))
        if block.verdict in DEFINITE and whole.verdict in DEFINITE:
            compared += 1
            assert block.verdict == whole.verdict, index
            agreements += 1
    assert compared > 0
    _summary(4, f"200 direct sums (4x4 and 6x6): {agreements}/{compared} "
                f"definite comparisons agree, 0 contradictions")


def test_criterion_05_sampled_convexity():
    not_count = 0
    for index in range(200):
        rng = trial_rng(0, "acc5", index)
        dim = DIMS[index % len(DIMS)]
        a = random_effect(dim, seed=rng)
        b1, b2 = sample_coexistent(a, 2, seed=rng)
        for t in (0.25, 0.5, 0.75):
            mix = clamped_effect(t * as_matrix(b1) + (1.0 - t) * as_matrix(b2))
            if decide(a, mix).verdict == Verdict.NOT_COEXISTENT:
                not_count += 1
    assert not_count == 0
    _summary(5, "200 coexistent triples x 3 interpolation points: "
                "0 NotCoexistent verdicts")


def test_criterion_06_standard_automorphism_converse():
    contradictions = 0
    compared = 0
    for dim in DIMS:
        for index in range(200):
            rng = trial_rng(0, f"acc6:{dim}", index)
            a = random_effect(dim, seed=rng)
            b = random_effect(dim, seed=rng)
            base = decide(a, b)
            for flag_index in range(4):
                spec = random_standard_spec(
                    dim, seed=trial_rng(1, f"acc6:{dim}:{flag_index}", index),
                    transpose=bool(flag_index & 1), perp=bool(flag_index & 2))
                moved = decide(apply_standard(spec, a), apply_standard(spec, b))
                if base.verdict in DEFINITE and moved.verdict in DEFINITE:
                    compared += 1
                    if moved.verdict != base.verdict:
                        contradictions += 1
    assert contradictions == 0
    assert compared > 0
    _summary(6, f"200 pairs x 4 flag combos x dims 2-5: verdicts preserved in "
                f"{compared}/{compared} definite cases")


def test_criterion_07_block_counterexample_map():
    contradictions = 0
    compared = 0
    for dim in (2, 3):
        spec = random_block_spec(dim, seed=1000 + dim)
        for index in range(200):
            rng = trial_rng(0, f"acc7:{dim}", index)
            if index % 2 == 0:
                a, b = coexistent_pair(dim, rng)
            else:
                a, b = noncoexistent_pair(dim, rng)
            base = decide(a, b)
            moved = decide_blockwise(list(block_components(spec, a)),
                                     list(block_components(spec, b)))
            if base.verdict in DEFINITE and moved.verdict in DEFINITE:
                compared += 1
                if moved.verdict != base.verdict:
                    contradictions += 1
    assert contradictions == 0
    assert compared > 0
    _summary(7, f"block map at n=2,3: {compared} definite comparisons, "
                f"0 contradictions")


def test_criterion_08_trace_threshold_map():
    worst_perp = 0.0
    worst_order = 0.0
    worst_inverse = 0.0
    not_count = 0
    for dim in (3, 4):
        for alpha in (1.0, 2.0):
            spec = TraceThresholdSpec(dim=dim, alpha=alpha)
            for index in range(500):
                rng = trial_rng(0, f"acc8:perp:{dim}:{alpha}", index)
                a = random_effect(dim, seed=rng)
                lhs = as_matrix(apply_trace_threshold(spec, orthocomplement(a)))
                rhs = np.eye(dim) - as_matrix(apply_trace_threshold(spec, a))
                worst_perp = max(worst_perp, float(np.linalg.norm(lhs - rhs)))

                b = trace_threshold_inverse(spec, a)
                back = as_matrix(apply_trace_threshold(spec, b))
                worst_inverse = max(worst_inverse,
                                    float(np.linalg.norm(back - as_matrix(a))))

            for index in range(500):
                rng = trial_rng(0, f"acc8:order:{dim}:{alpha}", index)
                a = random_effect(dim, seed=rng)
                am = as_matrix(a)
                headroom = 1.0 - float(np.linalg.eigvalsh(am)[-1])
                g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                gap = g @ g.conj().T
                gap *= rng.uniform(0.1, 0.9) * headroom / max(
                    1e-12, float(np.linalg.eigvalsh(gap)[-1]))
                b = Effect(am + gap)
                fa = as_matrix(apply_trace_threshold(spec, a))
                fb = as_matrix(apply_trace_threshold(spec, b))
                worst_order = max(worst_order, -float(np.linalg.eigvalsh(fb - fa)[0]))

            for index in range(200):
                rng = trial_rng(0, f"acc8:oneway:{dim}:{alpha}", index)
                a, b = coexistent_pair(dim, rng)
                res = decide(apply_trace_threshold(spec, a),
                             apply_trace_threshold(spec, b))
                if res.verdict == Verdict.NOT_COEXISTENT:
                    not_count += 1
    assert worst_perp <= 1e-12
    assert worst_order <= 1e-9
    assert worst_inverse <= 1e-9
    assert not_count == 0
    _summary(8, f"trace-threshold (f=t, t^2; n=3,4): perp gap ≤ {worst_perp:.1e}, "
                f"order margin ≤ {worst_order:.1e}, inverse ≤ {worst_inverse:.1e}, "
                f"0 NotCoexistent images")


def test_criterion_09_reconstruction_sweep():
    worst_phase = 0.0
    worst_verify = 0.0
    count = 0
    for dim in (2, 3, 4, 5, 6):
        for flag_index in range(4):
            transpose = bool(flag_index & 1)
            perp = bool(flag_index & 2)
            for index in range(50):
                seed_rng = trial_rng(0, f"acc9:{dim}:{flag_index}", index)
                spec = random_standard_spec(dim, seed=seed_rng,
                                            transpose=transpose, perp=perp)
                handle = preserver_handle(spec)
                res = reconstruct(handle, dim)
                assert res.antiunitary == transpose
                assert res.perp == perp
                gap = phase_aligned_distance(res.unitary, spec.unitary)
                worst_phase = max(worst_phase, gap)
                assert gap <= 1e-8
                ver = verify_reconstruction(handle, res, trials=20,
                                            seed=trial_rng(1, f"acc9:{dim}", index))
                worst_verify = max(worst_verify, ver)
                assert ver <= 1e-7
                count += 1
    tt = TraceThresholdSpec(dim=3, alpha=1.0)
    tt_handle = preserver_handle(tt)
    tt_res = reconstruct(tt_handle, 3)
    tt_ver = verify_reconstruction(tt_handle, tt_res, trials=50, seed=2)
    assert tt_ver > 1e-2
    _summary(9, f"{count} automorphisms recovered (phase gap ≤ {worst_phase:.1e}, "
                f"verify ≤ {worst_verify:.1e}); trace-threshold map flagged "
                f"non-standard (residual {tt_ver:.3f})")


def test_criterion_10_witness_search_rate():
    cfg = HarnessConfig(dims=(3,), trials_per_suite=200, seed=0,
                        suites=("lem4_witness",))
    section = run_suite("lem4_witness", cfg)
    rate = section["passed"] / section["trials"]
    assert rate >= 0.90
    _summary(10, f"witness search succeeded in {section['passed']}/200 trials "
                 f"({100 * rate:.1f}%)")


def test_criterion_11_determinism_and_budget():
    reduced = HarnessConfig(dims=(2, 3), trials_per_suite=50, seed=7)
    first = report_signature(run_all(reduced))
    second = report_signature(run_all(reduced))
    assert first == second

    started = time.perf_counter()
    report = run_all(HarnessConfig())
    elapsed = time.perf_counter() - started
    assert elapsed <= 600.0
    assert report["totals"]["failed"] == 0
    _summary(11, f"reduced campaign byte-identical across reruns; full default "
                 f"campaign in {elapsed:.1f} s with 0 failures")
