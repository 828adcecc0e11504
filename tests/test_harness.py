import dataclasses

import numpy as np
import pytest

from effectkit import harness
from effectkit.cli import main
from effectkit.coexistence import Verdict, decide
from effectkit.harness import (
    RULE_FAMILIES,
    SUITE_NAMES,
    HarnessConfig,
    coexistent_pair,
    noncoexistent_pair,
    rank_one_peak_value,
    report_signature,
    rule_instance,
    run_all,
    run_suite,
    trial_rng,
)
from effectkit.hermitian import Effect, as_matrix
from effectkit.matrixio import document_matrix, dumps_document, loads_document, write_document


def test_trial_rng_is_deterministic_and_mixed():
    a = trial_rng(7, "convexity", 3).integers(1 << 30, size=4)
    b = trial_rng(7, "convexity", 3).integers(1 << 30, size=4)
    assert np.array_equal(a, b)
    c = trial_rng(7, "convexity", 4).integers(1 << 30, size=4)
    d = trial_rng(7, "dirsum", 3).integers(1 << 30, size=4)
    e = trial_rng(8, "convexity", 3).integers(1 << 30, size=4)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_rank_one_peak_value_matches_eigensolver():
    rng = np.random.default_rng(1)
    for _ in range(50):
        alpha, beta = rng.uniform(0.1, 1.0, size=2)
        t = rng.uniform(0.0, 1.0)
        p = np.array([1.0, 0.0])
        q = np.array([np.sqrt(t), np.sqrt(1.0 - t)])
        top = np.linalg.eigvalsh(alpha * np.outer(p, p)
                                 + beta * np.outer(q, q))[-1]
        assert rank_one_peak_value(alpha, beta, t) == pytest.approx(top, abs=1e-12)


def test_rule_instances_have_correct_truth():
    for rule in RULE_FAMILIES:
        for idx in range(10):
            rng = trial_rng(0, f"unit:{rule}", idx)
            a, b, truth = rule_instance(rule, 3 if rule != "rank-one" else 4, rng)
            res = decide(a, b)
            assert res.verdict == truth, (rule, idx)


def test_coexistent_pair_is_coexistent():
    for idx in range(5):
        a, b = coexistent_pair(3, trial_rng(1, "unit:coex", idx))
        assert decide(a, b).verdict == Verdict.COEXISTENT


def test_noncoexistent_pair_is_not():
    for idx in range(5):
        a, b = noncoexistent_pair(3, trial_rng(2, "unit:noncoex", idx))
        assert decide(a, b).verdict == Verdict.NOT_COEXISTENT


def test_run_suite_counts_are_consistent():
    cfg = HarnessConfig(dims=(2, 3), trials_per_suite=8, seed=5)
    section = run_suite("lem3_roundtrip", cfg)
    assert section["name"] == "lem3_roundtrip"
    assert section["trials"] == 8
    total = section["passed"] + section["failed"] + section["indeterminate"]
    assert total == 8
    assert section["max_residual"] >= 0.0
    assert section["wall_time_s"] >= 0.0
    assert section["failures"] == []


def test_failed_trials_are_counted_and_reported(monkeypatch, capsys):
    # Every third decision reads Indeterminate and every other one is
    # inverted, so each oracle cross-check trial is indeterminate or fails.
    calls = []

    def wrong(a, b, **kwargs):
        res = decide(a, b, **kwargs)
        calls.append(res)
        if len(calls) % 3 == 0:
            return dataclasses.replace(res, verdict=Verdict.INDETERMINATE)
        flipped = Verdict.NOT_COEXISTENT if res.coexistent else Verdict.COEXISTENT
        return dataclasses.replace(res, verdict=flipped)

    monkeypatch.setattr(harness, "decide", wrong)
    section = run_suite("oracle_crosscheck", HarnessConfig(dims=(2,), trials_per_suite=9))
    assert all(res.definite for res in calls)
    assert (section["passed"], section["failed"], section["indeterminate"]) == (0, 6, 3)
    assert [f["trial"] for f in section["failures"]] == [0, 1, 3]
    for exemplar in section["failures"]:
        assert "solver says" in exemplar["detail"]
        stored = loads_document(dumps_document(exemplar["inputs"]))
        inputs = [document_matrix(doc) for doc in stored.values()]
        assert len(inputs) == 2 and all(isinstance(e, Effect) and e.dim == 2 for e in inputs)
    assert main(["harness", "--dims", "2", "--trials", "3", "--suites", "oracle_crosscheck"]) == 1
    assert "totals: 0 passed, 2 failed, 1 indeterminate" in capsys.readouterr().out


def test_run_all_report_shape():
    cfg = HarnessConfig(dims=(2,), trials_per_suite=4, seed=9,
                        suites=("convexity", "reconstruction"))
    report = run_all(cfg)
    assert [s["name"] for s in report["suites"]] == ["convexity", "reconstruction"]
    assert report["totals"]["passed"] == 8
    assert report["config"]["seed"] == 9
    assert report["total_wall_time_s"] >= 0.0


def test_report_signature_strips_timing_only():
    cfg = HarnessConfig(dims=(2, 3), trials_per_suite=6, seed=11)
    r1 = run_all(cfg)
    r2 = run_all(cfg)
    assert r1["total_wall_time_s"] != 0.0 or r2["total_wall_time_s"] != 0.0
    assert report_signature(r1) == report_signature(r2)
    r3 = run_all(HarnessConfig(dims=(2, 3), trials_per_suite=6, seed=12))
    assert report_signature(r1) != report_signature(r3)
    assert "wall_time_s" not in report_signature(r1)


def test_write_report_round_trips(tmp_path):
    cfg = HarnessConfig(dims=(2,), trials_per_suite=3, seed=13,
                        suites=("lemma_properties",))
    report = run_all(cfg)
    path = tmp_path / "report.json"
    write_document(path, report)
    back = loads_document(path.read_text())
    assert back["totals"] == report["totals"]
    assert back["suites"][0]["name"] == "lemma_properties"


def test_config_validation():
    with pytest.raises(ValueError):
        HarnessConfig(dims=(1, 2))
    with pytest.raises(ValueError):
        HarnessConfig(dims=(2, 9))
    with pytest.raises(ValueError):
        HarnessConfig(trials_per_suite=0)
    with pytest.raises(ValueError) as err:
        HarnessConfig(suites=("convexity", "nonsense"))
    assert "'nonsense'" in str(err.value)
    assert f"valid suites: {', '.join(SUITE_NAMES)}" in str(err.value)


def test_config_refuses_dims_that_are_not_integers():
    # int() once ran 2.7 as dim 2 and "3" as dim 3.
    for dims in ((2.7,), ("3",), (True, 2), (2, 3.0)):
        with pytest.raises(ValueError, match="dims must be"):
            HarnessConfig(dims=dims)
    cfg = HarnessConfig(dims=(np.int64(3), 2))
    assert cfg.dims == (3, 2) and all(type(d) is int for d in cfg.dims)


def test_suite_names_cover_contract():
    assert SUITE_NAMES == (
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


def test_clean_run_has_no_contradictions():
    cfg = HarnessConfig(dims=(2, 3, 4), trials_per_suite=15, seed=17)
    report = run_all(cfg)
    assert report["totals"]["failed"] == 0
    rate = report["totals"]["indeterminate"] / max(1, 10 * 15)
    assert rate <= 0.02
