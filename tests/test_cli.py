import subprocess
import sys

import numpy as np
import pytest

from effectkit import coexistence
from effectkit.cli import main
from effectkit.harness import trial_rng
from effectkit.hermitian import Effect, as_matrix, random_effect, random_projection
from effectkit.matrixio import loads_document, read_document, read_matrix, write_document, write_matrix
from effectkit.preservers import (
    TraceThresholdSpec,
    preserver_spec_document,
    random_block_spec,
    random_standard_spec,
)


@pytest.fixture()
def effects(tmp_path):
    a = random_effect(3, seed=1)
    b = random_effect(3, seed=2)
    pa = tmp_path / "a.mat"
    pb = tmp_path / "b.mat"
    write_matrix(pa, a)
    write_matrix(pb, b)
    return pa, pb


def test_check_coexistent_pair(effects, capsys):
    pa, pb = effects
    code = main(["check", str(pa), str(pb)])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: Coexistent" in out
    assert "iterations:" in out


def test_check_not_coexistent_pair(tmp_path, capsys):
    p = tmp_path / "p.mat"
    q = tmp_path / "q.mat"
    write_matrix(p, Effect(np.diag([0.9, 0.0]).astype(complex)))
    v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    write_matrix(q, Effect(0.9 * np.outer(v, v).astype(complex)))
    code = main(["check", str(p), str(q)])
    assert code == 1
    assert "NotCoexistent" in capsys.readouterr().out


def test_check_writes_certificate(effects, tmp_path, capsys):
    pa, pb = effects
    cert = tmp_path / "cert.json"
    code = main(["check", str(pa), str(pb), "--cert", str(cert)])
    assert code == 0
    doc = read_document(cert)
    assert sorted(doc) == ["a", "b", "e", "f", "g", "m", "n"]
    m = read_matrix_from_doc(doc["m"])
    assert m.shape == (3, 3)


def read_matrix_from_doc(doc):
    from effectkit.matrixio import document_matrix
    out = document_matrix(doc)
    return as_matrix(out)


def test_stratify_projection(tmp_path, capsys):
    path = tmp_path / "p.mat"
    write_matrix(path, random_projection(4, 1, seed=3))
    code = main(["stratify", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "p: 1" in out
    assert "q: 3" in out
    assert "freedom_dimension: 10" in out


def test_stratify_refuses_a_tol_of_one_half(tmp_path, capsys):
    # At --tol 0.5, 0.5 I counted at both 0 and 1 (p: 2, q: 2), and
    # freedom_dimension then failed with a traceback and exit 70.
    path = tmp_path / "half.mat"
    write_matrix(path, Effect(0.5 * np.eye(2)))
    for tol in ("0.5", "0.9"):
        assert main(["--tol", tol, "stratify", str(path)]) == 64
    captured = capsys.readouterr()
    assert "tol must be below 0.5" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""
    assert main(["--tol", "0.49", "stratify", str(path)]) == 0
    assert "p: 0\nq: 0\n" in capsys.readouterr().out


def test_apply_standard_map(tmp_path, effects, capsys):
    pa, _ = effects
    spec_path = tmp_path / "std.spec"
    spec = random_standard_spec(3, seed=4, transpose=False, perp=False)
    write_document(spec_path, preserver_spec_document(spec))
    out_path = tmp_path / "img.mat"
    code = main(["apply", "--map", "standard", "--spec", str(spec_path),
                 str(pa), "--out", str(out_path)])
    assert code == 0
    img = read_matrix(out_path)
    u = spec.unitary
    a = read_matrix(pa)
    assert np.allclose(as_matrix(img), u @ as_matrix(a) @ u.conj().T, atol=1e-12)


def test_apply_map_kind_mismatch(tmp_path, effects, capsys):
    pa, _ = effects
    spec_path = tmp_path / "tt.spec"
    write_document(spec_path, preserver_spec_document(TraceThresholdSpec(dim=3, alpha=1.0)))
    code = main(["apply", "--map", "standard", "--spec", str(spec_path), str(pa)])
    assert code == 64


def test_apply_rejects_a_malformed_spec_document(tmp_path, effects):
    # A vector entry that is not a [re, im] pair is bad input (66), not a crash (70).
    pa, _ = effects
    doc = preserver_spec_document(random_block_spec(3, seed=6))
    doc["vectors"][0][0] = [1.0]
    spec_path = tmp_path / "blk.spec"
    write_document(spec_path, doc)
    code = main(["apply", "--map", "block-cx", "--spec", str(spec_path), str(pa)])
    assert code == 66
    # A trace-threshold dim must be a JSON integer: 3.9 is bad input, not 3.
    write_document(spec_path, {"map": "trace-threshold", "dim": 3.9, "alpha": 1.0})
    code = main(["apply", "--map", "trace-threshold", "--spec", str(spec_path), str(pa)])
    assert code == 66


def test_apply_without_out_prints_document(tmp_path, effects, capsys):
    pa, _ = effects
    spec_path = tmp_path / "tt.spec"
    write_document(spec_path, preserver_spec_document(TraceThresholdSpec(dim=3, alpha=1.0)))
    code = main(["apply", "--map", "trace-threshold", "--spec", str(spec_path), str(pa)])
    assert code == 0
    doc = loads_document(capsys.readouterr().out)
    assert doc["dim"] == 3


def test_reconstruct_standard_spec(tmp_path, capsys):
    spec = random_standard_spec(3, seed=5, transpose=True, perp=False)
    spec_path = tmp_path / "std.spec"
    write_document(spec_path, preserver_spec_document(spec))
    out_path = tmp_path / "u.mat"
    code = main(["reconstruct", "--map-spec", str(spec_path), "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "antiunitary: true" in out
    assert "perp: false" in out
    u = read_matrix(out_path)
    assert np.linalg.norm(u.conj().T @ u - np.eye(3)) <= 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_reconstruct_fails_closed_on_a_trace_threshold_map(tmp_path, capsys, dim):
    # The probes are rank-one projections, of trace 1, which a trace-threshold
    # map with alpha 1 leaves alone: the fit is the identity, and only the
    # verification on low- and high-trace effects shows that it is wrong.
    spec_path = tmp_path / "tt.spec"
    write_document(spec_path, preserver_spec_document(TraceThresholdSpec(dim, 1.0)))
    assert main(["reconstruct", "--map-spec", str(spec_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("reconstruction failed: the fit misses the map by")
    write_document(spec_path, preserver_spec_document(random_standard_spec(dim, seed=dim)))
    assert main(["reconstruct", "--map-spec", str(spec_path)]) == 0
    assert "verify_gap: " in capsys.readouterr().out
    assert main(["--seed", str(-dim), "reconstruct", "--map-spec", str(spec_path)]) == 0


def test_reconstruct_rejects_block_map(tmp_path, capsys):
    spec_path = tmp_path / "blk.spec"
    write_document(spec_path, preserver_spec_document(random_block_spec(2, seed=6)))
    code = main(["reconstruct", "--map-spec", str(spec_path)])
    assert code == 64


def test_harness_subcommand(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = main(["--seed", "3", "harness", "--dims", "2", "--trials", "4",
                 "--suites", "convexity,oracle_crosscheck", "--out", str(out_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite convexity:" in out
    assert "totals:" in out
    report = loads_document(out_path.read_text())
    assert report["config"]["seed"] == 3


def test_missing_file_exits_66(tmp_path, capsys):
    code = main(["check", str(tmp_path / "no.mat"), str(tmp_path / "no2.mat")])
    assert code == 66


def test_malformed_file_exits_66(tmp_path, capsys):
    bad = tmp_path / "bad.mat"
    bad.write_text("{{{")
    code = main(["check", str(bad), str(bad)])
    assert code == 66
    bad.write_text('{"dim": 2, "entries": '
                   '[[NaN, 0.0], [0.0, 0.0], [0.0, 0.0], [0.5, 0.0]]}')
    code = main(["check", str(bad), str(bad)])
    assert code == 66


_UNDECODABLE = {
    "latin1": b'{"dim": 1, "entries": [[0.5, 0.0]], "note": "caf\xe9"}',
    "overflow": b'{"dim": 1, "kind": "effect", "entries": [[1' + b"0" * 400 + b', 0]]}',
    "deep": b"[" * 200_000 + b"]" * 200_000,
}


@pytest.mark.parametrize("name", sorted(_UNDECODABLE))
def test_undecodable_file_exits_66(tmp_path, capsys, name):
    # Non-UTF-8 bytes, an integer beyond float range and JSON nested 200,000
    # deep are malformed input, not an internal error with a traceback.
    bad = tmp_path / f"{name}.mat"
    bad.write_bytes(_UNDECODABLE[name])
    assert main(["check", str(bad), str(bad)]) == 66
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_dimension_mismatch_exits_66(tmp_path, capsys):
    paths = {}
    for dim in (2, 3):
        paths[dim] = tmp_path / f"a{dim}.mat"
        write_matrix(paths[dim], random_effect(dim, seed=dim))
    assert main(["check", str(paths[2]), str(paths[3])]) == 66
    assert capsys.readouterr().err == "error: dimension mismatch: 2 vs 3\n"
    specs = {"standard": random_standard_spec(2, seed=7),
             "trace-threshold": TraceThresholdSpec(dim=2, alpha=1.0)}
    for kind, spec in specs.items():
        spec_path = tmp_path / f"{kind}.spec"
        write_document(spec_path, preserver_spec_document(spec))
        assert main(["apply", "--map", kind, "--spec", str(spec_path), str(paths[3])]) == 66
        assert capsys.readouterr().err == "error: dimension mismatch: 2 vs 3\n"


def test_non_effect_matrix_exits_66(tmp_path, capsys):
    path = tmp_path / "h.mat"
    write_matrix(path, np.diag([2.0, 0.0]).astype(complex))
    code = main(["check", str(path), str(path)])
    assert code == 66


def test_usage_errors_exit_64(effects, tmp_path, capsys):
    assert main([]) == 64
    assert main(["bogus"]) == 64
    assert main(["check", "only-one-arg"]) == 64
    assert main(["harness", "--dims", "1,2"]) == 64
    assert main(["harness", "--suites", "nope"]) == 64
    pa, pb = (str(path) for path in effects)
    for flags in (["--max-cycles", "0"], ["--max-cycles", "-1"]):
        assert main(["check", pa, pb, *flags]) == 64
        assert main(["harness", "--dims", "2", "--trials", "1", *flags]) == 64
    proj = tmp_path / "proj.mat"
    write_matrix(proj, random_projection(2, 1, seed=3))
    for tol in ("nan", "-1", "inf"):
        assert main(["--tol", tol, "stratify", str(proj)]) == 64
        assert main(["--tol", tol, "check", pa, pb]) == 64
    assert "Traceback" not in capsys.readouterr().err


def test_verdict_tolerances_take_no_flags(tmp_path, capsys):
    # A = x pp*, B = x qq* with |<p, q>|^2 = 1/2 peak at 1.0005: NotCoexistent.
    # check's tolerances are fixed, so no flag can turn it into a Coexistent
    # verdict whose witness the verifiers reject.
    x = 1.0005 / (1.0 + np.sqrt(0.5))
    v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    paths = [tmp_path / "a.mat", tmp_path / "b.mat"]
    write_matrix(paths[0], Effect(np.diag([x, 0.0]).astype(complex)))
    write_matrix(paths[1], Effect(x * np.outer(v, v).astype(complex)))
    pa, pb = map(str, paths)
    assert main(["check", pa, pb]) == 1
    assert main(["--tol", "1e-3", "check", pa, pb]) == 64
    assert "check takes no tolerance" in capsys.readouterr().err
    assert main(["--tol", "1e-3", "check", pa, pb, "--cert", str(tmp_path / "c.json")]) == 64
    assert main(["check", pa, pb, "--feas-tol", "1e-2"]) == 64
    assert main(["check", pa, pb, "--feas-tol", "1e-2", "--sep-tol", "1e-1"]) == 64
    assert main(["harness", "--dims", "2", "--trials", "1", "--sep-tol", "0.1"]) == 64
    assert "Traceback" not in capsys.readouterr().err


def test_reconstruct_takes_the_spec_dimension(tmp_path, capsys):
    spec_path = tmp_path / "std.spec"
    write_document(spec_path, preserver_spec_document(random_standard_spec(2, seed=5)))
    assert main(["reconstruct", "--map-spec", str(spec_path), "--dim", "3"]) == 64
    assert "Traceback" not in capsys.readouterr().err
    assert main(["reconstruct", "--map-spec", str(spec_path)]) == 0


def test_console_script_entry_point(tmp_path):
    a = tmp_path / "a.mat"
    write_matrix(a, Effect(0.5 * np.eye(2, dtype=complex)))
    proc = subprocess.run(
        [sys.executable, "-m", "effectkit.cli", "check", str(a), str(a)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "Coexistent" in proc.stdout


def test_max_steps_is_the_newton_step_budget(tmp_path, capsys, monkeypatch):
    # Criterion 6's pair dim 3 #70 needs 7 Newton steps to be proved
    # NotCoexistent; with a budget of 5 it ends Indeterminate.  The budget is
    # a module constant, read at each call, and no flag sets it.
    rng = trial_rng(0, "acc6:3", 70)
    paths = [tmp_path / "a.mat", tmp_path / "b.mat"]
    for path in paths:
        write_matrix(path, random_effect(3, seed=rng))
    args = ["check", *map(str, paths)]
    assert main(args) == 1
    assert "iterations: 7" in capsys.readouterr().out
    monkeypatch.setattr(coexistence, "MAX_STEPS", 5)
    assert main(args) == 2
    assert "iterations: 5" in capsys.readouterr().out
    assert main([*args, "--max-cycles", "5"]) == 64
    # --stall-window went with the projection solver.
    assert main([*args, "--stall-window", "50"]) == 64
