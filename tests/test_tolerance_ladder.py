"""The spectral predicates on the tolerance ladder.

Effects are built with eigenvalues at half and at twice the DETECTION_TOL
(1e-9) and CLASSIFY_TOL (1e-7) rungs from 0 and 1, so each predicate's
answer is fixed by the documented threshold with a margin far above
rounding.  fast_path and the strata predicates must read each effect's
cached eigenvalues instead of decomposing it again.  Every public function
that takes a tolerance from its caller rejects a NaN, infinite or negative
one; those that use a fixed rung take no tolerance at all.  Rank-one pairs
whose sum peaks within 1e-2 of 1, and full-rank pairs (A, cB) with c
within 1e-2 of their coexistence threshold, probe the solver at the
feasibility tolerance: its verdicts stay certified and consistent.
"""

import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

import effectkit
from effectkit.cli import main
from effectkit.coexistence import (
    CERT_TOL,
    FEAS_TOL,
    SEP_TOL,
    Reason,
    Verdict,
    decide,
    decide_blockwise,
    fast_path,
    efg_to_mn,
    mn_to_efg,
    verify_dual,
    verify_efg,
    verify_mn,
)
from effectkit.harness import trial_rng
from effectkit.hermitian import (
    CLASSIFY_TOL,
    DETECTION_TOL,
    ORDER_TOL,
    Effect,
    as_effect,
    eig,
    loewner_leq,
    random_effect,
    random_unitary,
    require_hermitian,
    require_tolerance,
    require_unitary,
    spectrum,
    strictly_less,
)
from effectkit.preservers import preserver_handle, random_standard_spec
from effectkit.reconstruction import reconstruct
from effectkit.strata import canonical_form, classify, is_projection, is_scalar

OFFSETS = (0.0, 0.5 * DETECTION_TOL, 2.0 * DETECTION_TOL,
           0.5 * CLASSIFY_TOL, 2.0 * CLASSIFY_TOL)


def _effect(values, seed) -> Effect:
    """Effect(...) with the given spectrum in a seeded Haar eigenbasis."""
    u = random_unitary(len(values), seed=seed)
    m = (u * np.asarray(values, dtype=float)) @ u.conj().T
    return Effect((m + m.conj().T) / 2.0)


def _generic(dim, seed) -> Effect:
    return Effect(random_effect(dim, seed=seed).matrix)


# An eigenvalue is ("one", d) at 1 - d, ("zero", d) at d, or ("interior", x).
endpoint = st.tuples(st.sampled_from(("one", "zero")), st.sampled_from(OFFSETS))
interior = st.tuples(st.just("interior"), st.floats(0.1, 0.9))
eigenvalue = st.one_of(endpoint, endpoint, interior)
spectra = st.lists(eigenvalue, min_size=2, max_size=4)


def _value(kind, x):
    return 1.0 - x if kind == "one" else x


def _counts(spec, tol):
    p = sum(kind == "one" and x < tol for kind, x in spec)
    q = sum(kind == "zero" and x < tol for kind, x in spec)
    return p, q


def _commutator(a, b) -> float:
    """||AB - BA||, as fast_path computes it."""
    am, bm = a.matrix, b.matrix
    return np.linalg.norm(am @ bm - bm @ am)


def _assert_decide_symmetric(a, b):
    ab, ba = decide(a, b), decide(b, a)
    assert (ab.verdict, ab.reason, ab.residual, ab.iterations) == \
        (ba.verdict, ba.reason, ba.residual, ba.iterations)
    if ab.coexistent:
        assert verify_mn(a, b, *ab.witness)
        assert verify_mn(b, a, *ba.witness)
    return ab


@seed(111)
@settings(deadline=None, max_examples=60)
@given(spec=spectra, s=st.integers(0, 2 ** 32 - 1))
def test_classify_and_is_projection_follow_the_ladder(spec, s):
    a = _effect([_value(kind, x) for kind, x in spec], s)
    assert classify(a) == _counts(spec, CLASSIFY_TOL)
    assert classify(a, DETECTION_TOL) == _counts(spec, DETECTION_TOL)
    for tol in (CLASSIFY_TOL, DETECTION_TOL):
        assert is_projection(a, tol) == (sum(_counts(spec, tol)) == len(spec))
    assert is_projection(a) == is_projection(a, CLASSIFY_TOL)


@seed(113)
@settings(deadline=None, max_examples=60)
@given(t=st.floats(0.2, 0.8),
       offsets=st.lists(st.sampled_from(OFFSETS), min_size=2, max_size=4),
       s=st.integers(0, 2 ** 32 - 1))
def test_is_scalar_follows_the_ladder(t, offsets, s):
    a = _effect([t + d for d in offsets], s)
    spread = max(offsets) - min(offsets)
    for tol in (CLASSIFY_TOL, DETECTION_TOL):
        flag, value = is_scalar(a, tol)
        assert flag == (spread <= tol)
        assert value == pytest.approx(t + np.mean(offsets), abs=1e-12)
    b = _generic(len(offsets), s)
    res = fast_path(a, b)
    if spread <= DETECTION_TOL:
        assert res.reason is Reason.SCALAR_RULE
    elif _commutator(a, b) <= DETECTION_TOL:
        assert res.reason is Reason.COMMUTE_RULE
    else:
        assert res is None
    _assert_decide_symmetric(a, b)


@seed(117)
@settings(deadline=None, max_examples=40)
@given(spec=st.lists(eigenvalue, min_size=2, max_size=3), s=st.integers(0, 2 ** 32 - 1))
def test_fast_path_rules_follow_the_ladder(spec, s):
    values = [_value(kind, x) for kind, x in spec]
    a = _effect(values, s)
    b = _generic(len(spec), s + 1)
    res = fast_path(a, b)
    if max(values) - min(values) <= DETECTION_TOL:
        assert res.reason is Reason.SCALAR_RULE
    elif sum(_counts(spec, DETECTION_TOL)) == len(spec):
        # A projection coexists only with its commutant, and b is generic.
        assert res.reason is Reason.PROJECTION_RULE
        assert res.verdict is Verdict.NOT_COEXISTENT
    elif _commutator(a, b) <= DETECTION_TOL:
        assert res.reason is Reason.COMMUTE_RULE
    else:
        assert res is None
    _assert_decide_symmetric(a, b)


@seed(119)
@settings(deadline=None, max_examples=40)
@given(dim=st.integers(2, 4), alpha=st.floats(0.2, 0.8), beta=st.floats(0.2, 0.8),
       small=st.lists(st.sampled_from(OFFSETS), min_size=6, max_size=6),
       s=st.integers(0, 2 ** 32 - 1))
def test_rank_one_rule_counts_rank_on_the_classify_rung(dim, alpha, beta, small, s):
    tail_a, tail_b = small[:dim - 1], small[3:3 + dim - 1]
    a = _effect(tail_a + [alpha], s)
    b = _effect(tail_b + [beta], s + 1)
    rank_one = all(d < CLASSIFY_TOL for d in tail_a + tail_b)
    assert (classify(a)[1] == dim - 1 and classify(b)[1] == dim - 1) == rank_one
    res = fast_path(a, b)
    if rank_one:
        assert res.reason is Reason.RANK_ONE_RULE
        peak = float(np.linalg.eigvalsh(a.matrix + b.matrix)[-1])
        assert res.coexistent == (peak <= 1.0 + ORDER_TOL)
    else:
        assert res is None
    _assert_decide_symmetric(a, b)


def test_fast_path_and_strata_reuse_the_cached_decomposition(monkeypatch):
    dim = 3
    u = random_unitary(dim, seed=21)
    commuting = [Effect((u * w) @ u.conj().T) for w in ([0.2, 0.5, 0.7], [0.6, 0.3, 0.4])]
    # Spectra stay inside [0, 1] by more than rounding, so no input is clamped.
    tiny = [1e-12, 2e-12]
    turn = np.eye(dim)
    turn[:2, :2] = [[1.0, -1.0], [1.0, 1.0]] / np.sqrt(2.0)
    pairs = [
        (_generic(dim, 22), _generic(dim, 23)),                  # no rule
        (Effect(0.3 * np.eye(dim)), _generic(dim, 24)),          # scalar
        (_effect(tiny + [1.0 - 1e-12], 25), _generic(dim, 26)),  # projection
        tuple(commuting),                                        # commute
        # rank one, images at 45 degrees: the peak of A + B is 1.54
        (Effect(np.diag([0.9] + tiny)), Effect(turn @ np.diag([0.9] + tiny) @ turn.T)),
    ]
    effects = [e for pair in pairs for e in pair]
    inputs = {e.matrix.tobytes() for e in effects}
    decomposed = []

    def counting(fn):
        def wrapped(x, *args, **kwargs):
            decomposed.append(np.asarray(x).tobytes())
            return fn(x, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh))

    # Eigenvalue readers decompose nothing: the no-rule pair, rules 1-3 and
    # the strata predicates read only the eigenvalues kept from validation.
    assert fast_path(*pairs[0]) is None
    assert decomposed == []
    verdicts = [fast_path(a, b) for a, b in pairs[1:4]]
    assert [v.reason for v in verdicts] == [Reason.SCALAR_RULE, Reason.PROJECTION_RULE,
                                            Reason.COMMUTE_RULE]
    assert not inputs.intersection(decomposed)

    decomposed.clear()
    for e in effects:
        classify(e)
        is_scalar(e)
        is_projection(e)
    assert decomposed == []

    # The rank-one rule and canonical_form need eigenvectors: at most one
    # decomposition per effect, and none on a repeat call.
    def once_each(call):
        decomposed.clear()
        call()
        counts = [decomposed.count(m) for m in inputs]
        assert max(counts) <= 1
        decomposed.clear()
        call()
        assert not inputs.intersection(decomposed)

    def rank_one_rule():
        res = fast_path(*pairs[4])
        assert res.reason == Reason.RANK_ONE_RULE and not res.coexistent

    once_each(rank_one_rule)
    once_each(lambda: [canonical_form(e) for e in effects])


# Diagonal spectra exactly on a rung of fast_path's rule tests, or 1 ulp
# past it.  The eigensolver returns a diagonal matrix's entries exactly, so
# each test compares the rung with itself.
_RUNG_SPECTRA = {
    "spread at DETECTION_TOL": [0.0, DETECTION_TOL],
    "spread 1 ulp past DETECTION_TOL": [0.0, np.nextafter(DETECTION_TOL, 1.0)],
    "eigenvalue at DETECTION_TOL": [DETECTION_TOL, 1.0],
    "eigenvalue 1 ulp past DETECTION_TOL": [np.nextafter(DETECTION_TOL, 1.0), 1.0],
    "eigenvalue at 1 - DETECTION_TOL": [0.0, 1.0 - DETECTION_TOL],
    "eigenvalue 1 ulp short of 1 - DETECTION_TOL": [0.0, np.nextafter(1.0 - DETECTION_TOL, 0.0)],
    "second largest at CLASSIFY_TOL": [CLASSIFY_TOL, 0.6],
    "second largest at CLASSIFY_TOL, dim 3": [0.0, CLASSIFY_TOL, 0.6],
    "second largest 1 ulp past CLASSIFY_TOL": [np.nextafter(CLASSIFY_TOL, 1.0), 0.6],
    "largest at CLASSIFY_TOL": [0.0, CLASSIFY_TOL],
    "dim 1 at 0": [0.0],
    "dim 1 interior": [0.4],
    "dim 1 at 1": [1.0],
}


def _rule_of_the_predicates(a, b):
    """The rule fast_path must pick, by the strata predicates' answers."""
    if is_scalar(a, DETECTION_TOL)[0] or is_scalar(b, DETECTION_TOL)[0]:
        return Reason.SCALAR_RULE
    if is_projection(a, DETECTION_TOL) or is_projection(b, DETECTION_TOL):
        return Reason.PROJECTION_RULE
    if _commutator(a, b) <= DETECTION_TOL:
        return Reason.COMMUTE_RULE
    if classify(a)[1] == a.dim - 1 and classify(b)[1] == b.dim - 1:
        return Reason.RANK_ONE_RULE
    return None


@pytest.mark.parametrize("name", sorted(_RUNG_SPECTRA))
def test_fast_path_picks_the_rule_of_the_predicates_on_each_rung(name):
    values = _RUNG_SPECTRA[name]
    dim = len(values)
    a = Effect(np.diag(values).astype(complex))
    assert a.eigenvalues.tolist() == sorted(values)
    top = random_unitary(dim, seed=41)[:, 0]
    # A full-rank and a rank-one partner.  Both commute with a only when a
    # is within about DETECTION_TOL of 0, as a spread of exactly
    # DETECTION_TOL forces: a float difference of exactly 1e-9 needs
    # operands below 2^-30.
    for b in (_generic(dim, 42), Effect(0.7 * np.outer(top, top.conj()))):
        for x, y in ((a, b), (b, a)):
            res = fast_path(x, y)
            assert (None if res is None else res.reason) == _rule_of_the_predicates(x, y)


def _rank_one_pair():
    """Rank-one effects at 45 degrees whose sum peaks at 0.9: Coexistent."""
    turn = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
    peak = 0.9 / (1.0 + np.sqrt(0.5))
    a = Effect(np.diag([peak, 0.0]))
    return a, Effect(turn @ a.matrix @ turn.T)


_SEVENS = np.full((2, 2), 7.0)
# These use a fixed rung and take no tolerance: whatever tol a caller
# passes is refused.  Effect and as_effect are given a spectrum far outside
# [0, 1], which a NaN or infinite tol once clamped onto diag(1, 0).
_FIXED_RUNG = {
    "Effect": lambda a, b, tol: Effect(np.diag([5.0, -3.0]), tol=tol),
    "as_effect": lambda a, b, tol: as_effect(np.diag([5.0, -3.0]), tol=tol),
    "canonical_form": lambda a, b, tol: canonical_form(a, tol=tol),
    "loewner_leq": lambda a, b, tol: loewner_leq(a, b, tol=tol),
    "strictly_less": lambda a, b, tol: strictly_less(a, b, tol=tol),
}
_TOL_TAKERS = {
    "classify": lambda a, b, tol: classify(a, tol),
    "is_scalar": lambda a, b, tol: is_scalar(a, tol),
    "is_projection": lambda a, b, tol: is_projection(a, tol),
    "reconstruct": lambda a, b, tol: reconstruct(
        preserver_handle(random_standard_spec(2, seed=31)), 2, tol=tol),
    # The certificate checks are given a constant 7 for every part: an
    # infinite tol used to accept it as a certificate of any pair.
    "verify_mn": lambda a, b, tol: verify_mn(a, b, _SEVENS, _SEVENS, tol),
    "verify_efg": lambda a, b, tol: verify_efg(a, b, _SEVENS, _SEVENS, _SEVENS, tol),
    "mn_to_efg": lambda a, b, tol: mn_to_efg(_SEVENS, _SEVENS, a, b, tol),
    "efg_to_mn": lambda a, b, tol: efg_to_mn(_SEVENS, _SEVENS, _SEVENS, a, b, tol),
}


@pytest.mark.parametrize("name", sorted({**_FIXED_RUNG, **_TOL_TAKERS}))
@pytest.mark.parametrize("tol", [math.nan, -1.0, -1e-300, math.inf, -math.inf])
def test_public_functions_reject_a_bad_tolerance(name, tol):
    a, b = _rank_one_pair()
    if name in _FIXED_RUNG:
        with pytest.raises(TypeError, match="unexpected keyword argument 'tol'"):
            _FIXED_RUNG[name](a, b, tol)
    else:
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            _TOL_TAKERS[name](a, b, tol)


@pytest.mark.parametrize("name", ["verify_mn", "verify_efg", "mn_to_efg", "efg_to_mn"])
@pytest.mark.parametrize("tol", [1e300, 1.0])
def test_certificate_checks_cannot_be_loosened(name, tol):
    # A tol above CERT_TOL would let verify_mn and verify_efg accept the
    # constant 7 parts as a certificate; a smaller tol is only stricter.
    a, b = _rank_one_pair()
    with pytest.raises(ValueError, match="tol must be at most CERT_TOL"):
        _TOL_TAKERS[name](a, b, tol)
    m, n = decide(a, b).witness
    e, f, g = mn_to_efg(m, n, a, b, CERT_TOL)
    assert verify_mn(a, b, m, n, 1e-12) and verify_efg(a, b, e, f, g, CERT_TOL)
    assert np.array_equal(efg_to_mn(e, f, g, a, b, 1e-12)[1], n.matrix)


def test_good_tolerances_pass_and_inf_stays_internal():
    a, b = _rank_one_pair()
    res = decide(a, b)
    assert res.verdict == Verdict.COEXISTENT and res.reason == Reason.RANK_ONE_RULE
    for tol in (0.0, 0, 1e-300, ORDER_TOL, 1.0):
        assert require_tolerance(tol) == tol
    assert classify(a, 0.0) == (0, 1)
    # No caller can switch require_hermitian's check off: it takes no tol,
    # and the order predicates symmetrise B - A without it.
    with pytest.raises(TypeError):
        require_hermitian(b.matrix - a.matrix, tol=math.inf)
    assert loewner_leq(a, a) and not strictly_less(a, a)
    with pytest.raises(ValueError, match="eps must be finite and > 0"):
        require_tolerance(0.0, "eps", positive=True)


def test_fixed_settings_have_no_parameter_or_flag():
    # The Newton-step budget and these functions' tolerances have one value
    # in use each, so they are module constants, not arguments or options.
    fixed = (Effect, as_effect, require_hermitian, eig, spectrum, require_unitary,
             loewner_leq, strictly_less, canonical_form, decide, decide_blockwise)
    for fn in fixed:
        params = inspect.signature(fn).parameters
        assert not {"tol", "cfg"} & set(params), fn.__name__
    assert not hasattr(effectkit, "SolverConfig")
    assert not hasattr(effectkit, "MAX_CYCLES")
    assert effectkit.MAX_STEPS == 200
    for args in (["check", "a.mat", "b.mat"], ["harness", "--dims", "2", "--trials", "1"]):
        assert main([*args, "--max-cycles", "5"]) == 64


def _rank_one_edge_pair(dim, alpha, beta, target, rng):
    """Rank-one effects alpha pp*, beta qq* whose sum peaks at target.

    On span{p, q} the peak is ((alpha + beta) + sqrt((alpha + beta)^2 -
    4 alpha beta (1 - c))) / 2 for c = |<p, q>|^2, which fixes c; None if
    no overlap c in (0, 1) reaches the target.
    """
    total = alpha + beta
    gap = 2.0 * target - total
    one_minus_c = (total * total - gap * gap) / (4.0 * alpha * beta)
    if not (gap > 0.0 and 0.0 < one_minus_c < 1.0):
        return None
    p = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    p /= np.linalg.norm(p)
    r = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    r -= p * np.vdot(p, r)
    r /= np.linalg.norm(r)
    q = (math.sqrt(1.0 - one_minus_c) * np.exp(2j * np.pi * rng.random()) * p
         + math.sqrt(one_minus_c) * r)
    return Effect(alpha * np.outer(p, p.conj())), Effect(beta * np.outer(q, q.conj()))


def test_verdict_tolerances_are_ordered():
    # Every witness and dual decide returns passes its verifier at CERT_TOL:
    # - ORDER_TOL <= FEAS_TOL: rule 4's witness (0, B) violates I - A - B >= 0
    #   by at most ORDER_TOL, no more than a solver witness's residual;
    # - FEAS_TOL < CERT_TOL: a solver witness has residual below FEAS_TOL
    #   before the eigenvalue clamp, and the gap absorbs the clamp's rounding;
    # - CERT_TOL < SEP_TOL: a dual is accepted once it bounds the margin by
    #   -SEP_TOL and verified at CERT_TOL, so its rounding has room too.
    assert ORDER_TOL <= FEAS_TOL < CERT_TOL < SEP_TOL


@seed(109)
@settings(deadline=None, max_examples=60)
@given(dim=st.integers(2, 5), u=st.floats(-12.0, -9.5),
       alpha=st.floats(0.3, 0.999), beta=st.floats(0.3, 0.999),
       s=st.integers(0, 2**32 - 1))
def test_rank_one_rule_witness_just_above_the_peak(dim, u, alpha, beta, s):
    # Rank-one pairs whose sum peaks at 1 + 10^u, inside rule 4's ORDER_TOL
    # allowance: with fast paths on, every Coexistent witness verifies.
    pair = _rank_one_edge_pair(dim, alpha, beta, 1.0 + 10.0 ** u,
                               np.random.default_rng(s))
    assume(pair is not None)
    a, b = pair
    for x, y in ((a, b), (b, a)):
        res = decide(x, y)
        assert res.coexistent and res.reason == Reason.RANK_ONE_RULE
        assert verify_mn(x, y, *res.witness)


@seed(107)
@settings(deadline=None, max_examples=150)
@given(dim=st.integers(2, 5), u=st.floats(-7.0, -2.0), above=st.booleans(),
       alpha=st.floats(0.3, 0.999), beta=st.floats(0.3, 0.999),
       s=st.integers(0, 2**32 - 1))
def test_solver_at_the_rank_one_edge(dim, u, above, alpha, beta, s):
    target = 1.0 + 10.0 ** u if above else 1.0 - 10.0 ** u
    pair = _rank_one_edge_pair(dim, alpha, beta, target, np.random.default_rng(s))
    assume(pair is not None)
    a, b = pair
    peak = float(np.linalg.eigvalsh(a.matrix + b.matrix)[-1])
    ab, ba = decide(a, b, fast_paths=False), decide(b, a, fast_paths=False)
    assert (ab.verdict, ab.reason, ab.residual, ab.iterations) == \
        (ba.verdict, ba.reason, ba.residual, ba.iterations)
    if peak <= 1.0:
        assert ab.verdict != Verdict.NOT_COEXISTENT
    for x, y, res in ((a, b, ab), (b, a, ba)):
        if res.coexistent:
            assert verify_mn(x, y, *res.witness)
        if res.verdict == Verdict.NOT_COEXISTENT:
            assert verify_dual(x, y, *res.dual)


def _scaled_verdict(a, bm, c, both_orders=True):
    """decide on (A, cB), in both orders if asked: they agree and are certified."""
    b = Effect(c * bm)
    ab = decide(a, b, fast_paths=False)
    checks = [(a, b, ab)]
    if both_orders:
        ba = decide(b, a, fast_paths=False)
        assert (ab.verdict, ab.reason, ab.residual, ab.iterations) == \
            (ba.verdict, ba.reason, ba.residual, ba.iterations)
        checks.append((b, a, ba))
    for x, y, res in checks:
        if res.coexistent:
            assert verify_mn(x, y, *res.witness)
        if res.verdict == Verdict.NOT_COEXISTENT:
            assert verify_dual(x, y, *res.dual)
    return ab.verdict


@seed(108)
@settings(deadline=None, max_examples=30)
@given(dim=st.integers(2, 5), s=st.integers(0, 2**32 - 1),
       us=st.lists(st.floats(-7.0, -2.0), min_size=2, max_size=2))
def test_solver_at_the_full_rank_edge(dim, s, us):
    # Full-rank A and B; c* is where (A, cB) stops coexisting, found by
    # bisection in c to 1e-9 relative.  At c*(1 +- 10^u) both orders agree,
    # and every certificate, there and at each bisection point, verifies.
    # (A, cB) coexisting makes (A, c'B) coexist for every c' < c (scale M
    # and N by c'/c), so no certified NotCoexistent may lie below a
    # Coexistent in c.
    rng = np.random.default_rng(s)
    a, b = random_effect(dim, seed=rng), random_effect(dim, seed=rng)
    bm = b.matrix
    top = 1.0 / b.eigenvalues[-1]  # the largest c for which cB is an effect
    seen = {top: _scaled_verdict(a, bm, top, both_orders=False)}
    assume(seen[top] != Verdict.COEXISTENT)
    lo, hi = 0.0, top
    while hi - lo > 1e-9 * hi:
        mid = (lo + hi) / 2.0
        seen[mid] = _scaled_verdict(a, bm, mid, both_orders=False)
        if seen[mid] == Verdict.COEXISTENT:
            lo = mid
        else:
            hi = mid
    for u in us:
        for c in (hi * (1.0 - 10.0 ** u), min(top, hi * (1.0 + 10.0 ** u))):
            seen[c] = _scaled_verdict(a, bm, c)
    coexistent = [c for c, v in seen.items() if v == Verdict.COEXISTENT]
    not_coexistent = [c for c, v in seen.items() if v == Verdict.NOT_COEXISTENT]
    assert max(coexistent, default=0.0) < min(not_coexistent, default=math.inf)


def test_solver_at_the_harness_maximum_dimension():
    # The harness takes dims up to 8.  Measured there: criterion 6's generic
    # pairs need at most 13 Newton steps (200 pairs) and rank-one pairs at
    # the tolerance edge at most 26 (120 pairs), inside the budget of 200.
    for index in range(12):
        rng = trial_rng(0, "acc6:8", index)
        a, b = random_effect(8, seed=rng), random_effect(8, seed=rng)
        res = decide(a, b)
        assert res.definite
        if res.coexistent:
            assert verify_mn(a, b, *res.witness)
        else:
            assert verify_dual(a, b, *res.dual)
            assert res.iterations <= 40
    rng = np.random.default_rng(8)
    for u in (-2.0, -4.0, -6.0):
        for target in (1.0 - 10.0 ** u, 1.0 + 10.0 ** u):
            a, b = _rank_one_edge_pair(8, 0.7, 0.8, target, rng)
            res = decide(a, b, fast_paths=False)
            if res.coexistent:
                assert verify_mn(a, b, *res.witness)
            else:
                assert res.iterations <= 100
                if res.verdict == Verdict.NOT_COEXISTENT:
                    assert verify_dual(a, b, *res.dual)
