"""The spectral predicates on the tolerance ladder.

Effects are built with eigenvalues at half and at twice the DETECTION_TOL
(1e-9) and CLASSIFY_TOL (1e-7) rungs from 0 and 1, so each predicate's
answer is fixed by the documented threshold with a margin far above
rounding.  fast_path and the strata predicates must read each effect's
cached eigendecomposition instead of decomposing it again.
"""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from effectkit.coexistence import Reason, Verdict, decide, fast_path, verify_mn
from effectkit.hermitian import (
    CLASSIFY_TOL,
    DETECTION_TOL,
    ORDER_TOL,
    Effect,
    random_effect,
    random_unitary,
)
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

    assert fast_path(*pairs[0]) is None
    assert decomposed == []
    verdicts = [fast_path(a, b) for a, b in pairs[1:]]
    assert [v.reason for v in verdicts] == [Reason.SCALAR_RULE, Reason.PROJECTION_RULE,
                                            Reason.COMMUTE_RULE, Reason.RANK_ONE_RULE]
    assert not verdicts[-1].coexistent
    assert not inputs.intersection(decomposed)

    decomposed.clear()
    for e in effects:
        classify(e)
        is_scalar(e)
        is_projection(e)
        canonical_form(e)
    assert decomposed == []
