"""Concrete maps on effect algebras and their serialized spec forms.

Four families: standard automorphisms (unitary or antiunitary conjugation,
optionally composed with orthocomplementation), a trace-threshold map that
rescales low-trace effects, a four-block map into dimension 4n assembled from
one-way-preserving components, and a bijective form that routes each pair
{A, I-A} through either conjugation branch while permuting scalars.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .hermitian import (
    DETECTION_TOL,
    Effect,
    clamped_effect,
    direct_sum,
    operator_norm,
    random_unitary,
    require_unitary,
    trace,
    _conjugate,
    _effect_of_dim,
    _identity,
    _is_integer,
    _numeric,
    _rng,
)
from .matrixio import (
    FileFormatError,
    check_keys,
    complex_entries,
    document_matrix,
    matrix_document,
)
from .strata import is_scalar

GRID_NODES = 1025  # value table of g on {k/1024 : k = 0..1024}


def _frozen_unitary(u) -> np.ndarray:
    """A read-only copy of u, checked unitary once, for a spec to keep."""
    u = np.array(require_unitary(u))
    u.flags.writeable = False
    return u


def _real_vector(values, name: str) -> np.ndarray:
    """A float copy of a flat sequence of real numbers, for a spec to keep.

    An array's dtype goes through the element gate; anything else has each
    element checked, since numpy reads [0.5, True] as floats.
    """
    if isinstance(values, np.ndarray):
        _numeric(values, name, real=True)
    elif not all(isinstance(v, (int, float, np.integer, np.floating))
                 and not isinstance(v, bool) for v in values):
        raise ValueError(f"{name} must hold real numbers, not strings or bools")
    return np.array(values, dtype=float).reshape(-1)


@dataclass(frozen=True)
class StandardAutomorphismSpec:
    """A -> U A U* (transposing A first when antiunitary), then optional perp.

    The unitary and the flags (Python or numpy bools) are validated once,
    here: the spec keeps a read-only copy of the unitary, so the caller's
    array stays writable and later changes to it cannot reach the spec.
    apply_standard trusts that copy and does not check it again.
    """

    unitary: np.ndarray
    transpose: bool = False
    perp: bool = False

    def __post_init__(self):
        object.__setattr__(self, "unitary", _frozen_unitary(self.unitary))
        for name in ("transpose", "perp"):
            if not isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {getattr(self, name)!r}")
            object.__setattr__(self, name, bool(getattr(self, name)))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def _standard_images(spec: StandardAutomorphismSpec, m: np.ndarray) -> np.ndarray:
    """apply_standard's matrix for an effect's matrix, or for a stack of them."""
    out = _conjugate(m.mT if spec.transpose else m, spec.unitary)
    return _identity(spec.dim) - out if spec.perp else out


def apply_standard(spec: StandardAutomorphismSpec, a) -> Effect:
    return Effect._owned(_standard_images(spec, _effect_of_dim(a, spec.dim).matrix))


def random_standard_spec(dim: int, seed, transpose: bool | None = None,
                         perp: bool | None = None) -> StandardAutomorphismSpec:
    rng = _rng(seed)
    u = random_unitary(dim, rng)
    if transpose is None:
        transpose = bool(rng.integers(2))
    if perp is None:
        perp = bool(rng.integers(2))
    return StandardAutomorphismSpec(u, transpose, perp)


@dataclass(frozen=True)
class TraceThresholdSpec:
    """Scale-by-f(trace) map below trace 1, identity in the middle band.

    dim is an integer >= 2 and alpha a real number >= 0 (not bools; numpy
    scalars pass), kept as int and float.  f(t) = t**alpha, so f(1) = 1 and
    f is monotone with f(t) > 0 for t > 0; both properties are also checked
    on a grid of step 1e-3 at construction.  Above trace dim-1 the map acts
    through the complement, which keeps it compatible with orthocomplementation.
    """

    dim: int
    alpha: float = 1.0

    def __post_init__(self):
        dim, alpha = self.dim, self.alpha
        if not _is_integer(dim) or dim < 2:
            raise ValueError(f"dim must be an integer at least 2, got {dim!r}")
        real = (int, float, np.integer, np.floating)
        if isinstance(alpha, bool) or not isinstance(alpha, real) or not float(alpha) >= 0.0:
            raise ValueError(f"alpha must be a nonnegative real number, got {alpha!r}")
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "alpha", float(alpha))
        grid = np.linspace(1e-3, 1.0, 1000)
        vals = grid ** self.alpha
        if np.any(vals <= 0.0) or np.any(np.diff(vals) < 0.0):
            raise ValueError("f fails its monotone-positive checks")


def _by_trace(spec: TraceThresholdSpec, a, low) -> Effect:
    """low(A, tr A) below trace 1, A in the middle band, and above trace n-1
    the complement of low acting on the complement (whose trace n - s is at
    most 1); at s = n-1 this agrees with the middle branch."""
    e = _effect_of_dim(a, spec.dim)
    n = spec.dim
    s = trace(e)
    if s <= 1.0:
        return clamped_effect(low(e.matrix, s))
    if s <= n - 1.0:
        return e
    eye = _identity(n)
    return clamped_effect(eye - low(eye - e.matrix, n - s))


def apply_trace_threshold(spec: TraceThresholdSpec, a) -> Effect:
    return _by_trace(spec, a, lambda m, s: s ** spec.alpha * m)


def trace_threshold_inverse(spec: TraceThresholdSpec, b) -> Effect:
    """Preimage of B under the trace-threshold map.

    On the low-trace branch B = f(t) A with t = tr A, so s = tr B =
    t f(t) = t^(1 + alpha); hence t = s^(1/(1 + alpha)) in closed form and
    A = (t/s) B.
    """
    def low(bm, s):
        return bm if s <= 0.0 else (s ** (1.0 / (1.0 + spec.alpha)) / s) * bm

    return _by_trace(spec, b, low)


@dataclass(frozen=True)
class BlockCounterexampleSpec:
    """Data for the four-block map A -> Diag(A, T A T*, A/2, sum-of-scalars).

    The last block is sum_j 2^{-j} <x_j, A x_j> G_j over unit vectors x_j and
    diagonal effects G_j (stored as their diagonals, so they commute exactly).
    """

    contraction: np.ndarray
    vectors: tuple[np.ndarray, ...]
    diagonals: tuple[np.ndarray, ...]

    def __post_init__(self):
        t = _numeric(self.contraction, "contraction").astype(complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("contraction must be square")
        if operator_norm(t) > 1.0 + 1e-10:
            raise ValueError("contraction must have operator norm at most 1")
        n = t.shape[0]
        if not self.vectors or len(self.vectors) != len(self.diagonals):
            raise ValueError("need equally many vectors and diagonals, at least one")
        vecs = []
        for x in self.vectors:
            v = _numeric(x, "vector").astype(complex).reshape(-1)
            if v.shape[0] != n:
                raise ValueError("vector length must match dimension")
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
                raise ValueError("vectors must have unit norm")
            v.flags.writeable = False
            vecs.append(v)
        diags = []
        for d in self.diagonals:
            g = _real_vector(d, "diagonal")
            if g.shape[0] != n:
                raise ValueError("diagonal length must match dimension")
            if not np.all((g >= 0.0) & (g <= 1.0)):
                raise ValueError("diagonal entries must lie in [0, 1]")
            g.flags.writeable = False
            diags.append(g)
        t.flags.writeable = False
        object.__setattr__(self, "contraction", t)
        object.__setattr__(self, "vectors", tuple(vecs))
        object.__setattr__(self, "diagonals", tuple(diags))

    @property
    def dim(self) -> int:
        return self.contraction.shape[0]


def random_block_spec(dim: int, seed) -> BlockCounterexampleSpec:
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = z * (rng.uniform(0.6, 1.0) / operator_norm(z))
    vecs = []
    for _ in range(4):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vecs.append(v / np.linalg.norm(v))
    diags = [rng.uniform(0.0, 1.0, size=dim) for _ in range(4)]
    return BlockCounterexampleSpec(t, tuple(vecs), tuple(diags))


def block_components(spec: BlockCounterexampleSpec, a) -> tuple[Effect, ...]:
    """The four blocks (A, T A T*, A/2, scalar sum) as separate effects."""
    e = _effect_of_dim(a, spec.dim)
    t = spec.contraction
    squeezed = t @ e.matrix @ t.conj().T
    scalar_sum = np.zeros(spec.dim)
    for j, (x, g) in enumerate(zip(spec.vectors, spec.diagonals), start=1):
        weight = float(np.vdot(x, e.matrix @ x).real)
        scalar_sum = scalar_sum + (2.0 ** -j) * weight * g
    return (
        e,
        clamped_effect(squeezed),
        Effect.trusted(e.matrix / 2.0),
        Effect.trusted(np.diag(scalar_sum).astype(complex)),
    )


def apply_block_counterexample(spec: BlockCounterexampleSpec, a) -> Effect:
    """The full 4n-dimensional block-diagonal image, validated as an effect."""
    return Effect(direct_sum(block_components(spec, a)))


@dataclass(frozen=True)
class GesBijectiveSpec:
    """Bijective pair-routing map: each {A, A^perp} lands on {UAU*, UA^perp U*}.

    With the "hash" selector, whether the pair is routed straight or crossed
    is drawn from a per-pair hash of the selector seed, so the map is wildly
    discontinuous while still matching the conjugation images setwise; the
    two members always receive the two distinct images.  The "first"
    selector routes every pair straight, which with an identity grid makes
    the map a plain conjugation.  Scalars tI go to g(t)I for a bijection g
    of [0, 1] held as a value table over a grid of step 1/1024 (inputs are
    snapped to the nearest node).

    The unitary and the grid are validated once, here: the spec keeps
    read-only copies of both, so the caller's arrays stay writable and later
    changes to them cannot reach the spec.  apply_ges_bijective trusts the
    copies and does not check them again.  The selector seed is hashed as 8
    bytes, so it must be an integer in [0, 2**64).
    """

    unitary: np.ndarray
    grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 1.0, GRID_NODES))
    selector_seed: int = 0
    selector: str = "hash"

    def __post_init__(self):
        object.__setattr__(self, "unitary", _frozen_unitary(self.unitary))
        g = _real_vector(self.grid, "grid")
        if g.shape[0] != GRID_NODES:
            raise ValueError(f"grid must hold {GRID_NODES} values")
        if not np.all((g >= 0.0) & (g <= 1.0)) or len(np.unique(g)) != GRID_NODES:
            raise ValueError("grid values must be distinct points of [0, 1]")
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)
        if self.selector not in ("hash", "first"):
            raise ValueError(f"unknown selector {self.selector!r}")
        seed = self.selector_seed
        if not (_is_integer(seed) and 0 <= seed < 2 ** 64):
            raise ValueError(f"selector_seed must be an integer in [0, 2**64), got {seed!r}")
        object.__setattr__(self, "selector_seed", int(seed))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def random_ges_spec(dim: int, seed) -> GesBijectiveSpec:
    rng = _rng(seed)
    u = random_unitary(dim, rng)
    grid = rng.permutation(np.linspace(0.0, 1.0, GRID_NODES))
    return GesBijectiveSpec(u, grid, int(rng.integers(2 ** 62)))


def _quantised(m: np.ndarray) -> bytes:
    """The entries of m rounded to 6 decimals, as bytes."""
    return np.ascontiguousarray(np.round(m.view(float), 6)).tobytes()


def apply_ges_bijective(spec: GesBijectiveSpec, a) -> Effect:
    e = _effect_of_dim(a, spec.dim)
    scalar, t = is_scalar(e, DETECTION_TOL)
    if scalar:
        node = int(round(t * (GRID_NODES - 1)))
        return Effect.trusted(spec.grid[node] * np.eye(e.dim, dtype=complex))

    # Both members of {A, A^perp} must share the routing decision so that
    # they land on the two distinct conjugation images.  The branch bit is
    # therefore keyed off a canonical pair member (smaller quantized trace,
    # ties broken bytewise); flipping sends each member through its own
    # complement, which keeps the assignment injective.
    am = e.matrix
    pm = np.eye(e.dim) - am
    if spec.selector == "first":
        flip = False
    else:
        ta, tp = round(trace(am), 6), round(trace(pm), 6)
        if ta != tp:
            key = _quantised(am if ta < tp else pm)
        else:
            key = min(_quantised(am), _quantised(pm))
        payload = spec.selector_seed.to_bytes(8, "little") + key
        flip = bool(hashlib.sha256(payload).digest()[0] & 1)
    return Effect._owned(_conjugate(pm if flip else am, spec.unitary))


# ---------------------------------------------------------------------------
# Spec documents (for the CLI and for reproducible fixtures)


class _Kind(NamedTuple):
    """One map kind: its spec class, its map, and the keys its spec document
    holds after "map", in the order written, each paired with whether the
    document must hold it (an absent optional key takes the spec's default)."""

    spec: type
    apply: Callable
    keys: tuple[tuple[str, bool], ...]


_KINDS = {
    "standard": _Kind(StandardAutomorphismSpec, apply_standard,
                      (("transpose", False), ("perp", False), ("unitary", True))),
    "trace-threshold": _Kind(TraceThresholdSpec, apply_trace_threshold,
                             (("dim", True), ("alpha", False))),
    "block-cx": _Kind(BlockCounterexampleSpec, apply_block_counterexample,
                      (("contraction", True), ("vectors", True), ("diagonals", True))),
    "ges": _Kind(GesBijectiveSpec, apply_ges_bijective,
                 (("selector", False), ("selector_seed", False), ("grid", True),
                  ("unitary", True))),
}
MAP_KINDS = tuple(_KINDS)
_MATRIX_FIELDS = ("unitary", "contraction")


def _kind_of(spec) -> tuple[str, _Kind]:
    for name, kind in _KINDS.items():
        if type(spec) is kind.spec:
            return name, kind
    raise TypeError(f"not a preserver spec: {type(spec).__name__}")


def _field_document(key: str, value):
    """A spec field as its document holds it."""
    if key in _MATRIX_FIELDS:
        return matrix_document(value)
    if key == "vectors":
        return [[[float(z.real), float(z.imag)] for z in v] for v in value]
    if key in ("diagonals", "grid"):
        return np.asarray(value).tolist()
    return value


def _field_value(key: str, value):
    """A spec field as read from its document, for the spec to check."""
    if key in _MATRIX_FIELDS:
        return document_matrix(value)
    if key == "vectors":
        return tuple(complex_entries(v) for v in value)
    return value


def preserver_spec_document(spec) -> dict:
    name, kind = _kind_of(spec)
    return {"map": name, **{key: _field_document(key, getattr(spec, key))
                            for key, _ in kind.keys}}


def document_preserver_spec(doc: dict):
    if not isinstance(doc, dict):
        raise FileFormatError("a spec document must be an object")
    name = doc.get("map")
    if not (isinstance(name, str) and name in _KINDS):
        raise FileFormatError(f"unknown map kind: {name!r}")
    kind = _KINDS[name]
    check_keys(doc, f"{name} spec document",
               ("map", *(key for key, required in kind.keys if required)),
               [key for key, required in kind.keys if not required])
    try:
        return kind.spec(**{key: _field_value(key, doc[key])
                            for key, _ in kind.keys if key in doc})
    except (TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad preserver spec: {exc}") from exc


def preserver_handle(spec):
    """Evaluation closure Effect -> Effect for any map spec record."""
    return partial(_kind_of(spec)[1].apply, spec)
