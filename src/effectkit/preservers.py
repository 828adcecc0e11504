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
    _rng,
)
from .strata import is_scalar

GRID_NODES = 1025  # value table of g on {k/1024 : k = 0..1024}


@dataclass(frozen=True)
class StandardAutomorphismSpec:
    """A -> U A U* (transposing A first when antiunitary), then optional perp.

    The unitary is validated once, here: the spec keeps a read-only copy of
    it, so the caller's array stays writable and later changes to it cannot
    reach the spec.  apply_standard trusts that copy and does not check it
    again.
    """

    unitary: np.ndarray
    transpose: bool = False
    perp: bool = False

    def __post_init__(self):
        u = require_unitary(np.array(self.unitary, dtype=complex))
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)

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

    f(t) = t**alpha with alpha >= 0, so f(1) = 1 and f is monotone with
    f(t) > 0 for t > 0; both properties are also checked on a grid of step
    1e-3 at construction.  Above trace dim-1 the map acts through the
    complement, which keeps it compatible with orthocomplementation.
    """

    dim: int
    alpha: float = 1.0

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dim must be at least 2")
        if not self.alpha >= 0.0:
            raise ValueError("alpha must be nonnegative")
        grid = np.linspace(1e-3, 1.0, 1000)
        vals = grid ** self.alpha
        if vals[-1] != 1.0 or np.any(vals <= 0.0) or np.any(np.diff(vals) < 0.0):
            raise ValueError("f fails its monotone-positive checks")

    def f(self, t: float) -> float:
        return float(t) ** self.alpha


def apply_trace_threshold(spec: TraceThresholdSpec, a) -> Effect:
    e = _effect_of_dim(a, spec.dim)
    n = spec.dim
    s = trace(e)
    if s <= 1.0:
        return clamped_effect(spec.f(s) * e.matrix)
    if s <= n - 1.0:
        return e
    # High-trace branch: act on the complement (whose trace is n - s <= 1)
    # and complement back.  At s = n-1 this agrees with the middle branch.
    eye = np.eye(n)
    inner = spec.f(n - s) * (eye - e.matrix)
    return clamped_effect(eye - inner)


def trace_threshold_inverse(spec: TraceThresholdSpec, b) -> Effect:
    """Preimage of B under the trace-threshold map.

    On the low-trace branch B = f(t) A with t = tr A, so s = tr B =
    t f(t) = t^(1 + alpha); hence t = s^(1/(1 + alpha)) in closed form and
    A = (t/s) B.  The high-trace branch routes through the complement.
    """
    eb = _effect_of_dim(b, spec.dim)
    n = spec.dim
    s = trace(eb)
    if s <= 1.0:
        return clamped_effect(_inverse_low_trace(spec, eb.matrix, s))
    if s <= n - 1.0:
        return eb
    comp = np.eye(n) - eb.matrix
    return clamped_effect(np.eye(n) - _inverse_low_trace(spec, comp, n - s))


def _inverse_low_trace(spec: TraceThresholdSpec, bm: np.ndarray, s: float) -> np.ndarray:
    if s <= 0.0:
        return bm
    return (s ** (1.0 / (1.0 + spec.alpha)) / s) * bm


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
        t = np.asarray(self.contraction, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("contraction must be square")
        if operator_norm(t) > 1.0 + 1e-10:
            raise ValueError("contraction must have operator norm at most 1")
        n = t.shape[0]
        if not self.vectors or len(self.vectors) != len(self.diagonals):
            raise ValueError("need equally many vectors and diagonals, at least one")
        vecs = []
        for x in self.vectors:
            v = np.asarray(x, dtype=complex).reshape(-1)
            if v.shape[0] != n:
                raise ValueError("vector length must match dimension")
            if not abs(np.linalg.norm(v) - 1.0) <= 1e-10:
                raise ValueError("vectors must have unit norm")
            v.flags.writeable = False
            vecs.append(v)
        diags = []
        for d in self.diagonals:
            g = np.asarray(d, dtype=float).reshape(-1)
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

    @property
    def terms(self) -> int:
        return len(self.vectors)


def random_block_spec(dim: int, seed, terms: int = 4) -> BlockCounterexampleSpec:
    rng = _rng(seed)
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    t = z * (rng.uniform(0.6, 1.0) / operator_norm(z))
    vecs = []
    for _ in range(terms):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vecs.append(v / np.linalg.norm(v))
    diags = [rng.uniform(0.0, 1.0, size=dim) for _ in range(terms)]
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
        clamped_effect((squeezed + squeezed.conj().T) / 2.0),
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
        u = require_unitary(np.array(self.unitary, dtype=complex))
        u.flags.writeable = False
        object.__setattr__(self, "unitary", u)
        g = np.array(self.grid, dtype=float).reshape(-1)
        if g.shape[0] != GRID_NODES:
            raise ValueError(f"grid must hold {GRID_NODES} values")
        if not np.all((g >= 0.0) & (g <= 1.0)) or len(np.unique(g)) != GRID_NODES:
            raise ValueError("grid values must be distinct points of [0, 1]")
        g.flags.writeable = False
        object.__setattr__(self, "grid", g)
        if self.selector not in ("hash", "first"):
            raise ValueError(f"unknown selector {self.selector!r}")
        seed = self.selector_seed
        if (isinstance(seed, bool) or not isinstance(seed, (int, np.integer))
                or not 0 <= seed < 2 ** 64):
            raise ValueError(f"selector_seed must be an integer in [0, 2**64), got {seed!r}")
        object.__setattr__(self, "selector_seed", int(seed))

    @property
    def dim(self) -> int:
        return self.unitary.shape[0]


def random_ges_spec(dim: int, seed, shuffle_grid: bool = True) -> GesBijectiveSpec:
    rng = _rng(seed)
    u = random_unitary(dim, rng)
    nodes = np.linspace(0.0, 1.0, GRID_NODES)
    grid = rng.permutation(nodes) if shuffle_grid else nodes
    return GesBijectiveSpec(u, grid, int(rng.integers(2 ** 62)))


def _pair_bit(spec: GesBijectiveSpec, member: np.ndarray) -> int:
    """Hash bit deciding which conjugation branch the canonical member takes."""
    payload = spec.selector_seed.to_bytes(8, "little")
    payload += np.ascontiguousarray(np.round(member.view(float), 6)).tobytes()
    return hashlib.sha256(payload).digest()[0] & 1


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
            canonical = am if ta < tp else pm
        else:
            ba = np.ascontiguousarray(np.round(am.view(float), 6)).tobytes()
            bp = np.ascontiguousarray(np.round(pm.view(float), 6)).tobytes()
            canonical = am if ba <= bp else pm
        flip = bool(_pair_bit(spec, canonical))
    return Effect._owned(_conjugate(pm if flip else am, spec.unitary))


# ---------------------------------------------------------------------------
# Spec documents (for the CLI and for reproducible fixtures)


def preserver_spec_document(spec) -> dict:
    from .matrixio import matrix_document

    if isinstance(spec, StandardAutomorphismSpec):
        return {
            "map": "standard",
            "transpose": spec.transpose,
            "perp": spec.perp,
            "unitary": matrix_document(spec.unitary),
        }
    if isinstance(spec, TraceThresholdSpec):
        return {"map": "trace-threshold", "dim": spec.dim, "alpha": spec.alpha}
    if isinstance(spec, BlockCounterexampleSpec):
        return {
            "map": "block-cx",
            "contraction": matrix_document(spec.contraction),
            "vectors": [[[float(z.real), float(z.imag)] for z in v]
                        for v in spec.vectors],
            "diagonals": [[float(x) for x in d] for d in spec.diagonals],
        }
    if isinstance(spec, GesBijectiveSpec):
        return {
            "map": "ges",
            "selector": spec.selector,
            "selector_seed": int(spec.selector_seed),
            "grid": [float(x) for x in spec.grid],
            "unitary": matrix_document(spec.unitary),
        }
    raise TypeError(f"not a preserver spec: {type(spec).__name__}")


def _flag(doc: dict, key: str) -> bool:
    """A boolean field of a spec document: JSON true or false, default false."""
    value = doc.get(key, False)
    if not isinstance(value, bool):
        raise ValueError(f"field {key!r} must be true or false, got {value!r}")
    return value


def _integer(doc: dict, key: str) -> int:
    """A required integer field of a spec document: a JSON integer, not a bool."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _number(doc: dict, key: str, default: float) -> float:
    """A numeric field of a spec document: a JSON number, not a bool or a string."""
    value = doc.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number, got {value!r}")
    return float(value)


def document_preserver_spec(doc: dict):
    from .matrixio import FileFormatError, complex_entries, document_matrix

    kind = doc.get("map")
    try:
        if kind == "standard":
            return StandardAutomorphismSpec(
                document_matrix(doc["unitary"]),
                _flag(doc, "transpose"),
                _flag(doc, "perp"),
            )
        if kind == "trace-threshold":
            return TraceThresholdSpec(_integer(doc, "dim"), _number(doc, "alpha", 1.0))
        if kind == "block-cx":
            vectors = tuple(complex_entries(v) for v in doc["vectors"])
            diagonals = tuple(np.array(d, dtype=float) for d in doc["diagonals"])
            return BlockCounterexampleSpec(
                document_matrix(doc["contraction"]), vectors, diagonals
            )
        if kind == "ges":
            return GesBijectiveSpec(
                document_matrix(doc["unitary"]),
                np.array(doc["grid"], dtype=float),
                doc.get("selector_seed", 0),
                str(doc.get("selector", "hash")),
            )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"bad preserver spec: {exc}") from exc
    raise FileFormatError(f"unknown map kind: {kind!r}")


def preserver_handle(spec):
    """Evaluation closure Effect -> Effect for any map spec record."""
    if isinstance(spec, StandardAutomorphismSpec):
        return lambda a: apply_standard(spec, a)
    if isinstance(spec, TraceThresholdSpec):
        return lambda a: apply_trace_threshold(spec, a)
    if isinstance(spec, BlockCounterexampleSpec):
        return lambda a: apply_block_counterexample(spec, a)
    if isinstance(spec, GesBijectiveSpec):
        return lambda a: apply_ges_bijective(spec, a)
    raise TypeError(f"not a preserver spec: {type(spec).__name__}")
