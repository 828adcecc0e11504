"""Recover the conjugation underlying a black-box effect-algebra symmetry.

Given only an evaluation handle for a map assumed to act as A -> U A U*
(possibly transposing first, possibly composed with the complement), a small
fixed probe set of rank-one projections determines the complement flag, the
columns of U with consistent phases, and whether the map is antiunitary.
The fit never certifies the assumption; it reports residuals instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .hermitian import Effect, as_effect, orthocomplement, random_effect, _rng
from .preservers import StandardAutomorphismSpec, apply_standard

# An evaluation capability for a fixed-dimension map on effects.
MapHandle = Callable[[Effect], Effect]

# Entries of column one below this magnitude are treated as zero when fixing
# the global phase.
_GAUGE_CUTOFF = 1e-8


class InconsistentMap(ValueError):
    """Map images at 0 and I match neither the plain nor the complemented form."""


class NonProjectionImage(ValueError):
    """A probe projection was mapped to something far from a projection."""


class NonOrthogonalImages(ValueError):
    """Images of the basis projections do not line up as an orthonormal frame."""


class PhaseFitFailure(ValueError):
    """A superposition probe gave no usable phase information."""


@dataclass(frozen=True)
class ReconstructionResult:
    unitary: np.ndarray
    antiunitary: bool
    perp: bool
    residual: float

    @property
    def spec(self) -> StandardAutomorphismSpec:
        return StandardAutomorphismSpec(self.unitary, self.antiunitary, self.perp)


def _probe(handle: MapHandle, vec: np.ndarray) -> Effect:
    return as_effect(handle(Effect.trusted(np.outer(vec, vec.conj()))))


def detect_perp(handle: MapHandle, dim: int) -> bool:
    """Whether the map swaps 0 and I (i.e. is complement-composed).

    Decided by the image of 0, cross-checked against the image of I; raises
    InconsistentMap when either image is far from both candidates (threshold
    0.1 * sqrt(dim) in Frobenius norm).
    """
    eye = np.eye(dim, dtype=complex)
    scale = 0.1 * np.sqrt(dim)

    def classify(image: np.ndarray, label: str) -> bool:
        to_zero = float(np.linalg.norm(image))
        to_eye = float(np.linalg.norm(image - eye))
        if min(to_zero, to_eye) > scale:
            raise InconsistentMap(
                f"map({label}) is {to_zero:.3g} from 0 and {to_eye:.3g} from I")
        return to_eye < to_zero

    at_zero = classify(as_effect(handle(Effect.trusted(np.zeros_like(eye)))).matrix, "0")
    at_eye = classify(as_effect(handle(Effect.trusted(eye))).matrix, "I")
    if at_zero == at_eye:
        raise InconsistentMap("images of 0 and I land on the same candidate")
    return at_zero


def reconstruct(handle: MapHandle, dim: int, tol: float = 1e-6) -> ReconstructionResult:
    """Fit a standard automorphism to a black-box map.

    Probe plan: the basis projections give the columns of U up to phase;
    the real superpositions (e_1 + e_j)/sqrt(2) align the phases; the single
    complex superposition (e_1 + i e_2)/sqrt(2) separates unitary from
    antiunitary.  The assembled frame is snapped to its polar unitary factor
    and gauged so the first non-negligible entry of column one is real
    positive.
    """
    if dim < 2:
        raise ValueError("need dimension at least 2")
    perp = detect_perp(handle, dim)
    if perp:
        inner = handle
        handle = lambda a: orthocomplement(inner(a))  # noqa: E731

    eye = np.eye(dim, dtype=complex)
    probes_used: list[np.ndarray] = []

    def rank_one_image(vec: np.ndarray) -> Effect:
        probes_used.append(vec)
        image = _probe(handle, vec)
        w = image.eig.eigenvalues
        dev = max(float(np.max(np.abs(w[:-1]))), abs(float(w[-1]) - 1.0))
        if dev > tol:
            raise NonProjectionImage(
                f"probe image spectrum is {dev:.3g} away from {{0, 1}}")
        return image

    u = np.stack([rank_one_image(eye[:, j]).eig.eigenvectors[:, -1]
                  for j in range(dim)], axis=1)

    gram_dev = float(np.max(np.abs(u.conj().T @ u - np.eye(dim))))
    if gram_dev > max(tol, 1e-7):
        raise NonOrthogonalImages(
            f"Gram matrix of column images deviates from I by {gram_dev:.3g}")

    # Align column phases: the image of (e_1 + e_j)^ projects onto a mix of
    # columns 1 and j, and the cross element <u_1, image u_j> equals
    # e^{i(theta_j - theta_1)}/2 under the true map.
    for j in range(1, dim):
        vec = (eye[:, 0] + eye[:, j]) / np.sqrt(2.0)
        image = rank_one_image(vec).matrix
        z = complex(u[:, 0].conj() @ image @ u[:, j])
        if abs(z) < 0.1:
            raise PhaseFitFailure(
                f"superposition probe {j} gave cross element {abs(z):.3g}")
        u[:, j] = u[:, j] * (z.conjugate() / abs(z))

    # With phases aligned, the complex probe's cross element is -i/2 for a
    # unitary map and +i/2 for an antiunitary one.
    vec = (eye[:, 0] + 1j * eye[:, 1]) / np.sqrt(2.0)
    image = rank_one_image(vec).matrix
    z = complex(u[:, 0].conj() @ image @ u[:, 1])
    if abs(z.imag) < 0.1:
        raise PhaseFitFailure(
            f"complex probe gave imaginary part {z.imag:.3g}, expected ±1/2")
    antiunitary = z.imag > 0.0

    # Snap to the nearest unitary (polar factor of the assembled frame).
    p, _, q = np.linalg.svd(u)
    u = p @ q

    for entry in u[:, 0]:
        if abs(entry) > _GAUGE_CUTOFF:
            u = u * (entry.conjugate() / abs(entry))
            break

    result_spec = StandardAutomorphismSpec(u, antiunitary, perp)
    original = inner if perp else handle
    residual = 0.0
    for vec in probes_used:
        probe_effect = Effect.trusted(np.outer(vec, vec.conj()))
        dev = np.linalg.norm(
            as_effect(original(probe_effect)).matrix
            - apply_standard(result_spec, probe_effect).matrix)
        residual = max(residual, float(dev))

    return ReconstructionResult(u, antiunitary, perp, residual)


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Frobenius distance between matrices minimized over a global phase.

    The optimal phase is the argument of tr(V* U); when that trace vanishes
    every phase is equally good and the plain distance is returned.
    """
    z = complex(np.trace(v.conj().T @ u))
    if abs(z) > 0.0:
        v = v * (z / abs(z))
    return float(np.linalg.norm(u - v))


def verify_reconstruction(handle: MapHandle, result: ReconstructionResult,
                          trials: int, seed) -> float:
    """Max Frobenius gap between the map and its fitted form on random effects."""
    rng = _rng(seed)
    dim = result.unitary.shape[0]
    spec = result.spec
    worst = 0.0
    for _ in range(trials):
        a = random_effect(dim, seed=rng)
        dev = np.linalg.norm(as_effect(handle(a)).matrix
                             - apply_standard(spec, a).matrix)
        worst = max(worst, float(dev))
    return worst
