"""Classification of effects by eigenvalue multiplicities at 0 and 1.

The pair (p, q) records how many eigenvalues sit at 1 and at 0; everything
else is interior.  Effects with the same (p, q) form one stratum, and every
member is unitarily equivalent to a block diagonal Diag(I_p, B, 0_q) with B
strictly between 0 and I on the interior block.

classify, is_scalar and is_projection are the package's spectral
predicates; each reads the effect's cached eigenvalues.
"""

from __future__ import annotations

import numpy as np

from .hermitian import CLASSIFY_TOL, as_effect, require_tolerance


def classify(a, tol: float = CLASSIFY_TOL) -> tuple[int, int]:
    """Multiplicities (p, q) of eigenvalue 1 and eigenvalue 0.

    Eigenvalues within tol of an endpoint count as sitting on it.  For
    generated data the interior margin is four orders of magnitude wider than
    the default tolerance, so classification is stable.  A tol of 0.5 or
    more raises ValueError: the two windows would overlap, and an eigenvalue
    in both would count at 0 and at 1.
    """
    if require_tolerance(tol) >= 0.5:
        raise ValueError(f"tol must be below 0.5 to keep 0 and 1 apart, got {tol!r}")
    w = as_effect(a).eigenvalues
    return int(np.count_nonzero(w >= 1.0 - tol)), int(np.count_nonzero(w <= tol))


def is_scalar(a, tol: float = CLASSIFY_TOL) -> tuple[bool, float]:
    """Whether A = tI, and the scalar t (mean eigenvalue) if so."""
    require_tolerance(tol)
    w = as_effect(a).eigenvalues
    # w.sum() / w.size is np.mean(w) bit for bit, at a third of its cost.
    return bool(w[-1] - w[0] <= tol), float(w.sum() / w.size)


def is_projection(a, tol: float = CLASSIFY_TOL) -> bool:
    """Whether every eigenvalue of A is within tol of 0 or 1."""
    require_tolerance(tol)
    w = as_effect(a).eigenvalues
    return bool(((w <= tol) | (w >= 1.0 - tol)).all())


def freedom_dimension(dim: int, p: int, q: int) -> int:
    """Free real parameters of a Hermitian matrix with zero corner blocks.

    Order a basis so the first p coordinates span the top eigenblock and the
    last q the kernel block.  A Hermitian matrix whose p-by-q corner block
    (and its mirror) is forced to zero loses two real parameters per corner
    entry, leaving dim^2 - 2pq.  Symmetric in p and q, and equal to dim^2
    exactly when one of them is zero.
    """
    if dim < 1:
        raise ValueError("dim must be positive")
    if p < 0 or q < 0 or p + q > dim:
        raise ValueError(f"multiplicities ({p}, {q}) do not fit dimension {dim}")
    return dim * dim - 2 * p * q
