"""Plain int64 references for the four phases of one factor's update.

Unbind, associative search, activation and reconstruction, written the
direct way, and the stopping rule after a sweep.  The package's sweep
(``factorizer._advance``) computes the same phases in compiled code on
packed bits, summing ``imf``'s real-valued weights in float64; the tests
compare it against these.
"""

import numpy as np

from resfact.factorizer import VariantSpec
from resfact.vsa import Codebook, random_bipolar, sign_to_bipolar


def unbind_others(x, estimates, f: int) -> np.ndarray:
    """Strip every factor except ``f`` from the product vector ``x``."""
    est = np.asarray(estimates)
    if not 0 <= f < est.shape[0]:
        raise ValueError(f"factor index {f} out of range for {est.shape[0]} factors")
    xv = np.asarray(x)
    if est.shape[1] != xv.shape[0]:
        raise ValueError(f"dimension mismatch: {est.shape[1]} vs {xv.shape[0]}")
    out = xv.astype(np.int8, copy=True)
    for g in range(est.shape[0]):
        if g != f:
            out *= est[g]
    return out


def associative_search(
    unbound, book: Codebook, variant: VariantSpec, rng: np.random.Generator
) -> np.ndarray:
    """Attention vector: cosine similarity of ``unbound`` to every codevector.

    For ``imf`` a fresh Gaussian draw (std ``sigma``) is added to each
    entry; the other variants read the similarities exactly.
    """
    q = np.asarray(unbound)
    if q.shape[0] != book.dim:
        raise ValueError(f"dimension mismatch: {q.shape[0]} vs codebook {book.dim}")
    raw = (book.codevectors.astype(np.int64) * q.astype(np.int64)).sum(axis=1)
    alpha = raw.astype(np.float64) / book.dim
    if variant.kind == "imf":
        alpha = alpha + variant.sigma * rng.standard_normal(book.size)
    return alpha


def threshold_activation(alpha, threshold: float) -> np.ndarray:
    """Zero every attention entry not strictly above ``threshold``.

    With ``threshold=0`` this keeps only positive entries; the decoder
    applies it at every threshold, including 0.
    """
    arr = np.asarray(alpha, dtype=np.float64)
    return np.where(arr > threshold, arr, 0.0)


def reconstruct(activated, recon_book: Codebook, rng: np.random.Generator) -> np.ndarray:
    """New estimate: sign of the activation-weighted codevector superposition.

    Sum elements that are exactly zero are bipolarized at random.  If the
    whole activation vector is zero there is nothing to superpose, and the
    estimate restarts as a fresh random vector.
    """
    w = np.asarray(activated, dtype=np.float64)
    if w.shape[0] != recon_book.size:
        raise ValueError(
            f"activation length {w.shape[0]} does not match codebook size {recon_book.size}"
        )
    if not w.any():
        return random_bipolar(recon_book.dim, rng)
    s = w @ recon_book.codevectors.astype(np.float64)
    return sign_to_bipolar(s, rng)


def detect_convergence_early(state, threshold: float) -> bool:
    """The stopping rule: every factor's max attention exceeds ``threshold``.

    Strict comparison, evaluated on the pre-activation attentions of the
    latest sweep.
    """
    if np.isnan(state.attentions).any():
        raise ValueError("attentions not populated; run at least one step first")
    return bool((state.attentions.max(axis=1) > threshold).all())
