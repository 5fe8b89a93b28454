"""Iterative factorization of bipolar product vectors.

Given a vector known to be the element-wise product of one codevector per
factor, the decoder loops over four phases per factor: unbind the other
factors' current estimates from the input, score the unbound vector
against the factor's codebook (an attention vector of cosine
similarities), sparsify the attentions with a threshold, and rebuild
the estimate as the sign of the attention-weighted codevector
superposition.

Three variants share that loop, one compiled call (``_sweep.c``) for
every one of them:

* ``brn``  -- baseline without added noise; only exactly-zero
  reconstruction sums take random signs (the tie-break stream).
* ``imf``  -- adds fresh i.i.d. Gaussian noise (std ``sigma``) to every
  attention read, and the same noise to the reconstruction weights.
* ``acf``  -- flips each element of a *reconstruction copy* of every
  codebook once, with probability ``flip_rate``, at initialization; the
  search copy stays clean and the fixed asymmetry plays the role of
  noise without a per-iteration noise source.

All randomness derives from a single 64-bit seed through fixed, named
substreams (mask / init / tie-break / attention-noise), so runs are
bit-reproducible and a variant's draws never disturb another's: ``acf``
with ``flip_rate=0`` and ``imf`` with ``sigma=0`` reproduce ``brn``
trajectories exactly under the same seed.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import _sweep
from .vsa import Codebook, as_bipolar

VARIANT_KINDS = ("brn", "imf", "acf")
#: Hard cap on the default iteration budget min(M**F, cap).
DEFAULT_ITER_CAP = 10_000
#: The low 64 bits of a PCG64 state or increment.
_WORD = (1 << 64) - 1


@dataclass(frozen=True)
class VariantSpec:
    """Which decoder variant to run, plus its variant-specific knobs.

    ``sigma`` is only meaningful (and only allowed) for ``imf``;
    ``flip_rate`` only for ``acf``.  ``activation_threshold`` applies to
    every variant (None means 0): attentions at or below it are zeroed
    before reconstruction (strict comparison).  At the default of 0 positive
    attentions pass through untouched, but negative ones are still
    dropped; keeping them turns out to stabilize spurious two-factor
    states where each estimate locks to the complement of the other.
    """

    kind: str
    sigma: Optional[float] = None
    flip_rate: Optional[float] = None
    activation_threshold: Optional[float] = 0.0

    def __post_init__(self):
        if self.kind not in VARIANT_KINDS:
            raise ValueError(f"variant kind must be one of {VARIANT_KINDS}, got {self.kind!r}")
        if self.activation_threshold is None:
            object.__setattr__(self, "activation_threshold", 0.0)
        if self.kind == "imf":
            if self.sigma is None:
                raise ValueError("sigma is required for imf")
            if not (math.isfinite(self.sigma) and self.sigma >= 0):
                raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        elif self.sigma is not None:
            raise ValueError(f"sigma only applies to imf, not {self.kind}")
        if self.kind == "acf":
            if self.flip_rate is None:
                raise ValueError("flip_rate is required for acf")
            if not 0.0 <= self.flip_rate <= 1.0:
                raise ValueError(f"flip_rate must be in [0, 1], got {self.flip_rate}")
        elif self.flip_rate is not None:
            raise ValueError(f"flip_rate only applies to acf, not {self.kind}")
        if not (math.isfinite(self.activation_threshold) and self.activation_threshold >= 0):
            raise ValueError(
                f"activation_threshold must be finite and >= 0, got {self.activation_threshold}"
            )

    @classmethod
    def brn(cls, activation_threshold: float = 0.0) -> "VariantSpec":
        return cls("brn", activation_threshold=activation_threshold)

    @classmethod
    def imf(cls, sigma: float, activation_threshold: float = 0.0) -> "VariantSpec":
        return cls("imf", sigma=sigma, activation_threshold=activation_threshold)

    @classmethod
    def acf(cls, flip_rate: float, activation_threshold: float = 0.0) -> "VariantSpec":
        return cls("acf", flip_rate=flip_rate, activation_threshold=activation_threshold)


@dataclass(frozen=True)
class FactorizerConfig:
    """Full problem + decoder configuration for one run."""

    variant: VariantSpec
    F: int
    M: int
    D: int
    max_iters: Optional[int] = None
    convergence_threshold: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if self.F < 2:
            raise ValueError(f"F must be >= 2, got {self.F}")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        if self.D < 1:
            raise ValueError(f"D must be >= 1, got {self.D}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not 0.0 < self.convergence_threshold <= 1.0:
            raise ValueError(
                f"convergence_threshold must be in (0, 1], got {self.convergence_threshold}"
            )

    def resolved_max_iters(self) -> int:
        if self.max_iters is not None:
            return self.max_iters
        return min(self.M**self.F, DEFAULT_ITER_CAP)


@dataclass
class FactorizerState:
    """Decoder state after ``iteration`` update sweeps.

    ``estimates`` is (F, D) int8; ``attentions`` is (F, M) float64 and
    holds the pre-activation attention of each factor from the most
    recent sweep (NaN before the first one).
    """

    estimates: np.ndarray
    attentions: np.ndarray
    iteration: int = 0
    converged: bool = False


@dataclass(frozen=True)
class PerturbedCodebooks:
    """Search and reconstruction codebook copies for one run.

    For ``brn`` and ``imf`` the reconstruction books alias the search
    books and ``masks`` is None.  For ``acf``, ``masks[f]`` is the (M, D)
    +-1 flip mask applied once, at initialization, to factor f's
    reconstruction copy.  Only the books are stored; each read of
    ``masks`` derives it as ``recon_books[f] * search_books[f]``.
    """

    search_books: tuple
    recon_books: tuple

    @property
    def masks(self) -> Optional[tuple]:
        if self.recon_books is self.search_books:
            return None
        return tuple(r.codevectors * s.codevectors
                     for r, s in zip(self.recon_books, self.search_books))

    @cached_property
    def _kernels(self) -> "_Kernels":
        """The sweep's layouts of these books, built once on first use."""
        return _Kernels(self)


@dataclass
class FactorizerStreams:
    """Named random substreams derived from one root seed.

    Keeping the streams separate means e.g. ``imf`` noise draws cannot
    shift the tie-break draws that all variants share.
    """

    masks: np.random.Generator
    init: np.random.Generator
    ties: np.random.Generator
    noise: np.random.Generator


def derive_streams(seed: int) -> FactorizerStreams:
    root = np.random.SeedSequence(seed % 2**64)
    children = root.spawn(4)
    return FactorizerStreams(*(np.random.default_rng(c) for c in children))


@dataclass(frozen=True)
class FactorizeResult:
    indices: tuple
    iterations: int
    converged: bool
    state: FactorizerState


def _flip(books, flip_rate: float, rng: np.random.Generator) -> list:
    """Copies of the +-1 int8 ``books``, each element negated where its uniform is below ``flip_rate``.

    The uniforms are those of ``rng.random(book.shape)`` for each book in
    turn, and ``rng`` is left as those draws leave it: one compiled
    ``resfact_flip`` call per book draws them from the PCG64 state, which
    is read once and written back once under the generator's lock.  So
    ``rng`` must be PCG64, the generator ``derive_streams`` makes; any
    other raises ``ValueError``.
    """
    bit_generator = _pcg64(rng, "mask")
    flipped = []
    with bit_generator.lock:
        state = bit_generator.state
        pcg = state["state"]
        st = np.array([pcg["state"] & _WORD, pcg["state"] >> 64,
                       pcg["inc"] & _WORD, pcg["inc"] >> 64], dtype=np.uint64)
        for book in books:
            book = np.ascontiguousarray(book, dtype=np.int8)  # .ctypes.data reads it even if read-only
            out = np.empty(book.shape, dtype=np.int8)
            _sweep.flip(_sweep.address(st), book.size, flip_rate, book.ctypes.data,
                        _sweep.address(out))
            flipped.append(out)
        pcg["state"] = int(st[1]) << 64 | int(st[0])
        bit_generator.state = state
    return flipped


def generate_bfm(size: int, dim: int, flip_rate: float, rng: np.random.Generator) -> np.ndarray:
    """Random bit-flip mask: (size, dim) entries, -1 with probability ``flip_rate``.

    Multiplying a codebook by the mask flips each element independently
    with probability ``flip_rate``; 0 leaves everything intact and 1
    negates every element.

    The mask equals ``np.where(rng.random((size, dim)) < flip_rate, -1,
    1)`` and leaves ``rng`` in the same state, since it is ``_flip`` of a
    book of ones: ``rng`` must be PCG64, the generator ``derive_streams``
    makes; any other raises ``ValueError``.  The identity is kept because
    the golden mask and trajectory digests pin the ``acf`` masks.
    """
    if not 0.0 <= flip_rate <= 1.0:
        raise ValueError(f"flip_rate must be in [0, 1], got {flip_rate}")
    return _flip([np.ones((size, dim), dtype=np.int8)], flip_rate, rng)[0]


def perturb_codebooks(books, variant: VariantSpec, rng: np.random.Generator) -> PerturbedCodebooks:
    """Build the per-run codebook copies; only ``acf`` actually perturbs.

    The masks are drawn here, once, so the same asymmetry applies at
    every subsequent iteration.  Factor f's ``acf`` reconstruction book is
    its codevectors times ``generate_bfm(M, D, flip_rate, rng)``, the
    factors drawn in order, built in one ``_flip`` pass without the mask:
    a product of +-1 arrays, so it needs no validation.  ``rng`` must be
    PCG64, the generator ``derive_streams`` makes; any other raises
    ``ValueError``.  ``brn`` and ``imf`` draw nothing from it.
    """
    search = tuple(books)
    if variant.kind != "acf":
        return PerturbedCodebooks(search_books=search, recon_books=search)
    recon = _flip([b.codevectors for b in search], variant.flip_rate, rng)
    return PerturbedCodebooks(search_books=search,
                              recon_books=tuple(Codebook._unchecked(r) for r in recon))


def init_estimates(pbooks: PerturbedCodebooks, rng: np.random.Generator) -> FactorizerState:
    """Start every factor at the majority bundle of its full search codebook.

    That gives each candidate codevector a small positive expected
    attention, so no candidate starts invisible.  One compiled call
    (``resfact_init``) counts the +1 entries of each column in the
    packed search rows of ``pbooks._kernels``, which ``run`` builds
    anyway, and takes the sign of the column sum 2 * count - M.  Each
    factor's exact zeros are drawn from ``rng`` as ``sign_to_bipolar``
    draws them from the same generator, so ``rng`` must be PCG64, the
    generator ``derive_streams`` makes; any other raises ``ValueError``.
    """
    init = _bitgen(rng, "init")
    kernels = pbooks._kernels
    factors, size, dim = kernels.shape
    estimates = np.empty((factors, dim), dtype=np.int8)
    with rng.bit_generator.lock:
        _sweep.init(kernels._plan_at, _sweep.address(estimates), init)
    attentions = np.full((factors, size), np.nan)
    return FactorizerState(estimates=estimates, attentions=attentions)


def _pack(books) -> np.ndarray:
    """(M, D) +-1 books packed by ``_sweep.pack`` into one (F, M, ceil(D / 64)) uint64 array."""
    size, dim = np.shape(books[0])
    out = np.empty((len(books), size, -(-dim // 64)), dtype=np.uint64)
    for book, words in zip(books, out):
        rows = np.ascontiguousarray(book, dtype=np.int8)  # .ctypes.data reads it even if read-only
        _sweep.pack(rows.ctypes.data, size, dim, out.shape[2], _sweep.address(words))
    return out


class _Kernels:
    """Per-run codebook layouts and the plan of the update sweep.

    ``search[f]`` is factor f's search codebook bit-packed by ``_pack``,
    so the dot product of a row with a query that the compiled update
    packs the same way is D - 2 * popcount(xor), an exact integer.
    ``recon[f]`` is its reconstruction book in that layout, whose
    surviving rows the compiled update sums; it is ``search[f]`` unless
    the variant is ``acf``.  Each role's books are packed once per run,
    into one (F, M, words) array that the lists view.  ``shape`` is
    (F, M, D).  ``_plan_at`` is the address of the plan that the compiled
    sweep and ``init_estimates`` read, which ``_sweep.plan`` lays out in
    one block, with the scratch every factor shares.  So one sweep or
    init at a time may use a ``_Kernels``.

    Each factor also keeps its last search: its packed query and, in
    ``nums[f, :M]``, that query's integer numerators, which its next
    search updates from the bits that changed where that is cheaper
    (``_sweep.delta_limit``).  The books by columns that such an update
    reads are built by the factor's first update.  ``searches`` counts the full searches and the updates.
    """

    __slots__ = ("search", "recon", "shape", "nums", "searches", "_plan", "_plan_at")

    def __init__(self, pbooks: PerturbedCodebooks):
        size, dim = pbooks.search_books[0].codevectors.shape
        if size * dim >= 2**31:
            raise ValueError(f"M * D = {size * dim} would overflow the int32 "
                             "reconstruction sums; it must be below 2**31")
        recon = search = _pack([b.codevectors for b in pbooks.recon_books])
        if pbooks.recon_books is not pbooks.search_books:
            search = _pack([b.codevectors for b in pbooks.search_books])
        self.recon = list(recon)
        self.search = self.recon if search is recon else list(search)
        self.shape = (len(search), size, dim)
        self.nums = np.empty((len(search), 64 * -(-size // 64)), dtype=np.int32)
        self.searches = np.zeros(2, dtype=np.int64)
        args = (_sweep.address(search), _sweep.address(recon), size, dim, len(search),
                _sweep.address(self.nums), _sweep.address(self.searches))
        self._plan = np.empty(_sweep.plan(None, *args), dtype=np.uint8)
        self._plan_at = _sweep.address(self._plan)
        _sweep.plan(self._plan_at, *args)


def _pcg64(rng: np.random.Generator, stream: str):
    """The bit generator of ``rng``, the ``stream`` stream, if it is PCG64.

    The compiled draws are checked to draw like numpy from PCG64, the
    generator ``derive_streams`` makes, and refuse any other.
    """
    bit_generator = rng.bit_generator
    if type(bit_generator) is not np.random.PCG64:
        raise ValueError(f"the compiled code draws only from a PCG64 {stream} stream, "
                         f"not {type(bit_generator).__name__}")
    return bit_generator


def _bitgen(rng: np.random.Generator, stream: str) -> int:
    """Address of the ``bitgen_t`` of ``rng``, the ``stream`` stream, for the compiled code."""
    return _sweep.bitgen(_pcg64(rng, stream))


def _advance(state, x, kernels, cfg, streams, budget=1) -> FactorizerState:
    """Up to ``budget`` update sweeps from ``state``: the one ``_sweep.run`` call of a decode.

    Each factor unbinds the others' latest estimates from the int8 ``x``.
    Reconstruction weights are the attention *numerators*, plus D times
    ``imf``'s noise: unlike the attentions, they keep ``brn``'s and
    ``acf``'s ties exact.  ``brn`` and ``acf`` compare the numerators
    themselves with the least one whose attention passes each threshold,
    and form their attentions once, from the last sweep's numerators.
    Ties come from the tie stream, ``imf``'s noise, ``standard_normal(M)``
    per factor update, from the noise stream, both locked.  The sweeps
    stop after the first where every factor's maximum attention is above
    ``cfg.convergence_threshold`` (strict), the one stopping rule.  Each
    factor's search starts from what ``kernels`` kept of its last one,
    whatever state that came from.  Returns the successor state, with
    fresh arrays.
    """
    factors, size, dim = kernels.shape
    estimates = np.array(state.estimates, dtype=np.int8, order="C")
    # The compiled update would read past the end of either.
    if estimates.shape != (factors, dim) or np.shape(x) != (dim,):
        raise ValueError(f"estimates of shape {estimates.shape} and an input of shape "
                         f"{np.shape(x)} for {factors} codebooks of dimension {dim}")
    x = np.ascontiguousarray(x, dtype=np.int8)
    attentions = np.empty((factors, size))
    ties = _bitgen(streams.ties, "tie")
    noise = _bitgen(streams.noise, "noise") if cfg.variant.kind == "imf" else None
    converged = ctypes.c_int64()
    with streams.ties.bit_generator.lock, streams.noise.bit_generator.lock:
        sweeps = _sweep.run(kernels._plan_at, x.ctypes.data, _sweep.address(estimates),
                            _sweep.address(attentions), cfg.variant.activation_threshold,
                            cfg.variant.sigma or 0.0, cfg.convergence_threshold, budget,
                            ties, noise, converged)
    return FactorizerState(estimates=estimates, attentions=attentions,
                           iteration=state.iteration + sweeps, converged=bool(converged.value))


def step(
    state: FactorizerState,
    x,
    pbooks: PerturbedCodebooks,
    cfg: FactorizerConfig,
    streams: FactorizerStreams,
) -> FactorizerState:
    """Apply one update sweep and return the successor state, converged where ``run`` stops."""
    if state.converged:
        raise RuntimeError("step called on a converged state")
    xv = _check_run_inputs(x, pbooks.search_books, cfg)
    return _advance(state, xv, pbooks._kernels, cfg, streams)


def _check_run_inputs(x, books, cfg: FactorizerConfig) -> np.ndarray:
    """Validate the books against ``cfg`` and return ``x`` as a bipolar int8 vector."""
    if len(books) != cfg.F:
        raise ValueError(f"config expects F={cfg.F} codebooks, got {len(books)}")
    for f, b in enumerate(books):
        if b.size != cfg.M:
            raise ValueError(f"codebook {f} has size {b.size}, config says M={cfg.M}")
        if b.dim != cfg.D:
            raise ValueError(f"codebook {f} has dim {b.dim}, config says D={cfg.D}")
    if np.shape(x) != (cfg.D,):
        raise ValueError(f"input vector has shape {np.shape(x)}, config says ({cfg.D},)")
    return as_bipolar(x, "input vector")


def run(
    x,
    books,
    cfg: FactorizerConfig,
    on_step: Optional[Callable[[FactorizerState], None]] = None,
) -> FactorizeResult:
    """Factorize ``x`` against ``books`` under ``cfg``.

    Iterates update sweeps until every factor's max attention exceeds
    ``cfg.convergence_threshold`` (strict, the one stopping rule) or the
    iteration budget runs out, then decodes each factor as the argmax of
    its final attention vector.  The whole trajectory is a pure function
    of ``cfg.seed``.

    ``on_step`` (if given) observes every post-sweep state; useful for
    trajectory comparisons and debugging.  Each state owns its arrays,
    which later sweeps leave alone.  Without ``on_step``, a decode is one
    ``_advance`` call for the whole budget; with it, one call per sweep.
    Both run the same sweeps, tie and noise draws included.
    """
    xv = _check_run_inputs(x, books, cfg)
    streams = derive_streams(cfg.seed)
    pbooks = perturb_codebooks(books, cfg.variant, streams.masks)
    state = init_estimates(pbooks, streams.init)
    limit = cfg.resolved_max_iters()
    while state.iteration < limit and not state.converged:
        state = _advance(state, xv, pbooks._kernels, cfg, streams,
                         limit - state.iteration if on_step is None else 1)
        if on_step is not None:
            on_step(state)

    indices = tuple(int(np.argmax(state.attentions[f])) for f in range(cfg.F))
    return FactorizeResult(
        indices=indices,
        iterations=state.iteration,
        converged=state.converged,
        state=state,
    )
