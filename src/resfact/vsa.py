"""Bipolar hypervector algebra.

All vectors live in {-1, +1}^D and are represented as one-dimensional
``numpy`` arrays of dtype ``int8``.  Every operation here is a pure
function; the ones that need randomness take an explicit
``numpy.random.Generator`` so results are reproducible from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _sweep


def as_bipolar(x, name: str = "vector") -> np.ndarray:
    """Validate a value as a bipolar vector and return it as an int8 array."""
    arr = np.asarray(x)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not ((arr == 1) | (arr == -1)).all():
        raise ValueError(f"{name} must contain only -1 and +1")
    return arr.astype(np.int8, copy=False)


def _check_same_dim(x1: np.ndarray, x2: np.ndarray) -> None:
    if x1.shape != x2.shape:
        raise ValueError(f"dimension mismatch: {x1.shape[0]} vs {x2.shape[0]}")


def sign_to_bipolar(sums: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Element-wise sign with exact-zero entries resolved to random +-1."""
    out = np.sign(sums).astype(np.int8)
    ties = out == 0
    n_ties = int(ties.sum())
    if n_ties:
        out[ties] = rng.integers(0, 2, size=n_ties, dtype=np.int8) * 2 - 1
    return out


def random_bipolar(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random vector from {-1, +1}^dim."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    return rng.integers(0, 2, size=dim, dtype=np.int8) * 2 - 1


def bind(x1, x2) -> np.ndarray:
    """Element-wise product of two bipolar vectors.

    Binding is commutative and self-inverse: the result is
    quasi-orthogonal to both inputs when they are random.
    """
    a, b = np.asarray(x1), np.asarray(x2)
    _check_same_dim(a, b)
    return (a * b).astype(np.int8)


def unbind(p, x) -> np.ndarray:
    """Remove a bound factor: identical to ``bind`` in bipolar space."""
    return bind(p, x)


def bundle(xs, rng: np.random.Generator) -> np.ndarray:
    """Majority superposition: element-wise sum then sign.

    Elements whose sum is exactly zero are bipolarized at random from
    ``rng``; whenever one sign strictly dominates an element, the output
    there does not depend on ``rng``.
    """
    if len(xs) == 0:
        raise ValueError("bundle requires at least one vector")
    mat = np.asarray(xs)
    if mat.ndim != 2:
        raise ValueError("bundle inputs must share one dimension")
    sums = mat.sum(axis=0, dtype=np.int64)
    return sign_to_bipolar(sums, rng)


def dot(x1, x2) -> int:
    """Exact integer dot product of two equal-dimension bipolar vectors."""
    a, b = np.asarray(x1), np.asarray(x2)
    _check_same_dim(a, b)
    return int((a.astype(np.int64) * b.astype(np.int64)).sum())


def similarity(x1, x2) -> float:
    """Cosine similarity of bipolar vectors: dot product over dimension.

    Equals ``1 - 2 * hamming / dim`` and always lies in [-1, 1].
    """
    d = dot(x1, x2)
    return d / np.asarray(x1).shape[0]


@dataclass(frozen=True)
class Codebook:
    """A stack of M codevectors of shared dimension D, stored as (M, D) int8.

    Codebooks generated by ``generate_codebook`` are i.i.d. uniform and
    therefore quasi-orthogonal; the class itself only enforces shape and
    the bipolar domain.
    """

    codevectors: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.codevectors)
        if arr.ndim != 2:
            raise ValueError(f"codevectors must be a (M, D) array, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"codebook size must be >= 2, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValueError("codevector dimension must be >= 1")
        if not ((arr == 1) | (arr == -1)).all():
            raise ValueError("codevectors must contain only -1 and +1")
        object.__setattr__(self, "codevectors", arr.astype(np.int8, copy=False))

    @classmethod
    def _unchecked(cls, codevectors: np.ndarray) -> "Codebook":
        """Wrap an (M, D) int8 array that is bipolar by construction, without the checks.

        For books the library builds itself from products of +-1 arrays,
        so that validation stays at the API boundary and out of every trial.
        """
        book = object.__new__(cls)
        object.__setattr__(book, "codevectors", codevectors)
        return book

    @property
    def size(self) -> int:
        return self.codevectors.shape[0]

    @property
    def dim(self) -> int:
        return self.codevectors.shape[1]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.codevectors[i]


def generate_codebook(size: int, dim: int, rng: np.random.Generator) -> Codebook:
    """Draw ``size`` independent random bipolar codevectors of ``dim`` each.

    Element i is +1 where the top bit of byte i of ``rng.bytes(size *
    dim)`` is set and -1 elsewhere.  That is exactly the stream of
    ``rng.integers(0, 2, size=(size, dim), dtype=np.int8) * 2 - 1``,
    and it leaves ``rng`` in the same state, for any ``size * dim``:
    both consume ceil(size * dim / 4) 32-bit draws, four bytes each,
    low byte first.  The identity is kept because the golden instance
    and trajectory digests pin the codebooks.

    The words are drawn 64 bits at a time, about 2.4x as fast as 32.
    Generators that buffer 32-bit draws (PCG64, PCG64DXSM, Philox, SFC64:
    ``has_uint32`` in their state) return the low half and then the high
    half of each 64-bit word, so the bytes are the same: a buffered half
    is used first, and a half left over at the end goes back into the
    buffer, with the state's ``uinteger`` set as the 32-bit draws would
    leave it.  MT19937 buffers nothing and keeps the 32-bit draw.  One
    compiled pass (``resfact_expand`` in ``_sweep.c``) turns the bytes
    into +-1 in place, without the int8 temporaries of the integer draw.
    """
    if size < 2:
        raise ValueError(f"codebook size must be >= 2, got {size}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    n = size * dim
    n_words = -(-n // 4)  # the 32-bit words that rng.bytes(n) is made of
    state = rng.bit_generator.state
    if "has_uint32" not in state:  # MT19937 buffers no half word
        out = rng.integers(0, 2**32, size=n_words, dtype=np.uint32).astype("<u4", copy=False)
    else:
        head = state["has_uint32"]
        rest = n_words - head
        words = rng.integers(0, 2**64, size=-(-rest // 2), dtype=np.uint64)
        out = words.astype("<u8", copy=False).view(np.int8)
        if head:
            out = np.concatenate([np.array([state["uinteger"]], dtype="<u4").view(np.int8), out])
        state = rng.bit_generator.state
        state["has_uint32"] = rest % 2
        if words.size:
            state["uinteger"] = int(words[-1] >> np.uint64(32))
        rng.bit_generator.state = state
    out = out.view(np.int8)[:n]
    _sweep.expand(_sweep.address(out), n)  # top bit set -> +1, clear -> -1
    return Codebook._unchecked(out.reshape(size, dim))


def bind_product(books, indices) -> np.ndarray:
    """Bind one codevector per factor into a single product vector."""
    if len(books) < 2:
        raise ValueError(f"need at least 2 factors, got {len(books)}")
    if len(indices) != len(books):
        raise ValueError(f"got {len(indices)} indices for {len(books)} codebooks")
    dim = books[0].dim
    out = np.ones(dim, dtype=np.int8)
    for f, (book, i) in enumerate(zip(books, indices)):
        if book.dim != dim:
            raise ValueError("all codebooks must share one dimension")
        if not 0 <= i < book.size:
            raise ValueError(f"index {i} out of range for codebook {f} of size {book.size}")
        out *= book.codevectors[i]
    return out
