import numpy as np
import pytest
from hypothesis import given, strategies as st

from resfact.vsa import (
    Codebook,
    as_bipolar,
    bind,
    bind_product,
    bundle,
    dot,
    generate_codebook,
    random_bipolar,
    sign_to_bipolar,
    similarity,
    unbind,
)
from resfact.packing import pack_bipolar

dims = st.integers(min_value=1, max_value=512)


def vec(dim, seed):
    return random_bipolar(dim, np.random.default_rng(seed))


@given(dims, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_bind_unbind_self_inverse(d, s1, s2):
    x, y = vec(d, s1), vec(d, s2)
    assert np.array_equal(unbind(bind(x, y), y), x)
    assert np.array_equal(unbind(bind(x, y), x), y)


@given(dims, st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_bind_commutative(d, s1, s2):
    x, y = vec(d, s1), vec(d, s2)
    assert np.array_equal(bind(x, y), bind(y, x))


@given(dims, st.integers(0, 2**32 - 1))
def test_bind_with_self_is_identity_vector(d, s):
    x = vec(d, s)
    assert (bind(x, x) == 1).all()


@given(dims, st.integers(0, 2**32 - 1))
def test_similarity_bounds_and_self(d, s):
    x = vec(d, s)
    y = vec(d, s + 1)
    assert similarity(x, x) == 1.0
    assert similarity(x, -x) == -1.0
    assert -1.0 <= similarity(x, y) <= 1.0


def test_dot_uses_wide_accumulator():
    # int8 inputs must not wrap; 300 matching elements is already > 127
    x = np.ones(300, dtype=np.int8)
    assert dot(x, x) == 300
    assert similarity(x, x) == 1.0


def test_dot_dimension_mismatch():
    with pytest.raises(ValueError):
        dot(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))


@given(st.integers(1, 200), st.integers(3, 9), st.integers(0, 2**32 - 1))
def test_bundle_majority(d, n, s):
    if n % 2 == 0:
        n += 1
    g = np.random.default_rng(s)
    xs = [random_bipolar(d, g) for _ in range(n)]
    out = bundle(xs, g)
    expected = np.sign(np.stack(xs).sum(axis=0))
    # odd count of +-1 cannot tie
    assert np.array_equal(out, expected.astype(np.int8))


def test_bundle_tie_bipolarization(rng):
    x = np.array([1, -1, 1], dtype=np.int8)
    out = bundle([x, -x], rng)
    assert set(np.unique(out)) <= {-1, 1}


def test_sign_to_bipolar_resolves_zeros_randomly():
    sums = np.zeros(2000, dtype=np.int64)
    out = sign_to_bipolar(sums, np.random.default_rng(0))
    assert set(np.unique(out)) == {-1, 1}
    # roughly balanced, 6 sigma on a fair coin
    assert abs(out.sum()) < 6 * np.sqrt(2000)


def test_as_bipolar_rejects_other_values():
    with pytest.raises(ValueError):
        as_bipolar(np.array([1, 0, -1]), "x")
    with pytest.raises(ValueError):
        as_bipolar(np.ones((2, 2)), "x")


def test_random_bipolar_domain_and_determinism():
    a = random_bipolar(500, np.random.default_rng(9))
    b = random_bipolar(500, np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert set(np.unique(a)) == {-1, 1}


def test_generate_codebook_shape_and_determinism():
    book = generate_codebook(17, 64, np.random.default_rng(3))
    again = generate_codebook(17, 64, np.random.default_rng(3))
    assert book.size == 17 and book.dim == 64
    assert np.array_equal(book.codevectors, again.codevectors)


# (M, D) with M * D % 4 in {0, 1, 2, 3}, plus the shape of the F=3 benchmark row.
@pytest.mark.parametrize("M, D", [(4, 8), (3, 7), (2, 9), (5, 3), (215, 1500), (100, 4000)])
def test_generate_codebook_is_the_integer_draw(M, D):
    # The digests pin codebooks drawn as rng.integers(0, 2, dtype=int8);
    # consecutive draws, and the truth draw after them, must see the same stream.
    seed = M * D
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        book = generate_codebook(M, D, fast).codevectors
        want = ref.integers(0, 2, size=(M, D), dtype=np.int8) * 2 - 1
        assert book.dtype == np.int8 and book.shape == (M, D)
        assert np.array_equal(book, want)
        assert fast.bit_generator.state == ref.bit_generator.state
    assert np.array_equal(fast.integers(0, M, size=3), ref.integers(0, M, size=3))
    assert fast.bit_generator.state == ref.bit_generator.state


def _state(g):
    """``g``'s full bit-generator state, with arrays (Philox, MT19937) as lists."""
    def plain(state):
        return {k: plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
                for k, v in state.items()}
    return plain(g.bit_generator.state)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.PCG64DXSM,
                                           np.random.Philox, np.random.SFC64])
@pytest.mark.parametrize("pending", [0, 1, 3])
@pytest.mark.parametrize("M, D", [(4, 8), (3, 7), (2, 9), (5, 3), (2, 2), (100, 4000)])
def test_generate_codebook_takes_a_buffered_half_first(bit_generator, pending, M, D):
    # An odd-length 32-bit draw leaves a half word buffered; the codebook
    # must start with it, and leave the state (has_uint32 and uinteger
    # included) where the integer draw leaves it.
    fast, ref = (np.random.Generator(bit_generator(M + D)) for _ in range(2))
    for g in (fast, ref):
        g.integers(0, 2**32, size=pending, dtype=np.uint32)
    assert fast.bit_generator.state["has_uint32"] == pending % 2
    for _ in range(2):
        book = generate_codebook(M, D, fast).codevectors
        want = ref.integers(0, 2, size=(M, D), dtype=np.int8) * 2 - 1
        assert np.array_equal(book, want)
        assert _state(fast) == _state(ref)
    assert np.array_equal(fast.integers(0, 2**32, size=3, dtype=np.uint32),
                          ref.integers(0, 2**32, size=3, dtype=np.uint32))


def test_generate_codebook_on_mt19937():
    # MT19937 buffers no half word, so its codebooks keep the 32-bit draw.
    fast, ref = np.random.Generator(np.random.MT19937(3)), np.random.Generator(np.random.MT19937(3))
    book = generate_codebook(3, 7, fast).codevectors
    assert np.array_equal(book, ref.integers(0, 2, size=(3, 7), dtype=np.int8) * 2 - 1)
    assert _state(fast) == _state(ref)
    assert set(np.unique(book)) == {-1, 1}


def test_generate_codebook_is_the_top_bit_of_rng_bytes():
    book = generate_codebook(3, 7, np.random.default_rng(5)).codevectors
    top = np.frombuffer(np.random.default_rng(5).bytes(21), dtype=np.uint8) >= 128
    assert np.array_equal(book.ravel() == 1, top)


def test_codebook_validation():
    with pytest.raises(ValueError):
        Codebook(np.ones((1, 8), dtype=np.int8))  # M >= 2
    bad = np.ones((3, 8), dtype=np.int8)
    bad[0, 0] = 0
    with pytest.raises(ValueError):
        Codebook(bad)


# Every entry point that checks the bipolar domain, as (M, D) rows.
BIPOLAR_CHECKS = {
    "Codebook": Codebook,
    "as_bipolar": lambda rows: as_bipolar(rows[0]),
    "pack_bipolar": lambda rows: pack_bipolar(rows[0]),
}


@pytest.mark.parametrize("check", BIPOLAR_CHECKS.values(), ids=BIPOLAR_CHECKS.keys())
@pytest.mark.parametrize("value", [0, 2, -2, 1.5, np.nan])
def test_bipolar_checks_reject(check, value):
    rows = np.ones((3, 8))
    rows[0, 5] = value
    with pytest.raises(ValueError):
        check(rows)


@pytest.mark.parametrize("check", BIPOLAR_CHECKS.values(), ids=BIPOLAR_CHECKS.keys())
def test_bipolar_checks_accept_float_signs(check):
    rows = np.ones((3, 8))
    rows[:, ::2] = -1.0
    check(rows)


def test_bind_product_matches_manual(rng):
    books = [generate_codebook(6, 128, rng) for _ in range(3)]
    x = bind_product(books, (1, 4, 2))
    manual = books[0][1] * books[1][4] * books[2][2]
    assert np.array_equal(x, manual.astype(np.int8))


def test_bind_product_validation(rng):
    books = [generate_codebook(4, 32, rng) for _ in range(2)]
    with pytest.raises(ValueError):
        bind_product(books, (0,))
    with pytest.raises(ValueError):
        bind_product(books, (0, 4))
    with pytest.raises(ValueError):
        bind_product([books[0]], (0,))


def test_quasi_orthogonality_at_1000():
    g = np.random.default_rng(77)
    sims = [
        similarity(random_bipolar(1000, g), random_bipolar(1000, g)) for _ in range(100)
    ]
    # P(|sim| >= 0.2 in any of 100 pairs) ~ 3e-8 for D=1000
    assert max(abs(s) for s in sims) < 0.2
    assert abs(float(np.mean(sims))) < 0.02
