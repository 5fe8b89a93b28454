import numpy as np
import pytest
from hypothesis import given, strategies as st

from resfact.factorizer import _pack
from resfact.packing import pack_bipolar, packed_dot
from resfact.vsa import dot, random_bipolar


@given(st.integers(1, 300), st.integers(0, 2**32 - 1))
def test_packed_dot_matches_dense(d, s):
    g = np.random.default_rng(s)
    x, y = random_bipolar(d, g), random_bipolar(d, g)
    assert packed_dot(pack_bipolar(x), pack_bipolar(y), d) == dot(x, y)


@pytest.mark.parametrize("d", [1, 7, 8, 9, 63, 64, 65, 1000])
def test_packed_dot_odd_dims(d):
    # trailing pad bits must not leak into the count
    g = np.random.default_rng(d)
    x, y = random_bipolar(d, g), random_bipolar(d, g)
    assert packed_dot(pack_bipolar(x), pack_bipolar(y), d) == dot(x, y)


def test_pack_bipolar_width():
    x = np.ones(17, dtype=np.int8)
    packed = pack_bipolar(x)
    assert packed.dtype == np.uint8
    assert packed.shape == (3,)


def test_packed_dot_extremes():
    x = np.ones(40, dtype=np.int8)
    px = pack_bipolar(x)
    assert packed_dot(px, px, 40) == 40
    assert packed_dot(px, pack_bipolar(-x), 40) == -40


def test_pack_words_puts_element_j_at_bit_j_mod_64_of_word_j_div_64():
    # The compiled packer of the decoder's books and queries.
    x = -np.ones((2, 130), dtype=np.int8)
    x[0, [0, 63, 64, 129]] = 1
    assert _pack([x])[0].tolist() == [[1 | 1 << 63, 1, 1 << 1], [0, 0, 0]]


@pytest.mark.parametrize("d", [1, 7, 8, 63, 64, 65, 128, 130, 1000, 4000])
def test_compiled_packer_is_little_endian_packbits_in_zero_padded_words(d):
    x = np.stack([random_bipolar(d, np.random.default_rng(d + i)) for i in range(3)])
    ref = np.zeros((3, -(-d // 64) * 8), dtype=np.uint8)
    ref[:, : (d + 7) // 8] = np.packbits(x > 0, axis=-1, bitorder="little")
    packed = _pack([x])[0]
    assert packed.dtype == np.uint64
    assert np.array_equal(packed, ref.view("<u8"))
