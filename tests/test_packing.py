import numpy as np
import pytest
from hypothesis import given, strategies as st

from resfact.packing import pack_bipolar, pack_words, packed_dot
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
    x = -np.ones((2, 130), dtype=np.int8)
    x[0, [0, 63, 64, 129]] = 1
    assert pack_words(x).tolist() == [[1 | 1 << 63, 1, 1 << 1], [0, 0, 0]]
