"""Tests for the SECDED(72,64) codec."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.ecc import CLEAN, CORRECTED_CHECK, CORRECTED_DATA, SecdedCodec
from repro.errors import EccUncorrectableError
from repro.sim.metrics import Counter

codec = SecdedCodec()

words = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestEncode:
    def test_zero_word(self):
        assert codec.encode(0) == 0

    def test_encode_rejects_oversized(self):
        with pytest.raises(ValueError):
            codec.encode(1 << 64)

    @given(data=words)
    @settings(max_examples=100)
    def test_clean_roundtrip(self, data):
        check = codec.encode(data)
        result = codec.decode(data, check)
        assert result.status == CLEAN
        assert result.data == data


class TestSingleBitCorrection:
    @given(data=words, bit=st.integers(min_value=0, max_value=63))
    @settings(max_examples=100)
    def test_any_single_data_bit_corrected(self, data, bit):
        check = codec.encode(data)
        corrupted = data ^ (1 << bit)
        result = codec.decode(corrupted, check)
        assert result.status == CORRECTED_DATA
        assert result.data == data
        assert result.corrected_bit == bit

    @given(data=words, bit=st.integers(min_value=0, max_value=7))
    @settings(max_examples=50)
    def test_any_single_check_bit_corrected(self, data, bit):
        check = codec.encode(data)
        corrupted_check = check ^ (1 << bit)
        result = codec.decode(data, corrupted_check)
        assert result.status == CORRECTED_CHECK
        assert result.data == data
        assert result.check == check


class TestDoubleBitDetection:
    @given(
        data=words,
        bits=st.lists(
            st.integers(min_value=0, max_value=63), min_size=2, max_size=2, unique=True
        ),
    )
    @settings(max_examples=100)
    def test_double_data_flip_detected(self, data, bits):
        check = codec.encode(data)
        corrupted = data ^ (1 << bits[0]) ^ (1 << bits[1])
        with pytest.raises(EccUncorrectableError):
            codec.decode(corrupted, check)

    def test_data_plus_check_flip_detected_or_miscorrected_consistently(self):
        # One data bit and one check bit: overall parity sees an even count,
        # syndrome is non-zero -> detected as uncorrectable.
        data = 0xDEADBEEF12345678
        check = codec.encode(data)
        corrupted = data ^ 1
        corrupted_check = check ^ 1
        with pytest.raises(EccUncorrectableError):
            codec.decode(corrupted, corrupted_check)


def _raw(values):
    """Words as they lie in memory (the DRAM rows' byte order)."""
    return b"".join(int(v).to_bytes(8, sys.byteorder) for v in values)


class TestVectorizedEncode:
    """:meth:`SecdedCodec.encode_bytes` encodes a buffer of words at once,
    from byte tables, as the DRAM access path reads them."""

    def test_matches_scalar(self):
        values = [0, 1, 0xFFFFFFFFFFFFFFFF, 0xDEADBEEF, 1 << 63]
        assert codec.encode_bytes(_raw(values)) == bytes(codec.encode(v) for v in values)

    @given(st.lists(words, max_size=16))
    @settings(max_examples=100)
    def test_matches_scalar_random(self, raw):
        assert codec.encode_bytes(_raw(raw)) == bytes(codec.encode(v) for v in raw)


class TestCorrectBytes:
    @given(st.lists(words, min_size=1, max_size=8), st.data())
    @settings(max_examples=50)
    def test_corrects_single_flips_and_counts_each(self, values, data):
        stored = codec.encode_bytes(_raw(values))
        flipped = list(values)
        hit = data.draw(st.sets(st.integers(0, len(values) - 1)))
        for i in hit:
            flipped[i] ^= 1 << data.draw(st.integers(0, 63))
        counter = Counter("ecc_corrected")
        assert codec.correct_bytes(_raw(flipped), stored, counter) == _raw(values)
        assert counter.value == len(hit)
