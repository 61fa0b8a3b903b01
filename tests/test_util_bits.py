"""Unit and property tests for MSB-first bit packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.bits import BitReader, BitWriter, BitstreamError

from . import oracles


class TestBitWriter:
    def test_single_byte(self):
        w = BitWriter()
        w.write(0xAB, 8)
        assert w.getvalue() == b"\xab"

    def test_msb_first_packing(self):
        w = BitWriter()
        w.write(0b1, 1)
        w.write(0b0000000, 7)
        assert w.getvalue() == b"\x80"

    def test_cross_byte_value(self):
        w = BitWriter()
        w.write(0b101, 3)
        w.write(0b111111111, 9)  # 3+9 = 12 bits
        # 1011 1111 1111 0000
        assert w.getvalue() == bytes([0b10111111, 0b11110000])

    def test_final_partial_byte_zero_padded(self):
        w = BitWriter()
        w.write(0b11, 2)
        assert w.getvalue() == bytes([0b11000000])

    def test_bits_written_counter(self):
        w = BitWriter()
        w.write(5, 3)
        w.write_bytes(b"ab")
        assert w.bits_written == 19

    def test_oversized_value_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write(4, 2)

    def test_negative_value_rejected(self):
        with pytest.raises(BitstreamError):
            BitWriter().write(-1, 8)

    def test_zero_bits_writes_nothing(self):
        w = BitWriter()
        w.write(0, 0)
        assert w.getvalue() == b""

    def test_chaining(self):
        out = BitWriter().write(1, 1).write(0, 1).write(3, 2).getvalue()
        assert out == bytes([0b10110000])


class TestBitReader:
    def test_read_back_single_values(self):
        data = BitWriter().write(0b101, 3).write(0x1234, 16).getvalue()
        r = BitReader(data)
        assert r.read(3) == 0b101
        assert r.read(16) == 0x1234

    def test_bits_remaining(self):
        r = BitReader(b"\xff\xff")
        assert r.bits_remaining == 16
        r.read(5)
        assert r.bits_remaining == 11

    def test_read_past_end_raises(self):
        r = BitReader(b"\xff")
        r.read(8)
        with pytest.raises(BitstreamError):
            r.read(1)

    def test_read_bytes(self):
        data = BitWriter().write(0b1, 1).write_bytes(b"hi").getvalue()
        r = BitReader(data)
        assert r.read(1) == 1
        assert r.read_bytes(2) == b"hi"

    def test_read_zero_bits(self):
        r = BitReader(b"\x00")
        assert r.read(0) == 0


class TestRoundTrip:
    @given(
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=48), st.randoms()),
            min_size=1,
            max_size=20,
        )
    )
    def test_arbitrary_field_sequences_round_trip(self, specs):
        fields = []
        w = BitWriter()
        for bits, rnd in specs:
            value = rnd.randrange(1 << bits)
            fields.append((value, bits))
            w.write(value, bits)
        r = BitReader(w.getvalue())
        for value, bits in fields:
            assert r.read(bits) == value

    @given(st.binary(min_size=0, max_size=100), st.integers(min_value=0, max_value=15))
    def test_bytes_round_trip_at_any_bit_offset(self, payload, offset_bits):
        w = BitWriter()
        w.write(0, offset_bits)
        w.write_bytes(payload)
        r = BitReader(w.getvalue())
        r.read(offset_bits)
        assert r.read_bytes(len(payload)) == payload

    @given(st.integers(min_value=0, max_value=2**62 - 1))
    def test_wide_values_round_trip(self, value):
        w = BitWriter().write(value, 62)
        assert BitReader(w.getvalue()).read(62) == value


def _outcome(call, *args):
    """A call's result, or the type and message of what it raised."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # the exception is the result
        return ("raised", type(exc), str(exc))


_READ_OPS = st.one_of(
    st.tuples(st.just("read"), st.integers(min_value=-2, max_value=70)),
    st.tuples(st.just("read_bytes"), st.integers(min_value=-2, max_value=12)),
)

_WIDTHS = st.integers(min_value=-2, max_value=70)
_WRITE_OPS = st.one_of(
    # values that fit their width
    _WIDTHS.flatmap(
        lambda bits: st.tuples(
            st.just("write"),
            st.integers(min_value=0, max_value=max(0, (1 << max(bits, 0)) - 1)),
            st.just(bits),
        )
    ),
    # oversized and negative values
    st.tuples(
        st.just("write"), st.integers(min_value=-3, max_value=1 << 80), _WIDTHS
    ),
    # fields of 63+ bits skip the range check: wider values get through
    st.integers(min_value=63, max_value=70).flatmap(
        lambda bits: st.tuples(
            st.just("write"),
            st.integers(min_value=1 << bits, max_value=1 << (bits + 12)),
            st.just(bits),
        )
    ),
    st.tuples(st.just("write_bytes"), st.binary(max_size=12)),
    st.tuples(st.just("getvalue")),
)


class TestEquivalenceWithByteAtATimeCodec:
    """The word-level codec against the byte-at-a-time one it replaced.

    Both implementations get the same operations; every result, every
    counter and every error (type and message) must agree.
    """

    @given(st.binary(max_size=24), st.lists(_READ_OPS, max_size=30))
    def test_reader_interleavings(self, data, ops):
        new, old = BitReader(data), oracles.BitReader(data)
        for name, arg in ops:
            assert _outcome(getattr(new, name), arg) == _outcome(
                getattr(old, name), arg
            )
            assert new.bits_remaining == old.bits_remaining

    @given(st.lists(_WRITE_OPS, max_size=30))
    def test_writer_interleavings(self, ops):
        new, old = BitWriter(), oracles.BitWriter()
        for name, *args in ops:
            got = _outcome(getattr(new, name), *args)
            want = _outcome(getattr(old, name), *args)
            if got[0] == "ok" and name != "getvalue":
                assert got[1] is new and want[1] is old  # chaining
            else:
                assert got == want
            assert new.bits_written == old.bits_written
            assert new.getvalue() == old.getvalue()

    @pytest.mark.parametrize("size", range(5))
    def test_over_reads_at_every_offset(self, size):
        data = bytes(0xA5 ^ (29 * i) & 0xFF for i in range(size))
        for skip in range(8 * size + 1):
            for width in range(-1, 8 * size + 10):
                new, old = BitReader(data), oracles.BitReader(data)
                new.read(skip)
                old.read(skip)
                assert _outcome(new.read, width) == _outcome(old.read, width)
                assert new.bits_remaining == old.bits_remaining
            for count in range(-2, size + 3):
                new, old = BitReader(data), oracles.BitReader(data)
                new.read(skip)
                old.read(skip)
                assert _outcome(new.read_bytes, count) == _outcome(
                    old.read_bytes, count
                )
                assert new.bits_remaining == old.bits_remaining

    def test_byte_reads_return_bytes(self):
        data = bytearray(b"\x12\x34\x56")
        r = BitReader(data)
        assert type(r.read_bytes(1)) is bytes
        r.read(4)
        assert type(r.read_bytes(1)) is bytes
