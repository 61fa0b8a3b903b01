"""Bit-level packing for wire formats.

The paper's whole argument is about *bits*: a 9-bit AFF identifier vs a
16- or 32-bit static address.  Byte-aligned encodings would round those
savings away, so the AFF wire format bit-packs its headers.
:class:`BitWriter` and :class:`BitReader` provide MSB-first bit streams
over bytes, with explicit padding on flush.

Both work a word at a time rather than a byte at a time, so a call
costs a fixed number of integer operations whatever its width.  The
reader holds the whole buffer as one big-endian integer and takes each
field out of it with one shift and one mask; byte-aligned
``read_bytes`` is a slice.  The writer shifts each value into an
accumulator and flushes all of its whole bytes with one ``to_bytes``.
"""

from __future__ import annotations

__all__ = ["BitReader", "BitWriter", "BitstreamError"]


class BitstreamError(ValueError):
    """Raised on malformed reads (past end, oversized values)."""


class BitWriter:
    """Accumulates values MSB-first into a byte string.

    ``write(value, bits)`` appends the ``bits`` low-order bits of
    ``value``.  ``getvalue()`` zero-pads the final partial byte.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()
        # Fewer than 8 bits not yet flushed to the buffer.
        self._accum = 0
        self._accum_bits = 0
        self.bits_written = 0

    def write(self, value: int, bits: int) -> "BitWriter":
        """Append ``bits`` bits of ``value`` (must fit)."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        if value < 0 or (bits < 63 and value >= (1 << bits)):
            raise BitstreamError(f"value {value} does not fit in {bits} bits")
        self.bits_written += bits
        accum = (self._accum << bits) | value
        pending = self._accum_bits + bits
        if pending >= 8:
            rest = pending & 7
            whole = pending - rest
            # The mask keeps exactly ``pending`` bits; it only bites on a
            # field of 63+ bits, whose value the range check lets through
            # unbounded.
            self._buffer += ((accum >> rest) & ((1 << whole) - 1)).to_bytes(
                whole >> 3, "big"
            )
            accum &= (1 << rest) - 1
            pending = rest
        self._accum = accum
        self._accum_bits = pending
        return self

    def write_bytes(self, data: bytes) -> "BitWriter":
        """Append whole bytes (8 bits each, preserving bit alignment)."""
        if self._accum_bits:
            return self.write(int.from_bytes(data, "big"), 8 * len(data))
        self._buffer += data
        self.bits_written += 8 * len(data)
        return self

    def getvalue(self) -> bytes:
        """The packed bytes, final partial byte zero-padded on the right."""
        out = bytes(self._buffer)
        if self._accum_bits:
            out += bytes([(self._accum << (8 - self._accum_bits)) & 0xFF])
        return out


class BitReader:
    """Reads values MSB-first from a byte string.

    The buffer is converted to an integer once, at construction, so
    later changes to a mutable ``data`` are not seen.
    """

    def __init__(self, data: bytes):
        self._data = data
        self._word = int.from_bytes(data, "big")
        self._size = 8 * len(data)
        self._bit_pos = 0

    @property
    def bits_remaining(self) -> int:
        return self._size - self._bit_pos

    def read(self, bits: int) -> int:
        """Read ``bits`` bits as an unsigned integer."""
        if bits < 0:
            raise BitstreamError("bit count must be >= 0")
        end = self._bit_pos + bits
        if end > self._size:
            raise BitstreamError(
                f"read of {bits} bits with only {self.bits_remaining} remaining"
            )
        self._bit_pos = end
        return (self._word >> (self._size - end)) & ((1 << bits) - 1)

    def read_bytes(self, count: int) -> bytes:
        """Read ``count`` whole bytes."""
        if count <= 0:
            return b""
        start = self._bit_pos
        end = start + 8 * count
        if end > self._size:
            # Fail as a byte-by-byte read would: every whole byte left is
            # consumed, then the read of the next 8 bits runs short.
            short = (self._size - start) & 7
            self._bit_pos = self._size - short
            raise BitstreamError(f"read of 8 bits with only {short} remaining")
        if start & 7:
            return self.read(8 * count).to_bytes(count, "big")
        self._bit_pos = end
        return bytes(self._data[start >> 3 : end >> 3])
