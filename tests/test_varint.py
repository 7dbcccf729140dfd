"""Boundary tests for the shared LEB128 / zig-zag varint module.

``repro.formats.varint`` is the single implementation behind the stream
layer, the Kryo encode walk and the compiled plans; these tests
pin its byte-level boundaries (length transitions, the full u64 range,
the 10-byte overflow guard) directly at the shared-module surface, plus
the re-export seams the consumers import through.
"""

from __future__ import annotations

import pytest

from repro.common.errors import (
    FormatError,
    MalformedVarintError,
    TruncatedStreamError,
)
from repro.formats import varint as V


_ROUNDTRIP_VALUES = (
    0,
    1,
    127,
    128,
    16383,
    16384,
    (1 << 32) - 1,
    1 << 63,
    (1 << 64) - 1,
)


@pytest.mark.parametrize("value", _ROUNDTRIP_VALUES)
def test_unsigned_roundtrip(value):
    out = bytearray()
    length = V.append_varint(out, value)
    assert length == len(out)
    decoded, pos = V.read_varint(bytes(out), 0)
    assert decoded == value
    assert pos == length


@pytest.mark.parametrize(
    "value,expected_length",
    [(0, 1), (127, 1), (128, 2), (16383, 2), (16384, 3), ((1 << 64) - 1, 10)],
)
def test_unsigned_length_boundaries(value, expected_length):
    out = bytearray()
    assert V.append_varint(out, value) == expected_length


@pytest.mark.parametrize(
    "value", [0, -1, 1, -64, 63, -65, 64, -(1 << 63), (1 << 63) - 1]
)
def test_signed_roundtrip(value):
    out = bytearray()
    length = V.append_signed_varint(out, value)
    decoded, pos = V.read_signed_varint(bytes(out), 0)
    assert decoded == value
    assert pos == length


def test_zigzag_mapping():
    # The canonical 0, -1, 1, -2, 2, ... interleave.
    assert [V.zigzag_encode(v) for v in (0, -1, 1, -2, 2)] == [0, 1, 2, 3, 4]
    for value in (0, 1, -1, 2**62, -(2**62), (1 << 63) - 1, -(1 << 63)):
        assert V.zigzag_decode(V.zigzag_encode(value)) == value


def test_negative_unsigned_rejected():
    with pytest.raises(FormatError):
        V.append_varint(bytearray(), -1)


def test_ten_byte_maximum_accepted():
    # 2^64 - 1 is the largest legal varint: nine full bytes then 0x01.
    encoding = b"\xff" * 9 + b"\x01"
    value, pos = V.read_varint(encoding, 0)
    assert value == (1 << 64) - 1
    assert pos == 10


def test_ten_byte_final_overflow_rejected():
    # A 10th byte with any payload bit above bit 0 decodes past 2^64.
    with pytest.raises(MalformedVarintError):
        V.read_varint(b"\xff" * 9 + b"\x02", 0)


def test_eleven_byte_varint_rejected():
    with pytest.raises(MalformedVarintError):
        V.read_varint(b"\x80" * 10 + b"\x01", 0)


def test_truncated_varint_raises_with_offset():
    with pytest.raises(TruncatedStreamError) as excinfo:
        V.read_varint(b"\x80\x80", 0)
    assert excinfo.value.offset == 2
    assert excinfo.value.needed == 1


def test_consumers_share_the_single_implementation():
    # plans re-exports the kernel API; streams delegates per-call.
    from repro.formats import plans

    assert plans.read_varint is V.read_varint
    assert plans.read_signed_varint is V.read_signed_varint
    assert plans.append_varint is V.append_varint
    assert plans.append_signed_varint is V.append_signed_varint
