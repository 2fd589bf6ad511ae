"""Unit and property tests for the key-value record codec."""

from enum import IntEnum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.kv import (
    KeyValue,
    decode_record,
    decode_stream,
    encode_field,
    encode_record,
    encode_stream,
    record_size,
)

fields = st.one_of(
    st.text(max_size=40),
    st.integers(min_value=-(2**62), max_value=2**62),
    st.floats(allow_nan=False, allow_infinity=False),
    st.binary(max_size=40),
    st.booleans(),
    st.none(),
)

#: Every shape the codec encodes, nested containers included.
codec_values = st.recursive(
    st.one_of(
        st.text(max_size=12),
        st.integers(min_value=-(2 ** 80), max_value=2 ** 80),
        st.floats(allow_nan=False),
        st.binary(max_size=12),
        st.booleans(),
        st.none(),
    ),
    lambda children: st.one_of(
        st.tuples(children, children),
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)


class TestRecordCodec:
    def test_string_roundtrip(self):
        record, offset = decode_record(encode_record("word", 1))
        assert record == KeyValue("word", 1)

    def test_bytes_roundtrip(self):
        record, _ = decode_record(encode_record(b"\x00\xff", b"payload"))
        assert record.key == b"\x00\xff"
        assert record.value == b"payload"

    def test_none_value(self):
        record, _ = decode_record(encode_record("k", None))
        assert record.value is None

    def test_bool_distinct_from_int(self):
        record, _ = decode_record(encode_record(True, False))
        assert record.key is True
        assert record.value is False

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            encode_record(object(), 1)

    @given(fields, fields)
    def test_roundtrip_property(self, key, value):
        record, consumed = decode_record(encode_record(key, value))
        assert record == KeyValue(key, value)
        assert consumed == len(encode_record(key, value))


class TestStreamCodec:
    def test_empty_stream(self):
        assert list(decode_stream(b"")) == []

    def test_multi_record_stream(self):
        records = [("a", 1), ("b", 2), ("c", 3)]
        decoded = list(decode_stream(encode_stream(records)))
        assert decoded == [KeyValue(k, v) for k, v in records]

    @given(st.lists(st.tuples(fields, fields), max_size=20))
    def test_stream_roundtrip_property(self, records):
        decoded = list(decode_stream(encode_stream(records)))
        assert decoded == [KeyValue(k, v) for k, v in records]


class TestRecordSize:
    """``record_size`` is the codec's encoded length: an 8-byte header,
    then each field's one-byte tag and payload."""

    def test_accounts_for_string_bytes(self):
        assert record_size("abc", "") == 8 + (1 + 3) + 1

    def test_accounts_for_unicode(self):
        assert record_size("é", "") == 8 + (1 + 2) + 1

    def test_numbers_are_sized_as_encoded(self):
        # An int is its decimal digits, a float eight bytes, each tagged.
        assert record_size(1, 2.5) == 8 + (1 + 1) + (1 + 8)

    def test_nested_containers(self):
        # Each list item carries a 4-byte length prefix.
        size = record_size("k", [1.0, 2.0])
        assert size == 8 + 2 + (1 + 2 * (4 + 9))

    def test_wordcount_record(self):
        assert record_size("w123", 1) == 15

    def test_bytes_like_sized_as_encoded_bytes(self):
        payload = b"0123456789"
        expected = len(encode_record("k", payload))
        assert record_size("k", bytearray(payload)) == expected
        assert record_size("k", memoryview(payload)) == expected

    def test_unencodable_value_falls_back_to_repr(self):
        value = object()
        assert record_size("k", value) == 8 + 2 + len(repr(value))

    def test_keyvalue_method_matches_function(self):
        kv = KeyValue("key", "value")
        assert kv.serialized_size() == record_size("key", "value")

    @given(fields, fields)
    def test_size_positive(self, key, value):
        assert record_size(key, value) >= 8

    @given(codec_values, codec_values)
    def test_size_is_encoded_length(self, key, value):
        assert record_size(key, value) == len(encode_record(key, value))


class Color(IntEnum):
    RED = 1
    GREEN = -70


class Name(str):
    pass


class TestEncodeFieldFastPath:
    """``encode_field`` checks exact ``str`` and ``int`` first; every
    other type, subclasses included, takes the ``isinstance`` chain.
    The expected bytes are what that chain produces."""

    @pytest.mark.parametrize("value, expected", [
        ("word", b"Sword"),
        ("", b"S"),
        ("é", b"S\xc3\xa9"),
        (Name("word"), b"Sword"),
        (0, b"I0"),
        (42, b"I42"),
        (-42, b"I-42"),
        (2 ** 64 + 1, b"I18446744073709551617"),
        (-(2 ** 70), b"I-1180591620717411303424"),
        (True, b"T"),
        (False, b"F"),
        (Color.RED, b"I1"),
        (Color.GREEN, b"I-70"),
    ])
    def test_pinned_bytes(self, value, expected):
        assert encode_field(value) == expected

    def test_subclasses_decode_as_base_types(self):
        [record] = decode_stream(encode_stream([(Name("a"), Color.RED)]))
        assert record == KeyValue("a", 1)
        assert type(record.key) is str and type(record.value) is int
