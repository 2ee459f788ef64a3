"""Unit tests for the binary fuzzy-object codec."""

import numpy as np
import pytest

from repro.exceptions import SerializationError
from repro.storage.serialization import HEADER_SIZE, decode_object, encode_object
from tests.conftest import make_fuzzy_object


class TestRoundtrip:
    def test_roundtrip_preserves_everything(self, rng):
        obj = make_fuzzy_object(rng, object_id=3)
        clone = decode_object(encode_object(obj))
        assert clone.object_id == 3
        np.testing.assert_allclose(clone.points, obj.points)
        np.testing.assert_allclose(clone.memberships, obj.memberships)

    def test_roundtrip_without_id(self, rng):
        obj = make_fuzzy_object(rng)
        clone = decode_object(encode_object(obj))
        assert clone.object_id is None

    def test_roundtrip_high_dimensional(self, rng):
        points = rng.random((10, 5))
        memberships = np.linspace(0.1, 1.0, 10)
        from repro.fuzzy.fuzzy_object import FuzzyObject

        obj = FuzzyObject(points, memberships, object_id=9)
        clone = decode_object(encode_object(obj))
        assert clone.dimensions == 5
        np.testing.assert_allclose(clone.points, points)

    def test_record_size_matches_encoding(self, rng):
        obj = make_fuzzy_object(rng, n_points=17)
        # a header, then every coordinate and every membership as a float64
        assert len(encode_object(obj)) == HEADER_SIZE + 8 * obj.size * (obj.dimensions + 1)

    def test_decoded_arrays_are_writable_copies(self, rng):
        obj = make_fuzzy_object(rng)
        clone = decode_object(encode_object(obj))
        clone.points[0, 0] = 999.0  # must not raise (not a read-only buffer view)


class TestCorruptInput:
    def test_truncated_header(self):
        with pytest.raises(SerializationError):
            decode_object(b"FZ")

    def test_bad_magic(self, rng):
        payload = bytearray(encode_object(make_fuzzy_object(rng)))
        payload[:4] = b"XXXX"
        with pytest.raises(SerializationError):
            decode_object(bytes(payload))

    def test_bad_version(self, rng):
        payload = bytearray(encode_object(make_fuzzy_object(rng)))
        payload[4] = 99
        with pytest.raises(SerializationError):
            decode_object(bytes(payload))

    def test_truncated_body(self, rng):
        payload = encode_object(make_fuzzy_object(rng))
        with pytest.raises(SerializationError):
            decode_object(payload[:-8])
