"""Provenance records and fingerprints."""

import hashlib

import numpy as np
import pytest

from repro.provenance.record import (
    ProvenanceRecord,
    fingerprint_array,
    fingerprint_bytes,
    fingerprint_params,
)


class TestFingerprints:
    def test_array_deterministic(self, rng):
        array = rng.normal(size=(5, 3))
        assert fingerprint_array(array) == fingerprint_array(array.copy())

    def test_array_sensitive_to_dtype(self):
        a = np.zeros(4, dtype=np.float64)
        b = np.zeros(4, dtype=np.float32)
        assert fingerprint_array(a) != fingerprint_array(b)

    def test_array_sensitive_to_shape(self):
        a = np.zeros(6)
        assert fingerprint_array(a) != fingerprint_array(a.reshape(2, 3))

    def test_array_layout_insensitive(self, rng):
        array = rng.normal(size=(4, 4))
        assert fingerprint_array(array) == fingerprint_array(
            np.asfortranarray(array)
        )

    def test_params_order_insensitive(self):
        assert fingerprint_params({"a": 1, "b": 2}) == fingerprint_params({"b": 2, "a": 1})

    def test_params_value_sensitive(self):
        assert fingerprint_params({"k": 3}) != fingerprint_params({"k": 4})

    def test_bytes_hash(self):
        assert len(fingerprint_bytes(b"abc")) == 64


def _tobytes_fingerprint(array):
    """The original recipe: sha256(dtype.str + repr(shape) + tobytes())."""
    array = np.ascontiguousarray(array)
    digest = hashlib.sha256()
    digest.update(array.dtype.str.encode())
    digest.update(repr(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


_GRID = np.arange(24, dtype="f8").reshape(4, 6)


class TestFingerprintStability:
    """Checkpoint and provenance fingerprints must not change when the
    hashing stops copying the array."""

    @pytest.mark.parametrize(
        "array",
        [
            _GRID,
            _GRID.astype("f4"),
            _GRID[:, ::2],  # non-contiguous slice
            np.array(3.5),  # 0-d
            np.zeros((0, 3)),  # empty
            np.array(["2020-01-01", "2021-02-03"], dtype="M8[D]"),
            np.array([b"ab", b"cd", b"e"], dtype="S2"),
            np.array([1, "x", None], dtype=object),  # cannot be viewed
        ],
        ids=["f8", "f4", "strided", "0d", "empty", "M8[D]", "S2", "object"],
    )
    def test_matches_tobytes_recipe(self, array):
        assert fingerprint_array(array) == _tobytes_fingerprint(array)

    def test_pinned_digests(self):
        assert fingerprint_array(np.arange(12, dtype="f8").reshape(3, 4)) == (
            "d4ae31ff45bce77fbf92e74ac94582d505599cec10a38f29107316a7ef72c2cd"
        )
        assert fingerprint_array(
            np.array(["2020-01-01", "2021-02-03"], dtype="M8[D]")
        ) == "40be3127684b57405d387fa2df4fb6adbc2f82b96bb221e61189e8e72912667c"


class TestRecord:
    def test_create_fills_defaults(self):
        record = ProvenanceRecord.create(
            "normalize", ["in1"], "out1", params={"method": "zscore"}, agent="p"
        )
        assert record.activity == "normalize"
        assert record.inputs == ("in1",)
        assert record.timestamp > 0
        assert len(record.record_id) == 32

    def test_distinct_ids(self):
        a = ProvenanceRecord.create("x", [], "o1")
        b = ProvenanceRecord.create("x", [], "o1")
        assert a.record_id != b.record_id

    def test_params_distinguish_same_activity(self):
        a = ProvenanceRecord.create("clip", ["i"], "o", params={"sigma": 3})
        b = ProvenanceRecord.create("clip", ["i"], "o", params={"sigma": 5})
        assert a.params_fingerprint != b.params_fingerprint

    def test_dict_round_trip(self):
        record = ProvenanceRecord.create(
            "shard", ["a", "b"], "c", agent="pipeline",
            annotations={"n_shards": 4},
        )
        back = ProvenanceRecord.from_dict(record.to_dict())
        assert back == record
