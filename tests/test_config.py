"""Unit tests for configuration objects."""

import dataclasses
import math

import pytest

from repro.config import (
    DEFAULT_RTREE_MAX_ENTRIES,
    DEFAULT_RTREE_MIN_FILL,
    DEFAULTS,
    PaperDefaults,
    RuntimeConfig,
)
from repro.exceptions import IndexError_
from repro.index.rtree import RTree


class TestPaperDefaults:
    def test_table2_values(self):
        assert DEFAULTS.n_objects == 50_000
        assert DEFAULTS.points_per_object == 1_000
        assert DEFAULTS.k == 20
        assert DEFAULTS.alpha == 0.5
        assert DEFAULTS.range_length == 0.2
        assert DEFAULTS.space_size == 100.0
        assert DEFAULTS.object_radius == 0.5
        assert DEFAULTS.membership_sigma == 0.5

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULTS.k = 5  # type: ignore[misc]


class TestRuntimeConfig:
    def test_defaults_validate(self):
        config = RuntimeConfig().validate()
        assert config.upper_bound_samples >= 1
        assert config.rtree_max_entries >= 4

    def test_invalid_samples(self):
        with pytest.raises(ValueError):
            RuntimeConfig(upper_bound_samples=0).validate()

    def test_invalid_fanout(self):
        with pytest.raises(ValueError):
            RuntimeConfig(rtree_max_entries=2).validate()

    def test_invalid_min_fill(self):
        """The split's fill factor is a constant; a tree still rejects a bad one."""
        with pytest.raises(TypeError):
            RuntimeConfig(rtree_min_fill=0.4)
        for min_fill in (0.9, 0.0):
            with pytest.raises(IndexError_):
                RTree(min_fill=min_fill)
        assert RTree().min_entries == math.ceil(DEFAULT_RTREE_MAX_ENTRIES * DEFAULT_RTREE_MIN_FILL)

    def test_invalid_cache_capacity(self):
        with pytest.raises(ValueError):
            RuntimeConfig(cache_capacity=-1).validate()

    def test_validate_returns_self(self):
        config = RuntimeConfig()
        assert config.validate() is config

    def test_field_count_does_not_grow(self):
        """ROADMAP house rule: a new knob needs two callers that disagree."""
        names = {field.name for field in dataclasses.fields(RuntimeConfig)}
        assert len(names) == 11
        assert not names & {
            "coalesce_window_ms",
            "batch_workers",
            "use_kdtree",
            "extra",
            "shard_retry_jitter",
            "breaker_half_open_probes",
            "default_deadline_ms",
            "compaction_debt_ratio",
            "subscription_queue_depth",
            "profile_cache_capacity",
            "rtree_min_fill",
            "coalesce_max_batch",
            "service_queue_depth",
            "shard_placement",
            "alpha_cut_cache_capacity",
        }


class TestExceptions:
    def test_hierarchy(self):
        from repro.exceptions import (
            EmptyAlphaCutError,
            IndexError_,
            InvalidFuzzyObjectError,
            InvalidQueryError,
            ObjectNotFoundError,
            ReproError,
            SerializationError,
            StorageError,
        )

        for exc in (
            InvalidFuzzyObjectError,
            InvalidQueryError,
            EmptyAlphaCutError,
            StorageError,
            IndexError_,
        ):
            assert issubclass(exc, ReproError)
        assert issubclass(ObjectNotFoundError, StorageError)
        assert issubclass(SerializationError, StorageError)
