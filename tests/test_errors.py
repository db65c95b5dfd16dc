"""Tests for the exception hierarchy and error paths."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConfigError,
    DataError,
    DFSError,
    ExecutionError,
    ReproError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc", [ConfigError, DataError, ExecutionError, DFSError]
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        with pytest.raises(ReproError):
            raise exc("boom")

    def test_catching_base_catches_all(self):
        caught = []
        for exc in (ConfigError, DataError, ExecutionError, DFSError):
            try:
                raise exc("x")
            except ReproError as err:
                caught.append(type(err))
        assert len(caught) == 4

    def test_distinct_branches(self):
        assert not issubclass(ConfigError, DataError)
        assert not issubclass(ExecutionError, ConfigError)


class TestErrorPaths:
    """One representative raiser per error class."""

    def test_config_error(self):
        from repro.core import FSJoinConfig

        with pytest.raises(ConfigError):
            FSJoinConfig(theta=2.0)

    def test_data_error(self):
        from repro.core.ordering import GlobalOrder
        from repro.data.records import Record

        with pytest.raises(DataError):
            GlobalOrder([]).encode(Record.make(0, ["missing"]))

    def test_dfs_error(self):
        from repro.mapreduce.hdfs import InMemoryDFS

        with pytest.raises(DFSError):
            InMemoryDFS().read("nope")

    def test_execution_error(self):
        from repro.baselines import VSmartJoin
        from tests.conftest import random_collection

        join = VSmartJoin(0.8, max_intermediate_pairs=1)
        with pytest.raises(ExecutionError):
            join.run(random_collection(20, seed=0))
