"""Unit tests for the compute context (footprint enforcement)."""

import pytest

from repro.exceptions import SchedulerError
from repro.graph.builders import diamond_graph
from repro.graph.explicit import ExplicitTaskGraph
from repro.graph.taskspec import BlockRef
from repro.memory.blockstore import BlockStore
from repro.memory.context import StoreComputeContext


@pytest.fixture
def setup():
    spec = diamond_graph(width=2)
    store = BlockStore()
    store.write(BlockRef("src", 0), "SRC")
    return spec, store


class TestFootprint:
    def test_declared_read_ok(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        assert ctx.read(BlockRef("src", 0)) == "SRC"

    def test_undeclared_read_rejected(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        with pytest.raises(SchedulerError, match="undeclared input"):
            ctx.read(BlockRef("other", 0))

    def test_declared_write_ok(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        ctx.write(BlockRef(("mid", 0), 0), 42)
        assert store.read(BlockRef(("mid", 0), 0)) == 42
        assert ctx.writes == (BlockRef(("mid", 0), 0),)
        assert ctx.unwritten == 0

    def test_undeclared_write_rejected(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        with pytest.raises(SchedulerError, match="undeclared output"):
            ctx.write(BlockRef("src", 0), "clobber")

    def test_plain_tuples_accepted_as_refs(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        assert ctx.read(("src", 0)) == "SRC"


class TestHelpers:
    def test_missing_outputs(self, setup):
        spec, store = setup
        ctx = StoreComputeContext(spec, store, ("mid", 0))
        assert ctx.missing_outputs() == (BlockRef(("mid", 0), 0),)
        assert ctx.unwritten == 1
        ctx.write(BlockRef(("mid", 0), 0), 1)
        assert ctx.missing_outputs() == ()

    def test_a_rewrite_counts_once(self):
        spec = ExplicitTaskGraph([("a", "c"), ("b", "c")], sink="c")
        store = BlockStore()
        ctx = StoreComputeContext(spec, store, "c", footprint=(frozenset(), frozenset(
            {BlockRef("c", 0), BlockRef("c", 1)}), 2))
        ctx.write(BlockRef("c", 0), 1)
        ctx.write(BlockRef("c", 0), 2)
        assert ctx.unwritten == 1
        assert ctx.missing_outputs() == (BlockRef("c", 1),)
        assert store.read(BlockRef("c", 0)) == 2
