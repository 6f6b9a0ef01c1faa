"""Property tests for the run-scoped minimization memo.

Inside a :func:`minimize_memo` scope an identical (ON, OFF, support)
problem is solved once.  The memo must be invisible in the results:
every cover equals the one computed with no scope, including for
repeated problems, ON/OFF swaps (the two polarities of one gate) and
the same vectors given as mappings instead of packed ints.  The scope
is per thread and nests, and a pipeline run leaves none behind.
"""

import threading
from typing import List, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.boolean.minimize import current_memo, minimize, minimize_memo
from repro.errors import CoverError, ReproError
from repro.pipeline import Pipeline, PipelineConfig
from tests.conftest import chained_sequencer_stg

NAMES = [f"s{i}" for i in range(8)]

Problem = Tuple[List[int], List[int], Tuple[str, ...]]


@st.composite
def problems(draw) -> Problem:
    """A random ON/OFF pair over 1-8 signals; ON and OFF may overlap,
    and either may be empty."""
    width = draw(st.integers(1, len(NAMES)))
    vectors = st.integers(0, (1 << width) - 1)
    on = draw(st.lists(vectors, max_size=24))
    off = draw(st.lists(vectors, max_size=24))
    return on, off, tuple(NAMES[:width])


@st.composite
def call_sequences(draw) -> List[Problem]:
    """Calls drawn from a small pool of problems, so many repeat; some
    with one more OFF vector (as monotonicity repair poses them), and
    half of them with ON and OFF swapped."""
    pool = draw(st.lists(problems(), min_size=1, max_size=6))
    calls = []
    for _ in range(draw(st.integers(1, 24))):
        on, off, support = draw(st.sampled_from(pool))
        if draw(st.booleans()):
            off = off + [draw(st.integers(0, (1 << len(support)) - 1))]
        if draw(st.booleans()):
            on, off = off, on
        if draw(st.booleans()):
            # the same problem reordered, with duplicates
            on = list(reversed(on)) + on[:1]
        calls.append((on, off, support))
    return calls


def _outcome(on, off, support):
    try:
        return minimize(on, off, support)
    except CoverError as error:
        return str(error)


def _as_mappings(vectors, support):
    return [{name: v >> i & 1 for i, name in enumerate(support)}
            for v in vectors]


class TestResults:
    @given(call_sequences())
    @settings(max_examples=150, deadline=None)
    def test_scoped_covers_equal_unscoped(self, calls):
        bare = [_outcome(*call) for call in calls]
        with minimize_memo() as memo:
            scoped = [_outcome(*call) for call in calls]
        assert scoped == bare
        # every call past the overlap check and the constant cases was
        # either solved once or reused
        solvable = [(support, frozenset(on), frozenset(off))
                    for (on, off, support), cover in zip(calls, bare)
                    if not isinstance(cover, str) and on and off]
        assert memo.solved + memo.reused == len(solvable)
        assert memo.solved == len(set(solvable))

    @given(problems())
    @settings(max_examples=100, deadline=None)
    def test_mapping_vectors_share_the_int_key(self, problem):
        on, off, support = problem
        if not on or not off or set(on) & set(off):
            return
        with minimize_memo() as memo:
            packed = minimize(on, off, support)
            mapped = minimize(_as_mappings(on, support),
                              _as_mappings(off, support), support)
        assert mapped is packed
        assert (memo.solved, memo.reused) == (1, 1)

    def test_overlap_raises_on_every_call(self):
        with minimize_memo() as memo:
            for _ in range(3):
                with pytest.raises(CoverError, match="overlap"):
                    minimize([1, 2], [2], ["a", "b"])
        assert (memo.solved, memo.reused) == (0, 0)

    def test_each_key_field_separates_problems(self):
        with minimize_memo() as memo:
            minimize([0b01], [0b10], ["a", "b"])
            minimize([0b01], [0b10], ["b", "a"])            # support
            minimize([0b01], [0b10], ["a", "b"], passes=1)  # passes
            minimize([0b01, 0b11], [0b10], ["a", "b"])      # ON
            minimize([0b01], [0b10, 0b00], ["a", "b"])      # OFF
            minimize([0b01], [0b10], ["a", "b"])
        assert (memo.solved, memo.reused) == (5, 1)


class TestScope:
    def test_no_scope_by_default(self):
        assert current_memo() is None
        minimize([1], [0], ["a"])
        assert current_memo() is None

    def test_nested_scopes_restore_the_outer_one(self):
        with minimize_memo() as outer:
            minimize([1], [0], ["a"])
            with minimize_memo() as inner:
                assert current_memo() is inner
                minimize([1], [0], ["a"])
                minimize([1], [0], ["a"])
            assert current_memo() is outer
            minimize([1], [0], ["a"])
        assert current_memo() is None
        assert (inner.solved, inner.reused) == (1, 1)
        assert (outer.solved, outer.reused) == (1, 1)

    def test_scope_restored_when_the_body_raises(self):
        with minimize_memo() as outer:
            with pytest.raises(CoverError):
                with minimize_memo():
                    minimize([1], [1], ["a"])
            assert current_memo() is outer
        assert current_memo() is None

    def test_other_threads_never_see_the_scope(self):
        seen = []

        def worker():
            seen.append(current_memo())
            minimize([1], [0], ["a"])
            with minimize_memo() as own:
                minimize([1], [0], ["a"])
                seen.append(own)

        with minimize_memo() as memo:
            minimize([1], [0], ["a"])
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
            assert current_memo() is memo
        assert seen[0] is None
        assert seen[1] is not memo and seen[1].solved == 1
        assert (memo.solved, memo.reused) == (1, 0)


class TestPipeline:
    def test_no_scope_after_a_run(self):
        config = PipelineConfig(libraries=(2,), keep_artifacts=False)
        record = Pipeline(config).run("trimos-send")
        assert current_memo() is None
        assert record.stats["minimize_solved"] > 0
        # the k=2 mapping and the local-ack baseline re-pose problems
        # the initial synthesis already solved
        assert record.stats["minimize_reused"] > 0

    def test_no_scope_after_a_failed_run(self):
        # without CSC solving, a conflicted circuit fails in the
        # synthesize stage, with the run's scope open
        with pytest.raises(ReproError):
            Pipeline(PipelineConfig(libraries=(2,))).run(
                chained_sequencer_stg())
        assert current_memo() is None

    def test_a_run_inside_a_scope_restores_it(self):
        with minimize_memo() as outer:
            record = Pipeline(PipelineConfig(
                libraries=(2,), with_siegel=False)).run("half")
            assert current_memo() is outer
        # the run solved in its own memo, not the caller's
        assert outer.solved == 0 and outer.reused == 0
        assert record.stats["minimize_solved"] > 0
