"""The per-packet QA decision reuses exact results instead of rebuilding them.

Three guarantees keep that reuse honest:

- :func:`kmax_targets` is bit-identical to the sorted
  ``StateSequence(...).final_targets`` it replaces on the hot path;
- :class:`LayerBufferSet`'s inlined bookkeeping matches a reference copy
  of the per-layer-call code it replaced, operation by operation;
- a steady dumbbell run builds (almost) no ``StateSequence`` per packet,
  and the shared memo never outgrows its bound.
"""

from __future__ import annotations

from datetime import timedelta
from typing import Optional

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.core import formulas
from repro.core.adapter import QualityAdapter
from repro.core.buffers import LayerBufferSet
from repro.core.config import QAConfig
from repro.core.filling import _MEMO_LIMIT, FillingPolicy
from repro.core.states import StateSequence, kmax_targets
from repro.scenario import QAFlowSpec, Scenario, ScenarioConfig
from repro.sim.topology import DumbbellConfig

PROPERTY = settings(max_examples=300, deadline=timedelta(milliseconds=500))

#: Float-valued or int-valued, so an int argument is exercised as well.
rates = st.one_of(st.floats(min_value=1_000, max_value=500_000),
                  st.integers(min_value=1_000, max_value=500_000))
layer_rates = st.one_of(st.floats(min_value=500, max_value=30_000),
                        st.integers(min_value=500, max_value=30_000))
slopes = st.one_of(st.floats(min_value=100, max_value=200_000),
                   st.integers(min_value=100, max_value=200_000))


class TestKmaxTargets:
    @seed(20_261_017)
    @PROPERTY
    @given(rate=rates, layer_rate=layer_rates,
           na=st.integers(min_value=1, max_value=8), slope=slopes,
           k_max=st.integers(min_value=1, max_value=8))
    def test_equals_sequence_final_targets_bit_for_bit(
            self, rate, layer_rate, na, slope, k_max):
        fast = kmax_targets(rate, layer_rate, na, slope, k_max)
        slow = StateSequence(rate, layer_rate, na, slope, k_max).final_targets
        assert fast == slow
        # repr tells 0.0 from -0.0 and an int from an equal float.
        assert repr(fast) == repr(slow)


class TestMemo:
    def test_starts_empty_per_instance(self):
        first, second = FillingPolicy(QAConfig()), FillingPolicy(QAConfig())
        assert first.memo is not second.memo
        first.memo(kmax_targets, 60_000.0, 2_500.0, 3, 9_000.0, 2)
        assert first.memo.cache_info().currsize == 1
        assert second.memo.cache_info().currsize == 0

    def test_int_and_float_never_share_an_entry(self):
        memo = FillingPolicy(QAConfig()).memo
        as_float = memo(formulas.scenario_shares, 60_000.0, 2_500.0, 3,
                        9_000.0, 2, 1)
        as_int = memo(formulas.scenario_shares, 60_000, 2_500.0, 3,
                      9_000.0, 2, 1)
        info = memo.cache_info()
        assert (info.hits, info.misses) == (0, 2)
        assert as_float == formulas.scenario_shares(60_000.0, 2_500.0, 3,
                                                    9_000.0, 2, 1)
        assert as_int == formulas.scenario_shares(60_000, 2_500.0, 3,
                                                  9_000.0, 2, 1)

    def test_adapter_shares_one_memo_with_add_drop(self):
        adapter = QualityAdapter(QAConfig(), lambda: 0.0, lambda: 60_000.0,
                                 lambda: 9_000.0)
        assert adapter.add_drop.memo is adapter.filling_policy.memo


class _ReferenceBufferSet(LayerBufferSet):
    """The per-layer-call bookkeeping the inlined loops replaced."""

    def consume_until(self, now):
        shortfalls = {}
        for layer, acct in enumerate(self._accounts):
            if not acct.active or acct.consuming_since is None:
                continue
            dt = now - acct.clock
            if dt <= 0:
                continue
            want = self.layer_rate * dt
            take = min(want, max(0.0, acct.level))
            acct.consumed += take
            acct.clock = now
            if want - take > 1e-9:
                shortfalls[layer] = want - take
        return shortfalls

    def levels(self, active_layers):
        return [self.level(i) for i in range(active_layers)]

    def total(self, active_layers=None):
        n = self.max_layers if active_layers is None else active_layers
        return sum(self.level(i) for i in range(n))


MAX_LAYERS = 4
buffer_ops = st.lists(st.one_of(
    st.tuples(st.sampled_from(["activate", "start_consuming",
                               "deactivate"]),
              st.integers(0, MAX_LAYERS - 1)),
    st.tuples(st.sampled_from(["deliver", "withdraw"]),
              st.integers(0, MAX_LAYERS - 1),
              st.floats(min_value=0.0, max_value=5_000.0)),
    st.tuples(st.sampled_from(["consume_until", "pause"]),
              st.floats(min_value=-0.5, max_value=3.0)),
), max_size=60)


def _run_op(buffers: LayerBufferSet, op: tuple, now: float) -> object:
    """Run one operation; a rejected one returns its error message."""
    name, *args = op
    try:
        if name in ("activate", "start_consuming"):
            return getattr(buffers, name)(args[0], now)
        if name in ("consume_until", "pause"):
            return getattr(buffers, name)(now)
        return getattr(buffers, name)(*args)
    except ValueError as exc:
        return str(exc)


class TestBufferSetMatchesReference:
    @seed(20_261_017)
    @PROPERTY
    @given(ops=buffer_ops)
    def test_every_operation_agrees_exactly(self, ops):
        live = LayerBufferSet(1_000.0, MAX_LAYERS)
        ref = _ReferenceBufferSet(1_000.0, MAX_LAYERS)
        now = 0.0
        played: Optional[float] = None
        for op in ops:
            if op[0] in ("consume_until", "pause"):
                now += op[1]  # negative steps exercise dt <= 0
            got, want = _run_op(live, op, now), _run_op(ref, op, now)
            assert repr(got) == repr(want), op
            for n in range(MAX_LAYERS + 1):
                assert repr(live.levels(n)) == repr(ref.levels(n))
                assert repr(live.total(n)) == repr(ref.total(n))
            assert repr(live.total()) == repr(ref.total())
            for layer in range(MAX_LAYERS):
                assert repr(live.consumed(layer)) == repr(
                    ref.consumed(layer))
            assert played is None or live.played >= played
            played = live.played


def _steady_dumbbell(duration: float) -> Scenario:
    return Scenario(ScenarioConfig(
        flows=(QAFlowSpec(label="qa0"), QAFlowSpec(label="qa1", start=0.3)),
        topology=DumbbellConfig(bottleneck_bandwidth=100_000.0,
                                queue_capacity_packets=50),
        duration=duration, seed=1, telemetry=False))


class TestHotPathGuard:
    def test_state_sequence_builds_per_pick(self, monkeypatch):
        counts = {"builds": 0, "picks": 0}
        build, pick = StateSequence.__init__, QualityAdapter.pick_layer

        def counting_build(self, *args, **kwargs):
            counts["builds"] += 1
            build(self, *args, **kwargs)

        def counting_pick(self, seq):
            counts["picks"] += 1
            return pick(self, seq)

        monkeypatch.setattr(StateSequence, "__init__", counting_build)
        monkeypatch.setattr(QualityAdapter, "pick_layer", counting_pick)
        _steady_dumbbell(20.0).run()
        assert counts["picks"] > 1_000
        assert counts["builds"] / counts["picks"] <= 0.05

    def test_memo_stays_within_its_bound(self):
        scenario = _steady_dumbbell(40.0)
        scenario.run()
        for flow in scenario.flows:
            info = flow.session.server.adapter.filling_policy.memo.cache_info()
            assert info.maxsize == _MEMO_LIMIT
            assert info.misses > _MEMO_LIMIT  # long enough to evict
            assert info.currsize <= _MEMO_LIMIT
