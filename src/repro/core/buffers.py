"""Per-layer receiver-buffer bookkeeping.

The same accounting is used twice: by the actual receiver (playout) and by
the server-side estimator that drives adaptation decisions (the server
learns deliveries from ACKs, one RTT late, and computes consumption from
the playout clock it agreed on with the client at session start).

Buffers are fluid byte counters, matching the paper's model: ``level =
delivered - consumed``, consumption is a constant ``C`` per active layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.units import Bytes, BytesPerSec, Seconds


@dataclass
class LayerAccount:
    """Accounting for one layer."""

    delivered: Bytes = 0.0
    consumed: Bytes = 0.0
    active: bool = False
    consuming_since: Optional[Seconds] = None
    clock: Seconds = 0.0  # consumption clock position (simulation time)

    @property
    def level(self) -> Bytes:
        return self.delivered - self.consumed


class LayerBufferSet:
    """A set of per-layer buffers with independent consumption clocks.

    ``consume_until(t)`` advances every *consuming* layer's clock to ``t``,
    draining ``C * dt`` from each and reporting shortfalls (bytes a layer
    wanted to play but did not have). A layer can be active (being sent and
    buffered) before its consumption starts -- that is the startup window.
    """

    def __init__(self, layer_rate: BytesPerSec, max_layers: int) -> None:
        if layer_rate <= 0:
            raise ValueError("layer_rate must be positive")
        if max_layers < 1:
            raise ValueError("max_layers must be at least 1")
        self.layer_rate = layer_rate
        self.max_layers = max_layers
        self._accounts = [LayerAccount() for _ in range(max_layers)]
        #: Bytes consumed over all layers, dropped ones included.
        self.played: Bytes = 0.0

    # ---------------------------------------------------------- lifecycle

    def activate(self, layer: int, now: Seconds) -> None:
        """Start buffering (and clocking) layer ``layer`` at time ``now``."""
        acct = self._accounts[layer]
        if acct.active:
            raise ValueError(f"layer {layer} already active")
        acct.active = True
        acct.clock = now

    def start_consuming(self, layer: int, now: Seconds) -> None:
        """Begin draining ``layer`` at rate C from time ``now``."""
        acct = self._accounts[layer]
        if not acct.active:
            raise ValueError(f"layer {layer} not active")
        acct.consuming_since = now
        acct.clock = now

    def deactivate(self, layer: int) -> Bytes:
        """Stop layer ``layer``; returns the buffered bytes discarded."""
        acct = self._accounts[layer]
        if not acct.active:
            raise ValueError(f"layer {layer} not active")
        remaining = max(0.0, acct.level)
        self._accounts[layer] = LayerAccount()
        return remaining

    def is_active(self, layer: int) -> bool:
        return self._accounts[layer].active

    def is_consuming(self, layer: int) -> bool:
        return self._accounts[layer].consuming_since is not None

    # --------------------------------------------------------------- data

    def deliver(self, layer: int, nbytes: Bytes) -> None:
        """Record ``nbytes`` of layer data arriving at the receiver."""
        if nbytes < 0:
            raise ValueError("cannot deliver negative bytes")
        acct = self._accounts[layer]
        if not acct.active:
            return  # data for a dropped layer still plays but isn't tracked
        acct.delivered += nbytes

    def withdraw(self, layer: int, nbytes: Bytes) -> None:
        """Un-credit ``nbytes`` that turned out to be lost in transit.

        Used by send-time-crediting estimators when the congestion
        controller detects a loss. The account may momentarily go
        negative; :meth:`level` clamps reads at zero.
        """
        if nbytes < 0:
            raise ValueError("cannot withdraw negative bytes")
        acct = self._accounts[layer]
        if not acct.active:
            return
        acct.delivered -= nbytes

    def consume_until(self, now: Seconds) -> dict[int, Bytes]:
        """Advance all consumption clocks to ``now``.

        Returns ``{layer: shortfall_bytes}`` for layers that wanted more
        data than they had (underflow). Clocks advance even on shortfall;
        stall semantics (pausing) are the playout policy's job and are
        implemented by it calling :meth:`pause` instead.
        """
        shortfalls: dict[int, float] = {}
        played = 0.0
        for layer, acct in enumerate(self._accounts):
            if acct.consuming_since is None:  # implies not active either
                continue
            dt = now - acct.clock
            if dt <= 0:
                continue
            want = self.layer_rate * dt
            take = min(want, max(0.0, acct.delivered - acct.consumed))
            acct.consumed += take
            played += take
            acct.clock = now
            if want - take > 1e-9:
                shortfalls[layer] = want - take
        self.played += played
        return shortfalls

    def pause(self, now: Seconds) -> None:
        """Advance all clocks to ``now`` without consuming (playback stall)."""
        for acct in self._accounts:
            if acct.active and acct.consuming_since is not None:
                acct.clock = now

    # ------------------------------------------------------------ queries

    def level(self, layer: int) -> Bytes:
        """Buffered bytes of ``layer`` (clamped at zero)."""
        return max(0.0, self._accounts[layer].level)

    def levels(self, active_layers: int) -> list[Bytes]:
        """Base-first buffer levels of the first ``active_layers`` layers."""
        return [max(0.0, a.delivered - a.consumed)
                for a in self._accounts[:active_layers]]

    def total(self, active_layers: Optional[int] = None) -> Bytes:
        """Sum of buffered bytes over the first ``active_layers`` layers."""
        n = self.max_layers if active_layers is None else active_layers
        return sum(self.levels(n))

    def delivered(self, layer: int) -> Bytes:
        """Cumulative bytes credited to ``layer``."""
        return self._accounts[layer].delivered

    def consumed(self, layer: int) -> Bytes:
        """Cumulative bytes the decoder has consumed from ``layer``."""
        return self._accounts[layer].consumed
