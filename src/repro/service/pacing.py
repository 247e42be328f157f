"""A sans-IO RAP-style AIMD pacer for the asyncio service.

This is the congestion-control half of :class:`~repro.transport.rap.
RapSource` lifted out of the simulator: the same additive increase (one
packet per SRTT every SRTT), the same multiplicative halving, the same
hole-based loss detection (three-newer-ACKs) with a conservative timeout
backstop, and the same one-backoff-per-congestion-event discipline.

What changed is the clocking: the simulator schedules events, while this
class is *driven* — the owner calls :meth:`advance` with the current
time (event-loop seconds) before acting, asks :meth:`next_deadline` how
long to sleep, and feeds ACKs through :meth:`on_ack`. All methods return
plain :class:`PacerActions` describing what the congestion controller
decided; the caller translates them into
:class:`~repro.server.core.SessionCore` feedback calls. No I/O, no
asyncio, no wall-clock reads happen here, which keeps the algorithm unit
testable with a scripted clock.

Two service-specific guards that the simulator does not need:

- ``srtt_floor``: loopback RTTs are tens of microseconds; an unfloored
  SRTT would make the additive-increase timer spin and the slope
  estimate ``P/srtt^2`` explode. The floor emulates a sane network RTT.
- ``max_rate``: a cap on the transmission rate so an uncongested
  loopback session cannot ramp without bound (the receiver's
  ``max_buffer_seconds`` flow control idles slots anyway, but the pacer
  must not busy-loop between them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

#: Per-packet bookkeeping: (sent_at, meta, size).
Outstanding = tuple[float, dict, int]


@dataclass
class PacerActions:
    """What one pacer step decided; the caller feeds these to the core."""

    #: Packets confirmed delivered: (seq, meta, size).
    acked: list[tuple[int, dict, int]] = field(default_factory=list)
    #: Packets declared lost: (seq, meta, size).
    lost: list[tuple[int, dict, int]] = field(default_factory=list)
    #: New rate after a multiplicative decrease, or None.
    backoff_rate: Optional[float] = None
    #: True when the loss came from the timeout backstop.
    timed_out: bool = False

    def __bool__(self) -> bool:
        return bool(self.acked or self.lost
                    or self.backoff_rate is not None)


class RapPacer:
    """RAP congestion control as an externally-clocked state machine."""

    REORDER_THRESHOLD = 3
    SRTT_GAIN = 0.125
    RTTVAR_GAIN = 0.25

    def __init__(
        self,
        packet_size: int,
        now: float,
        srtt_init: float = 0.2,
        srtt_floor: float = 0.02,
        initial_rate: Optional[float] = None,
        min_rate: Optional[float] = None,
        max_rate: Optional[float] = None,
    ) -> None:
        if packet_size <= 0:
            raise ValueError("packet_size must be positive")
        if srtt_floor <= 0:
            raise ValueError("srtt_floor must be positive")
        self.packet_size = packet_size
        self.srtt_floor = srtt_floor
        self.srtt = max(srtt_init, srtt_floor)
        self.rttvar = self.srtt / 2
        self.min_rate = (min_rate if min_rate is not None
                         else packet_size / 2.0)
        self.max_rate = max_rate
        self._rate = (initial_rate if initial_rate is not None
                      else packet_size / self.srtt)
        self._rate = self._clamp(self._rate)

        self.next_seq = 0
        self.recovery_seq = 0
        self.highest_acked = -1
        self.outstanding: dict[int, Outstanding] = {}
        self.last_ack_time = now
        self.backoffs = 0
        self.timeouts = 0
        self.packets_lost = 0
        self.acks_received = 0
        self.rejected_acks = 0

        self._next_send = now
        self._next_step = now + self.srtt
        self._next_timeout_check = now + self.rto / 2

    # -------------------------------------------------------------- state

    @property
    def rate(self) -> float:
        """Current transmission rate in bytes/s."""
        return self._rate

    @property
    def ipg(self) -> float:
        """Current inter-packet gap in seconds."""
        return self.packet_size / self._rate

    @property
    def slope(self) -> float:
        """Additive-increase slope S = P/srtt^2 in bytes/s^2."""
        return self.packet_size / (self.srtt * self.srtt)

    @property
    def rto(self) -> float:
        """Timeout backstop, RFC 6298 shaped."""
        return min(5.0, max(0.2, self.srtt + 4 * self.rttvar))

    def _clamp(self, rate: float) -> float:
        rate = max(rate, self.min_rate)
        if self.max_rate is not None:
            rate = min(rate, self.max_rate)
        return rate

    # ------------------------------------------------------------ sending

    def send_due(self, now: float) -> bool:
        """Is a transmission opportunity due?"""
        return now >= self._next_send

    def register_send(self, now: float, meta: dict, size: int) -> int:
        """Consume the current opportunity with a real packet."""
        seq = self.next_seq
        self.outstanding[seq] = (now, meta, size)
        self.next_seq += 1
        self._next_send = now + self.ipg
        return seq

    def skip_send(self, now: float) -> None:
        """Consume the opportunity with an idle slot (receiver full)."""
        self._next_send = now + self.ipg

    def next_deadline(self, now: float) -> float:
        """Earliest time anything needs to run again."""
        return min(self._next_send, self._next_step,
                   self._next_timeout_check)

    # ----------------------------------------------------------- clocking

    def advance(self, now: float) -> PacerActions:
        """Run every timer that is due at ``now``."""
        actions = PacerActions()
        while now >= self._next_step:
            self._rate = self._clamp(self._rate
                                     + self.packet_size / self.srtt)
            self._next_step += self.srtt
        while now >= self._next_timeout_check:
            self._check_timeout(now, actions)
            self._next_timeout_check += self.rto / 2
        return actions

    def _check_timeout(self, now: float, actions: PacerActions) -> None:
        idle = now - self.last_ack_time
        if not self.outstanding or idle <= self.rto:
            return
        self.timeouts += 1
        actions.timed_out = True
        for seq in sorted(self.outstanding):
            self._declare_lost(seq, actions)
        self._backoff(self.next_seq, actions)
        self.last_ack_time = now

    # ----------------------------------------------------------- feedback

    def on_ack(self, seq: int, echo_ts: Optional[float],
               now: float) -> PacerActions:
        """An ACK arrived; returns deliveries/losses/backoff it caused.

        An ACK for a sequence number never sent is rejected (and counted
        in ``rejected_acks``) before it touches any state: believing it
        would push the loss horizon past every packet in flight.
        """
        if not 0 <= seq < self.next_seq:
            self.rejected_acks += 1
            return PacerActions()
        actions = PacerActions()
        self.acks_received += 1
        self.last_ack_time = now
        if echo_ts is not None:
            sample = now - echo_ts
            if sample >= 0:
                self._update_rtt(sample)
        entry = self.outstanding.pop(seq, None)
        if entry is not None:
            _, meta, size = entry
            actions.acked.append((seq, meta, size))
        self.highest_acked = max(self.highest_acked, seq)

        horizon = self.highest_acked - self.REORDER_THRESHOLD
        lost = [s for s in self.outstanding if s <= horizon]
        if lost:
            newest = max(lost)
            for s in sorted(lost):
                self._declare_lost(s, actions)
            self._backoff(newest, actions)
        return actions

    def _declare_lost(self, seq: int, actions: PacerActions) -> None:
        _, meta, size = self.outstanding.pop(seq)
        self.packets_lost += 1
        actions.lost.append((seq, meta, size))

    def _backoff(self, triggering_seq: int,
                 actions: PacerActions) -> None:
        if triggering_seq < self.recovery_seq:
            return  # this loss belongs to an already-handled event
        self._rate = max(self.min_rate, self._rate / 2)
        self.recovery_seq = self.next_seq
        self.backoffs += 1
        actions.backoff_rate = self._rate

    def _update_rtt(self, sample: float) -> None:
        sample = max(sample, self.srtt_floor)
        self.rttvar = ((1 - self.RTTVAR_GAIN) * self.rttvar
                       + self.RTTVAR_GAIN * abs(self.srtt - sample))
        self.srtt = max(self.srtt_floor,
                        (1 - self.SRTT_GAIN) * self.srtt
                        + self.SRTT_GAIN * sample)
