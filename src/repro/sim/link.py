"""Point-to-point links.

A :class:`Link` serializes packets at a fixed bandwidth (bytes/s), holds
them for a propagation delay, and hands them to a receiver callable. Each
link owns an output queue (drop-tail by default); arrivals while the
transmitter is busy wait in the queue, arrivals to a full queue are dropped.
This is the standard store-and-forward model ns-2 uses, and is the sole
source of packet loss in the paper's simulations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue

if TYPE_CHECKING:  # pragma: no cover - layering: sim never imports
    from repro.telemetry.metrics import MetricsRegistry  # telemetry at runtime

Receiver = Callable[[Packet], None]


class Link:
    """Unidirectional link with bandwidth, propagation delay and a queue.

    Args:
        sim: the event engine.
        bandwidth: serialization rate in **bytes per second**.
        delay: one-way propagation delay in seconds.
        queue: output queue; a generous default is created if omitted.
        name: label used in traces.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        delay: float,
        queue: Optional[DropTailQueue] = None,
        name: str = "link",
    ) -> None:
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if delay < 0:
            raise ValueError("delay cannot be negative")
        self.sim = sim
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(10_000)
        self.name = name
        self.receiver: Optional[Receiver] = None
        self._busy = False
        self.bytes_forwarded = 0
        self.packets_forwarded = 0
        # Metrics hooks (None unless attach_metrics ran): the hot path
        # pays one attribute load + None check when metrics are off.
        self._forward_hook: Optional[Callable[[float], None]] = None
        self._qdrop_hook: Optional[Callable[[float], None]] = None

    def connect(self, receiver: Receiver) -> None:
        """Attach the downstream receiver (a node's ``receive`` method)."""
        self.receiver = receiver

    def attach_metrics(self, registry: "MetricsRegistry") -> None:
        """Wire this link into a metrics registry.

        Per-packet counters (forwarded bytes/packets, queue drops) bind
        as hooks that are ``None`` when the registry is disabled (RL007
        discipline); the queue-depth gauge is collector-fed, read only
        at export time.
        """
        self._forward_hook = registry.counter_hook(
            "link_tx_bytes_total", "Bytes serialized onto the wire",
            link=self.name)
        self._qdrop_hook = registry.counter_hook(
            "link_queue_drops_total", "Packets dropped at the full queue",
            link=self.name)
        registry.register_collector(self._collect_metrics)

    def _collect_metrics(self, registry: "MetricsRegistry") -> None:
        registry.gauge(
            "link_queue_depth", "Packets waiting in the output queue",
            link=self.name).set(float(len(self.queue)))
        registry.gauge(
            "link_packets_forwarded", "Packets forwarded end to end",
            link=self.name).set(float(self.packets_forwarded))

    @property
    def busy(self) -> bool:
        """True while a packet is being serialized onto the wire."""
        return self._busy

    def utilization_bytes(self) -> int:
        """Total bytes forwarded so far (for utilization accounting)."""
        return self.bytes_forwarded

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Returns False if the queue dropped it. Transmission begins
        immediately when the transmitter is idle.
        """
        if self.receiver is None:
            raise RuntimeError(f"{self.name}: receiver not connected")
        if not self.queue.enqueue(packet):
            hook = self._qdrop_hook
            if hook is not None:
                hook(1.0)
            return False
        if not self._busy:
            self._start_transmission()
        return True

    def _start_transmission(self) -> None:
        packet = self.queue.dequeue()
        if packet is None:
            self._busy = False
            return
        self._busy = True
        tx_time = packet.size / self.bandwidth
        self.sim.schedule(
            tx_time, self._transmission_done, priority=0, args=(packet,)
        )

    def _transmission_done(self, packet: Packet) -> None:
        self.bytes_forwarded += packet.size
        self.packets_forwarded += 1
        hook = self._forward_hook
        if hook is not None:
            hook(float(packet.size))
        # Propagation: deliver after `delay`; the transmitter frees up now.
        # send() refuses packets until a receiver is connected.
        assert self.receiver is not None
        self.sim.schedule(
            self.delay, self.receiver, priority=0, args=(packet,)
        )
        self._start_transmission()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Link({self.name}, {self.bandwidth:.0f} B/s, {self.delay * 1e3:.1f} ms, "
            f"qlen={len(self.queue)})"
        )
