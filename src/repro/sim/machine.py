"""Base class for simulated machines.

A machine has a verifiable identifier (in real Farsite, the hash of its
public key -- see :mod:`repro.farsite.machine_id`), a liveness flag, and a
message dispatch table.  Protocol classes (SALAD leaves, file hosts,
directory-group members) subclass this and register handlers per message
kind.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.sim.network import Message, Network

Handler = Callable[[Message], None]


class UnknownMessageError(Exception):
    """A machine received a message kind it has no handler for."""


class SimMachine:
    """A simulated machine attached to a network."""

    def __init__(self, identifier: int, network: Network):
        self.identifier = identifier
        self.network = network
        self.alive = True
        #: Drivers that cache which machines are alive set this to learn of
        #: liveness flips without polling (they cannot otherwise observe a
        #: direct ``machine.fail()`` call).
        self.on_liveness_change: Optional[Callable[[], None]] = None
        self._handlers: Dict[str, Handler] = {}
        network.register(self)

    # -- lifecycle -----------------------------------------------------------

    def fail(self) -> None:
        """Crash-stop: the machine drops all future traffic."""
        self.alive = False
        if self.on_liveness_change is not None:
            self.on_liveness_change()

    def recover(self) -> None:
        self.alive = True
        if self.on_liveness_change is not None:
            self.on_liveness_change()

    def depart(self) -> None:
        """Cleanly leave the network (deregisters)."""
        self.alive = False
        self.network.deregister(self.identifier)
        if self.on_liveness_change is not None:
            self.on_liveness_change()

    # -- messaging -----------------------------------------------------------

    def on(self, kind: str, handler: Handler) -> None:
        """Register *handler* for message *kind*."""
        self._handlers[kind] = handler

    def send(self, recipient: int, kind: str, payload: Any = None) -> None:
        if not self.alive:
            return  # dead machines send nothing
        self.network.send(self.identifier, recipient, kind, payload)

    def receive(self, message: Message) -> None:
        if not self.alive:
            return
        try:
            handler = self._handlers[message.kind]
        except KeyError:
            raise UnknownMessageError(
                f"machine {self.identifier:#x} has no handler for {message.kind!r}"
            ) from None
        handler(message)

    # -- introspection -------------------------------------------------------

    @property
    def traffic(self):
        """This machine's traffic counters."""
        return self.network.traffic[self.identifier]

    @property
    def placement(self):
        """(site, rack) under the network's topology, or None on the flat fabric."""
        topology = self.network.topology
        if topology is None:
            return None
        return topology.place(self.identifier)

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.identifier:#042x} {state}>"
