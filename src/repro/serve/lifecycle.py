"""Replica lifecycle primitives for the self-healing gateway.

PR 8's failover was a one-way door: a replica that raised
:class:`~repro.errors.ShardError` was retired and reaped permanently,
so transient faults (the same class the chaos suite injects) slowly
drained the fleet to :class:`~repro.errors.AllReplicasFailedError`.
This module holds the pieces the gateway composes into a
*self-healing* edge instead:

* :class:`ReplicaState` — the four-state lifecycle machine
  (``ACTIVE → SUSPECTED → PROBATION → ACTIVE | DEAD``).
* :class:`ReplicaSlot` — one replica's mutable lifecycle record
  inside the gateway: its state, probe bookkeeping, and the rolling
  window of per-query outcomes its circuit breaker reads (a replica
  that *answers* but keeps erroring leaves rotation just like one
  that crashes; every state transition starts a fresh window).
* :func:`probe_backoff` — seeded exponential backoff between
  re-admission probes (deterministic given the supervisor's RNG).

Everything here is policy-free data + pure functions; the gateway's
supervisor task owns the transitions (see ``docs/gateway.md`` for the
operator-facing description of each state).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .gateway import Replica

__all__ = [
    "ReplicaSlot",
    "ReplicaState",
    "probe_backoff",
]


class ReplicaState(str, Enum):
    """Where a replica sits in the self-healing lifecycle.

    The machine is ``ACTIVE → SUSPECTED → PROBATION → ACTIVE | DEAD``:

    * ``ACTIVE`` — in rotation; the gateway routes batches to it.
    * ``SUSPECTED`` — failed a batch attempt (typically a
      :class:`~repro.errors.ShardError`), failed a health scan, or
      tripped its circuit breaker.  Out of rotation; the supervisor
      will probe it after a seeded exponential backoff.
    * ``PROBATION`` — a probe is in flight: the supervisor revives the
      backend and replays the canary (the newest query the gateway
      answered), checking the answer bit-identical against the one the
      gateway delivered.
    * ``DEAD`` — the probe budget (``max_probe_attempts``) is
      exhausted (or re-admission is disabled); the replica is never
      routed to again.
    """

    ACTIVE = "active"
    SUSPECTED = "suspected"
    PROBATION = "probation"
    DEAD = "dead"


def probe_backoff(
    attempt: int,
    base_s: float,
    max_s: float,
    jitter: float,
    rng: random.Random,
) -> float:
    """Delay before re-admission probe number ``attempt`` (0-based).

    Classic capped exponential backoff with *seeded* jitter::

        min(max_s, base_s * 2**attempt) * (1 + jitter * rng.random())

    The jitter draws from the supervisor's own
    :class:`random.Random`, whose seed is fixed, so two runs probe at
    the same offsets — chaos tests can replay the healing schedule.

    Args:
        attempt: probes already failed for this replica (0 for the
            first probe after suspicion).
        base_s: delay before the first probe.
        max_s: cap on the un-jittered delay.
        jitter: fractional jitter in ``[0, 1]`` added on top.
        rng: the supervisor's seeded RNG.
    """
    delay = min(max_s, base_s * (2.0 ** attempt))
    if jitter > 0:
        delay *= 1.0 + jitter * rng.random()
    return delay


@dataclass
class ReplicaSlot:
    """One replica's mutable lifecycle record inside the gateway.

    The gateway holds one slot per replica (keyed by ``replica_id``)
    and mutates it under its own lock; the supervisor task drives the
    state transitions.

    The circuit breaker is the ``outcomes`` window: the gateway appends
    one ok/fail outcome per served query, and once the window holds
    ``breaker_failures`` failures the breaker has opened — the
    ``ACTIVE → SUSPECTED`` transition.  :meth:`enter` clears the
    window, so every state (a re-admitted replica above all) starts
    clean.

    Attributes:
        replica: the replica this slot tracks.
        outcomes: rolling per-query outcomes (``True`` = ok), bounded
            by ``deque(maxlen=breaker_window)``.
        state: current :class:`ReplicaState`.
        probe_attempts: failed re-admission probes since suspicion.
        next_probe_at: event-loop time before which the supervisor
            must not probe (seeded backoff).
        last_error: ``type(exc).__name__`` of the fault that caused
            the most recent suspicion (``""`` when never suspected).
    """

    replica: "Replica"
    outcomes: deque[bool]
    state: ReplicaState = ReplicaState.ACTIVE
    probe_attempts: int = 0
    next_probe_at: float = 0.0
    last_error: str = ""

    def enter(self, state: ReplicaState) -> None:
        """Move to ``state`` with a fresh outcome window."""
        self.state = state
        self.outcomes.clear()
