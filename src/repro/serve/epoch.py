"""Epoch-based snapshot lifecycle for the serving layer.

The serving model is the paper's premise made operational: readers
evaluate against an *immutable* frozen snapshot plus materialized view
extensions, while maintenance keeps running.  An :class:`Epoch` is one
such immutable generation -- an
:class:`~repro.engine.catalog.EngineCheckpoint` plus a reader refcount --
and the :class:`SnapshotRegistry` is the single atomically-swapped
pointer to the current one:

* a reader **pins** the current epoch before evaluating and releases it
  after; pinning is O(1) and never blocks on maintenance;
* maintenance builds epoch ``N+1`` off the event loop (``apply_delta``
  + snapshot refresh + stale-view rematerialization, all inside
  :meth:`QueryEngine.checkpoint`), then **swaps** the registry pointer;
* the superseded epoch is *retired*: in-flight readers drain on it at
  their own pace, and when the last one releases, it is **drained** --
  the measurable guarantee that a swap is never stop-the-world.

Refcounting uses a plain lock (pin/release/swap are each a few
instructions), so epochs are safe to touch from the event loop and from
executor threads alike.
"""

from __future__ import annotations

import logging
import threading
from typing import Dict, Hashable, List, Optional

from repro.engine.catalog import EngineCheckpoint

log = logging.getLogger(__name__)


class Epoch:
    """One immutable serving generation, with a reader refcount.

    ``checkpoint`` carries everything evaluation needs (snapshot,
    extensions, version stamps); ``epoch_id`` is the generation number
    (0 for the initial build, +1 per applied maintenance batch).
    ``resolutions`` is the server's per-epoch memo -- what a (query
    fingerprint, selection) resolved to against this checkpoint: the
    plan, the evaluation spec, the answer key.  All of it is a function
    of the immutable checkpoint, so it needs no invalidation and dies
    with the epoch; unlike the refcount it is touched from the event
    loop only.
    """

    __slots__ = (
        "epoch_id", "checkpoint", "resolutions",
        "_lock", "_readers", "_retired", "_drained",
    )

    def __init__(self, epoch_id: int, checkpoint: EngineCheckpoint) -> None:
        self.epoch_id = epoch_id
        self.checkpoint = checkpoint
        self.resolutions: Dict[Hashable, object] = {}
        self._lock = threading.Lock()
        self._readers = 0
        self._retired = False
        self._drained = threading.Event()

    @property
    def readers(self) -> int:
        """Number of in-flight readers currently pinning this epoch."""
        return self._readers

    @property
    def retired(self) -> bool:
        """Whether a newer epoch has superseded this one."""
        return self._retired

    @property
    def drained(self) -> bool:
        """Whether this epoch is retired *and* its last reader left."""
        return self._drained.is_set()

    def acquire(self) -> None:
        """Pin the epoch (one more in-flight reader)."""
        with self._lock:
            self._readers += 1

    def release(self) -> None:
        """Unpin the epoch; the final release of a retired epoch marks
        it drained."""
        with self._lock:
            self._readers -= 1
            if self._readers < 0:
                raise RuntimeError(
                    f"epoch {self.epoch_id} released more times than acquired"
                )
            if self._retired and self._readers == 0:
                self._drained.set()

    def retire(self) -> None:
        """Mark the epoch superseded (idempotent); drains immediately
        when no reader holds it."""
        with self._lock:
            self._retired = True
            if self._readers == 0:
                self._drained.set()

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until drained (for tests and shutdown accounting)."""
        return self._drained.wait(timeout)

    def __repr__(self) -> str:
        state = "drained" if self.drained else (
            "retired" if self._retired else "current"
        )
        return f"Epoch(id={self.epoch_id}, readers={self._readers}, {state})"


class SnapshotRegistry:
    """The atomically-swapped pointer to the current :class:`Epoch`.

    ``pin()`` hands a reader the current epoch with its refcount already
    taken -- the pointer read and the acquire happen under one lock, so
    a concurrent swap can never retire an epoch between a reader seeing
    it and pinning it.  ``swap()`` publishes the next generation and
    retires the previous one.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._current: Optional[Epoch] = None
        self._swaps = 0
        # Retired-but-not-yet-drained epochs only: drained epochs are
        # pruned (their checkpoints freed) and tallied, so a
        # long-running server never accumulates old generations.
        self._draining: List[Epoch] = []
        self._drained_count = 0

    @property
    def current(self) -> Optional[Epoch]:
        """The current epoch (``None`` before the first publish)."""
        return self._current

    @property
    def current_id(self) -> int:
        """The current epoch id (``-1`` before the first publish)."""
        epoch = self._current
        return epoch.epoch_id if epoch is not None else -1

    @property
    def swaps(self) -> int:
        """Number of epoch swaps (publishes after the first)."""
        return self._swaps

    def pin(self) -> Epoch:
        """Atomically read-and-acquire the current epoch."""
        with self._lock:
            epoch = self._current
            if epoch is None:
                raise RuntimeError("no epoch published yet")
            epoch.acquire()
            return epoch

    def swap(self, checkpoint: EngineCheckpoint) -> Epoch:
        """Publish ``checkpoint`` as the next epoch, retiring the
        current one (which drains as its readers finish)."""
        with self._lock:
            previous = self._current
            epoch = Epoch(
                (previous.epoch_id + 1) if previous is not None else 0,
                checkpoint,
            )
            self._current = epoch
            if previous is not None:
                self._swaps += 1
                self._draining.append(previous)
            self._prune_locked()
        if previous is not None:
            # Outside the registry lock: retire() takes the epoch lock,
            # and drained bookkeeping should not block pinners.
            previous.retire()
            log.debug(
                "epoch %d published; epoch %d retired with %d readers",
                epoch.epoch_id, previous.epoch_id, previous.readers,
            )
        return epoch

    def _prune_locked(self) -> None:
        still = [epoch for epoch in self._draining if not epoch.drained]
        self._drained_count += len(self._draining) - len(still)
        self._draining = still

    def drain_stats(self) -> dict:
        """Counters for ``/stats``: swaps, retired epochs still holding
        readers, and fully drained epochs."""
        with self._lock:
            self._prune_locked()
            return {
                "swaps": self._swaps,
                "draining": len(self._draining),
                "drained": self._drained_count,
            }
