"""The catalog's maintenance import: one function, :func:`consume`.

A :class:`~repro.engine.catalog.Catalog` owns the attached
:class:`~repro.views.maintenance.IncrementalViewSet` and its ``seq``
cursor; whenever the tracker has moved past the cursor, :func:`consume`
brings the catalog level with it.  Every maintained view is taken from
the tracker, whose extensions all sit on its latest snapshot (the
catalog's graph): changed views are installed with a version bump,
unchanged ones re-stamped without one -- so the whole catalog shares
one token again and MatchJoin stays on the integer fast path through
the update stream.  Every other materialized view --
bounded ones, which the tracker cannot maintain, and any simulation
view it was not given -- is flagged stale.  Loaded by the first sync
with something to consume, never by an unmaintained engine.
"""

from __future__ import annotations

import logging
from typing import Tuple

from repro.obs.metrics import get_registry

log = logging.getLogger(__name__)


def consume(views, tracker, cursor: int) -> Tuple[str, ...]:
    """Import what ``tracker`` applied after update number ``cursor``
    into ``views`` (catalog lock held).  Returns
    the views flagged stale -- every materialized one the tracker does
    not maintain, when it applied any update since the cursor.  A
    ``cursor`` of -1 (a fresh attachment) imports every maintained
    view."""
    changed = set(tracker.changed_since(cursor))
    for name in tracker.names():
        extension = tracker.extension(name)
        if name in changed or views.fresh_extension(name) is None:
            views.set_extension(extension)
        else:
            # Provenance only: the match sets are identical, no version moves.
            views.rebind_extension(extension)
    stale: Tuple[str, ...] = ()
    if tracker.seq > max(cursor, 0):
        maintained = set(tracker.names())
        stale = tuple(
            name
            for name in views.names()
            if name not in maintained and views.is_materialized(name)
        )
        for name in stale:
            views.mark_stale(name)
        if stale:
            get_registry().counter(
                "repro_maintenance_stale_bounded_total"
            ).inc(len(stale))
            log.info(
                "delta left %d unmaintained view(s) stale: %s",
                len(stale), ", ".join(sorted(map(str, stale))),
            )
    return stale

