"""The catalog's maintenance import: one function, :func:`consume`.

A :class:`~repro.engine.catalog.Catalog` owns the attached
:class:`~repro.views.maintenance.IncrementalViewSet` and its ``seq``
cursor; whenever the tracker has moved past the cursor, :func:`consume`
brings the catalog level with it against the refreshed snapshot:
changed views are bound into its id space and installed, unchanged
ones are re-stamped onto its token without a version bump -- so the
whole catalog shares one token again and MatchJoin stays on the
integer fast path through the update stream -- and bounded views,
which the tracker cannot maintain, are flagged stale.  An extension
already on the snapshot's token (a fresh tracker's, built on the
snapshot the catalog serves) is installed as it is.  Loaded by the
first sync with something to consume, never by an unmaintained engine.
"""

from __future__ import annotations

import logging
from typing import Tuple

from repro.obs.metrics import get_registry
from repro.views.view import bind_extension

log = logging.getLogger(__name__)


def consume(views, tracker, cursor: int, snapshot) -> Tuple[str, ...]:
    """Import what ``tracker`` applied after update number ``cursor``
    into ``views``, bound to ``snapshot`` (catalog lock held).  Returns
    the bounded views flagged stale -- every materialized one, when the
    tracker applied any update since the cursor.  A ``cursor`` of -1
    (a fresh attachment) imports every maintained view."""
    changed = tracker.changed_since(cursor)
    for name in changed:
        views.set_extension(_bound(tracker.extension(name), snapshot))
    stale: Tuple[str, ...] = ()
    if tracker.seq > max(cursor, 0):
        stale = tuple(
            name
            for name in views.names()
            if views.definition(name).is_bounded and views.is_materialized(name)
        )
        for name in stale:
            views.mark_stale(name)
        if stale:
            get_registry().counter(
                "repro_maintenance_stale_bounded_total"
            ).inc(len(stale))
            log.info(
                "delta left %d bounded view(s) stale: %s",
                len(stale), ", ".join(sorted(map(str, stale))),
            )
    for name in views.names():
        # Stale (bounded) extensions must not be re-stamped onto the
        # fresh token -- that would launder outdated match sets into
        # provenance MatchJoin trusts.  They wait for
        # rematerialization instead.
        extension = None if name in changed else views.fresh_extension(name)
        if extension is None:
            continue
        compact = extension.compact
        if compact is None or compact.token == snapshot.snapshot_token:
            continue
        # Provenance only: the match sets are identical, no version moves.
        views.rebind_extension(_bound(extension, snapshot))
    return stale


def _bound(extension, snapshot):
    """``extension`` with its id rows on ``snapshot``'s token: itself
    when they already are, re-stamped when ``snapshot`` was refreshed
    from the one they are on, else encoded afresh."""
    compact = extension.compact
    if compact is not None:
        if compact.token == snapshot.snapshot_token:
            return extension
        if compact.token == snapshot.extends_token:
            return extension.rebound(snapshot)
    return bind_extension(extension, snapshot)
