"""The catalog's half of a maintenance sync: what needs a snapshot.

:class:`~repro.views.storage.ViewSet` owns the pull cursor.  A
:class:`~repro.engine.catalog.Catalog` adds, in :func:`consume`:
refresh the snapshot from the graph's edge-op journal, bind the changed
imports into its id space, and re-stamp the unchanged extensions onto
its token -- so the whole catalog shares one token again and MatchJoin
stays on the integer fast path through the update stream.  Loaded by
the first sync with something to consume, never by an unmaintained
engine.
"""

from __future__ import annotations

from repro.views.view import bind_extension


def consume(catalog) -> None:
    """Import what the followed tracker changed (catalog lock held)."""
    views = catalog.views
    # Refresh the snapshot first (cheap, journal-driven) so changed
    # extensions bind straight into the new id space.
    snapshot = catalog.snapshot()
    if snapshot is None:
        views.import_maintenance()
        return
    changed = views.import_maintenance(
        lambda extension: bind_extension(extension, snapshot)
    )
    rebind_unchanged(views, set(changed), snapshot)


def rebind_unchanged(views, changed, snapshot) -> None:
    """Re-stamp unchanged snapshot-bound extensions onto the refreshed
    snapshot's token (no version bump: the match sets are identical,
    only provenance moved)."""
    extends = getattr(snapshot, "extends_token", None)
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
        try:
            if extends is not None and compact.token == extends:
                rebound = extension.rebound(snapshot)
            else:
                rebound = bind_extension(extension, snapshot)
        except KeyError:
            # The extension references nodes the snapshot no longer
            # has (out-of-band mutation): leave it; queries reading
            # this view simply run over node-key rows.
            continue
        views.rebind_extension(rebound)
