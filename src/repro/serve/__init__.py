"""Detection-as-a-service: HTTP daemon, session registry, client.

``python -m repro.cli serve --store DIR --port N`` runs the daemon;
:class:`ServeClient` talks to it; :class:`SessionRegistry` holds the
warm sessions behind per-session readers-writer locks.
"""

from .._lazy import lazy_exports

__all__ = lazy_exports(
    __name__,
    {
        "ServeClient": "client",
        "ServeError": "client",
        "DetectionServer": "daemon",
        "serve": "daemon",
        "ReadWriteLock": "sessions",
        "SessionEntry": "sessions",
        "SessionRegistry": "sessions",
    },
)
