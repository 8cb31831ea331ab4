"""Logging policy: library emits, applications configure.

Every module in :mod:`repro` logs through a module-level
``logging.getLogger(__name__)`` -- all under the ``repro.*`` hierarchy
-- and the library never installs handlers, formatters or levels on
import (embedders own their logging config; the root ``repro`` logger
is left untouched).

:func:`install` is the *application-side* opt-in used by ``repro serve
--log-level``: a stream handler with a structured ``key=value``
formatter on the ``repro`` logger, so service logs are grep- and
machine-friendly without any third-party dependency.
"""

from __future__ import annotations

import logging

#: Accepted ``--log-level`` names (stdlib levels).
LEVELS = ("debug", "info", "warning", "error", "critical")


class StructuredFormatter(logging.Formatter):
    """``ts=... level=... logger=... msg="..."`` single-line records.

    Extra fields passed via ``logger.info(..., extra={"fields": {...}})``
    render as additional ``key=value`` pairs.
    """

    default_time_format = "%Y-%m-%dT%H:%M:%S"
    default_msec_format = "%s.%03d"

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage().replace('"', "'")
        parts = [
            f"ts={self.formatTime(record)}",
            f"level={record.levelname.lower()}",
            f"logger={record.name}",
            f'msg="{message}"',
        ]
        fields = getattr(record, "fields", None)
        if fields:
            parts.extend(f"{key}={value}" for key, value in fields.items())
        if record.exc_info:
            exc = self.formatException(record.exc_info).replace("\n", " | ")
            parts.append(f'exc="{exc}"')
        return " ".join(parts)


def install(level: str = "info", logger_name: str = "repro") -> logging.Handler:
    """Install the structured handler on the ``repro`` hierarchy.

    Idempotent per logger: a second call replaces the previously
    installed handler instead of stacking duplicates.  Returns the
    handler (tests detach it via ``logger.removeHandler``).
    """
    if level not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; expected one of {LEVELS}"
        )
    logger = logging.getLogger(logger_name)
    for existing in list(logger.handlers):
        if getattr(existing, "_repro_structured", False):
            logger.removeHandler(existing)
    handler = logging.StreamHandler()
    handler.setFormatter(StructuredFormatter())
    handler._repro_structured = True  # type: ignore[attr-defined]
    logger.addHandler(handler)
    logger.setLevel(getattr(logging, level.upper()))
    return handler


def log_fields(**fields: object) -> dict:
    """``extra=`` payload carrying structured fields:
    ``log.info("shed", extra=log_fields(reason="queue-full"))``."""
    return {"fields": fields}

