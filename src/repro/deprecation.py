"""Deprecation shims for the unified public API surface.

Analysis-report payloads (``races``, ``hunt``, maple) grew one versioned
schema (:mod:`repro.analysis.report`); :func:`deprecated_field` still
reads the pre-schema field spellings, with a :class:`DeprecationWarning`
naming the replacement.
"""

from __future__ import annotations

import warnings

__all__ = ["deprecated_field"]


_MISSING = object()


def deprecated_field(payload: dict, old_name: str, new_name: str,
                     default=_MISSING, stacklevel: int = 3):
    """Read ``payload[new_name]``, accepting the deprecated spelling.

    Analysis-report payloads (``races``, ``hunt``, maple) are produced
    under one versioned schema (:mod:`repro.analysis.report`); pre-schema
    payloads spelled some fields differently (``race_count``,
    ``candidates``).  This reads the canonical key, falls back to the old
    spelling with a :class:`DeprecationWarning`, and raises ``KeyError``
    (or returns ``default`` when given) if neither is present.
    """
    if new_name in payload:
        return payload[new_name]
    if old_name in payload:
        warnings.warn("payload field %r is deprecated; use %r"
                      % (old_name, new_name), DeprecationWarning,
                      stacklevel=stacklevel)
        return payload[old_name]
    if default is not _MISSING:
        return default
    raise KeyError(new_name)
