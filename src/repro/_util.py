"""Small shared utilities."""

from __future__ import annotations

import hashlib


def stable_fraction(*parts: object) -> float:
    """A deterministic pseudo-uniform value in [0, 1) from hashable parts.

    Based on SHA-1 of the repr so the value is independent of
    ``PYTHONHASHSEED`` and stable across interpreter runs — a requirement
    for reproducible fault activation and version populations.
    """
    digest = hashlib.sha1(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


def stable_int(*parts: object, modulo: int = 2 ** 31) -> int:
    """A deterministic pseudo-uniform integer in [0, modulo)."""
    digest = hashlib.sha1(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % modulo


def positive_int(text: str) -> int:
    """The ``type=`` of a count option: an integer of at least 1, so an
    out-of-range value is a usage error (exit 2) naming the option."""
    return _positive(int, "integer", text)


def positive_float(text: str) -> float:
    """The ``type=`` of a duration option: a finite number above 0."""
    return _positive(float, "number", text)


def _positive(kind: type, noun: str, text: str):
    # Imported here: only the command-line parsers call these, and
    # ``import repro`` does not load argparse.
    import argparse

    try:
        value = kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid {kind.__name__} value: {text!r}") from None
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive {noun}, got {value}")
    return value
