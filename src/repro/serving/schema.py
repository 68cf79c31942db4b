"""Shared helpers for the serving layer's JSON config schemas.

The fleet (:mod:`repro.serving.fleet_config`), outage
(:mod:`repro.serving.degrade`) and generation
(:mod:`repro.serving.generation`) documents are validated by hand in one
house style: every violation raises :class:`ConfigError` with the *path*
of the offending field (``endpoints[1].slo: must be > 0``), unknown keys
are rejected, and the CLI turns the error into ``exit 2``. This module
holds the pieces the three schemas share.
"""

from __future__ import annotations

import json
import math
import os


class ConfigError(ValueError):
    """A JSON config failed validation; the message names the path."""


def fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def check_keys(obj: dict, allowed: set, path: str) -> None:
    unknown = sorted(set(obj) - allowed)
    if unknown:
        fail(path, f"unknown keys {unknown} (allowed: {sorted(allowed)})")


def as_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        fail(path, f"must be an object, got {type(obj).__name__}")
    return obj


def number(obj: dict, key: str, path: str, default=None, *,
           required: bool = False, minimum: float | None = None,
           maximum: float | None = None, strict: bool = False,
           nullable: bool = False):
    """A finite number at ``obj[key]``; ``strict`` makes ``minimum``
    exclusive, ``nullable`` lets an explicit ``null`` through."""
    if key not in obj:
        if required:
            fail(f"{path}.{key}", "is required")
        return default
    v = obj[key]
    if v is None and nullable:
        return None
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        fail(f"{path}.{key}", f"must be a number, got {v!r}")
    v = float(v)
    if not math.isfinite(v):
        fail(f"{path}.{key}", f"must be finite, got {v!r}")
    if minimum is not None:
        if strict and not v > minimum:
            fail(f"{path}.{key}", f"must be > {minimum:g}, got {v:g}")
        if not strict and not v >= minimum:
            fail(f"{path}.{key}", f"must be >= {minimum:g}, got {v:g}")
    if maximum is not None and v > maximum:
        fail(f"{path}.{key}", f"must be <= {maximum:g}, got {v:g}")
    return v


def integer(obj: dict, key: str, path: str, default=None, *,
            required: bool = False, minimum: int | None = None,
            nullable: bool = False):
    """An integer (not a bool) at ``obj[key]``."""
    if key not in obj:
        if required:
            fail(f"{path}.{key}", "is required")
        return default
    v = obj[key]
    if v is None and nullable:
        return None
    if isinstance(v, bool) or not isinstance(v, int):
        fail(f"{path}.{key}", f"must be an integer, got {v!r}")
    if minimum is not None and v < minimum:
        fail(f"{path}.{key}", f"must be >= {minimum}, got {v}")
    return v


def load_json(path: str | os.PathLike):
    """Read and parse a JSON file; an unreadable file or invalid JSON
    raises :class:`ConfigError` naming the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {os.fspath(path)}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{os.fspath(path)} is not valid JSON: {exc}"
        ) from exc
