"""Building the serving layer's configs from JSON documents.

The fleet (:mod:`repro.serving.fleet_config`), outage
(:mod:`repro.serving.degrade`) and generation
(:mod:`repro.serving.generation`) documents are objects whose keys are the
constructor parameters of the config dataclasses they describe, so the
dataclass *is* the schema: :func:`build` reads the allowed keys, their
types and defaults off the constructor signature, and every range rule is
the one the dataclass's ``__post_init__`` already enforces. Every violation
raises :class:`ConfigError` with the *path* of the offending field
(``endpoints[1].slo: must be > 0, got 0.0``), unknown keys are rejected, and
the CLI turns the error into ``exit 2``.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import os
import sys
import types
import typing


class ConfigError(ValueError):
    """A JSON config failed validation; the message names the path."""


#: Passed for a parameter in :func:`build`'s ``given``: the document
#: cannot set it, and the constructor's own default applies.
DEFAULT = object()


def fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def as_object(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        fail(path, f"must be an object, got {type(obj).__name__}")
    return obj


def number(obj: dict, key: str, path: str, *, required: bool = False):
    """A finite number at ``obj[key]`` as a float (``None`` if absent)."""
    if key not in obj:
        if required:
            fail(f"{path}.{key}", "is required")
        return None
    return _value(float, obj[key], f"{path}.{key}")


def build(cls, obj, path: str, *, handled: tuple = (), **given):
    """``cls`` constructed from the JSON object ``obj``.

    ``cls`` is a config dataclass (or any class or function with annotated
    parameters). Its parameters are the document's keys, minus those the
    caller passes in ``given`` (a value, or :data:`DEFAULT` for the
    constructor's default); ``handled`` names further keys the caller
    reads itself. Each value is checked against its parameter's
    annotation — ``int`` (not bool or float), ``float`` (ints accepted;
    not NaN or inf), ``bool``, ``str``, a nested config dataclass (built
    by this same call at ``path.key``), or any of these ``| None`` — and
    an absent key takes the constructor's default. A ``ValueError`` from
    the constructor becomes a :class:`ConfigError` at ``path.<param>``
    when its message starts with a parameter name, else at ``path``.
    """
    as_object(obj, path)
    params = inspect.signature(cls).parameters
    allowed = (set(params) - set(given)) | set(handled)
    unknown = sorted(set(obj) - allowed)
    if unknown:
        fail(path, f"unknown keys {unknown} (allowed: {sorted(allowed)})")
    kwargs = {k: v for k, v in given.items() if v is not DEFAULT}
    for name, param in params.items():
        if name in given or name in handled:
            continue
        if name in obj:
            kwargs[name] = _value(_annotation(cls, param.annotation),
                                  obj[name], f"{path}.{name}")
        elif param.default is inspect.Parameter.empty:
            fail(f"{path}.{name}", "is required")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        head, _, rest = str(exc).partition(" ")
        if head in params:
            raise ConfigError(f"{path}.{head}: {rest}") from exc
        raise ConfigError(f"{path}: {exc}") from exc


def _annotation(cls, annotation):
    """A parameter's annotation, evaluated if it is a string."""
    if isinstance(annotation, str):
        module = sys.modules[cls.__module__]
        annotation = eval(annotation, vars(module))  # the module's own source
    return annotation


def _value(kind, v, path: str):
    """The JSON value ``v`` checked (and converted) as a ``kind``."""
    if typing.get_origin(kind) in (typing.Union, types.UnionType):
        if v is None:
            return None
        (kind,) = [k for k in typing.get_args(kind) if k is not type(None)]
    if dataclasses.is_dataclass(kind):
        return build(kind, v, path)
    if kind is bool:
        if not isinstance(v, bool):
            fail(path, f"must be a boolean, got {v!r}")
    elif kind is str:
        if not isinstance(v, str):
            fail(path, f"must be a string, got {v!r}")
    elif kind is int:
        if isinstance(v, bool) or not isinstance(v, int):
            fail(path, f"must be an integer, got {v!r}")
    elif kind is float:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            fail(path, f"must be a number, got {v!r}")
        v = float(v)
        if not math.isfinite(v):
            fail(path, f"must be finite, got {v!r}")
    else:
        raise TypeError(f"{path}: a {kind!r} cannot be read from JSON")
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
