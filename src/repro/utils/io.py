"""Crash-safe file I/O shared by every checkpoint writer in the repo.

A process dying mid-``write()`` must never leave a torn file where a valid
one used to be — neither for trained-surrogate ``.npz`` checkpoints
(:func:`repro.core.training.save_trained`) nor for serving-runtime
snapshots (:mod:`repro.serving.checkpoint`). :func:`atomic_write` implements the
standard discipline once: write to a temporary file in the *same directory*
(so the final rename never crosses a filesystem), flush and fsync it, then
``os.replace`` it over the destination. Readers see either the old complete
file or the new complete file, never a prefix of the new one. The file gets
the mode a plain ``open()`` would give it: ``0o666`` less the umask.
"""

from __future__ import annotations

import contextlib
import os
from typing import IO, Iterator


@contextlib.contextmanager
def atomic_write(path: str | os.PathLike, mode: str = "wb") -> Iterator[IO]:
    """Context manager yielding a handle whose contents replace ``path``
    atomically on success and are discarded entirely on failure.

    ``mode`` must be a write mode (``"wb"`` or ``"w"``). The temporary file
    lives next to ``path`` so :func:`os.replace` is a same-filesystem rename
    — the atomicity guarantee POSIX provides.
    """
    if mode not in ("wb", "w"):
        raise ValueError(f"mode must be 'wb' or 'w', got {mode!r}")
    path = os.fspath(path)
    while True:
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
        try:
            # Not mkstemp, whose 0o600 would outlive the rename: the
            # kernel applies the umask to 0o666, as a plain open() does.
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
