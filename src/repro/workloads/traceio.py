"""Trace serialization: save/load traces as compressed ``.npz`` files.

The synthetic suite is fully deterministic from its registry seeds, so
on-disk traces are never *required*; this module exists for
interoperability — exporting a generated trace for inspection, or
importing an externally converted trace (e.g. one distilled from a
ChampSim trace) into the simulator.

Format: a NumPy ``.npz`` archive with arrays ``pcs``/``addrs``/``flags``
plus a JSON-encoded header carrying the name, suite, format version and
metadata.  The format is versioned so later revisions stay loadable.
"""

from __future__ import annotations

import json
import os
import pathlib
import zipfile
from typing import Optional, Union

import numpy as np

from .trace import Trace

#: bump when the on-disk layout changes incompatibly.
FORMAT_VERSION = 1

_HEADER_KEY = "header"
PathLike = Union[str, pathlib.Path]


class TraceFormatError(ValueError):
    """Raised when a file is not a valid serialized trace."""


def _savez(path: pathlib.Path, arrays: dict,
           level: Optional[int]) -> None:
    """The archive ``np.savez_compressed`` writes, at deflate ``level``
    (``None``: zlib's default, which is what ``savez_compressed`` uses)."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED,
                         compresslevel=level) as archive:
        for key, value in arrays.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array(fh, np.asanyarray(value),
                                          allow_pickle=False)


def save_trace(
    trace: Trace, path: PathLike, compresslevel: Optional[int] = None
) -> pathlib.Path:
    """Write ``trace`` to ``path`` (``.npz`` appended if missing).

    The extension is appended to the *name*, never via
    ``Path.with_suffix``: workload names are dotted
    (``spec06.mcf_like.0``), and suffix surgery on multi-dot names
    rewrites the wrong component (e.g. a trailing-dot name collapses).
    ``compresslevel`` picks a deflate level (the per-chunk cache tier
    trades ratio for speed with 1); the default is zlib's.
    """
    path = pathlib.Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    header = {
        "format_version": FORMAT_VERSION,
        "name": trace.name,
        "suite": trace.suite,
        "metadata": trace.metadata,
        "num_instructions": len(trace),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # Write-then-rename: concurrent readers (engine workers sharing a
    # REPRO_TRACE_DIR) must never observe a torn archive.
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    arrays = {
        "pcs": trace.pcs,
        "addrs": trace.addrs,
        "flags": trace.flags,
        _HEADER_KEY: np.frombuffer(
            json.dumps(header).encode("utf-8"), dtype=np.uint8
        ),
    }
    try:
        _savez(tmp, arrays, compresslevel)
        os.replace(tmp, path)
    except BaseException:
        if tmp.exists():
            tmp.unlink()
        raise
    return path


def load_trace(path: PathLike) -> Trace:
    """Read a trace previously written by :func:`save_trace`."""
    path = pathlib.Path(path)
    try:
        with np.load(path) as archive:
            missing = {_HEADER_KEY, "pcs", "addrs", "flags"} - set(
                archive.files
            )
            if missing:
                raise TraceFormatError(
                    f"{path}: missing arrays {sorted(missing)}"
                )
            header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
            pcs = archive["pcs"]
            addrs = archive["addrs"]
            flags = archive["flags"]
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        # np.load raises BadZipFile on torn/truncated archives and
        # KeyError on missing members; both mean "not a valid trace".
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"{path}: not a trace archive ({exc})") from exc

    version = header.get("format_version")
    if version != FORMAT_VERSION:
        raise TraceFormatError(
            f"{path}: format version {version!r}, expected {FORMAT_VERSION}"
        )
    if not (len(pcs) == len(addrs) == len(flags)):
        raise TraceFormatError(f"{path}: array length mismatch")
    if len(pcs) != header.get("num_instructions"):
        raise TraceFormatError(f"{path}: header/array length mismatch")
    return Trace(
        name=header["name"],
        suite=header["suite"],
        pcs=pcs,
        addrs=addrs,
        flags=flags.astype(np.uint8),
        metadata=header.get("metadata") or {},
    )
