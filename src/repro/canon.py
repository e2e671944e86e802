"""Canonical JSON, its digest, and the content-addressed file store.

Every byte-identity gate in the tree — plan digests, fleet and explore
reports, trace exports, cache keys — rests on one encoding: key-sorted,
fixed separators, NaN rejected. This leaf module (it imports nothing from
``repro``) is the only place that spells it out.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import threading
from pathlib import Path
from typing import Optional


def canonical_json(doc, newline: bool = True) -> str:
    """Canonical JSON: key-sorted, fixed separators, trailing newline
    (``newline=False``: the bare form of cache keys and JSONL rows)."""
    text = json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return text + "\n" if newline else text


def canonical_sha256(doc) -> str:
    """SHA-256 hex digest of the bare canonical encoding (a cache key)."""
    text = canonical_json(doc, newline=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ContentStore:
    """JSON documents at ``<root>/<key[:2]>/<key>.json`` under hex keys.

    Writes are atomic (temp file + ``os.replace``, the temp name unique per
    process and thread). A missing, unreadable or torn entry loads as
    ``None`` and gets rewritten; on an unwritable or full directory
    :meth:`store` does nothing, so the owner keeps the result it just
    computed and only loses persistence. ``root=None`` disables the store.
    """

    def __init__(self, root) -> None:
        self.root = Path(root) if root else None

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def load(self, key: str) -> Optional[dict]:
        if self.root is None:
            return None
        try:
            data = json.loads(self._path(key).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        return data if isinstance(data, dict) else None

    def store(self, key: str, document: dict) -> None:
        if self.root is None:
            return
        path = self._path(key)
        body = canonical_json(document)
        tmp = path.with_suffix(f".tmp.{os.getpid()}.{threading.get_ident()}")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(body, encoding="utf-8")
            os.replace(tmp, path)
        except OSError:
            # A failed write or replace must not strand the temp file; an
            # unreachable directory (ENOTDIR, EACCES) has none to remove.
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)


__all__ = ["ContentStore", "canonical_json", "canonical_sha256"]
