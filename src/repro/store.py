"""Content-addressed on-disk JSON store.

One store holds every result the toolkit caches on disk: the experiment
runner's :class:`~repro.experiments.runner.RunRecord` documents and the
serve subsystem's finished job artifacts.  Each document is a JSON
object under ``root/<key[:2]>/<key>.json``.  Keys are lowercase hex
digests — the runner's ``sha256(cache_key)[:24]`` and
:func:`repro.serve.wire.job_fingerprint`'s 32 digits — and both embed the
code fingerprint and every cycle-affecting configuration field, so a
lookup never returns a stale result: a source edit makes old documents
unreachable.

Any other key is a miss that never touches the filesystem, so a key
taken from a request cannot name a path outside the root.

Writes go to a temporary file in the shard and :func:`os.replace` it
into place, so any number of processes may store the same key at once
and readers see either nothing or one complete document.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
import threading
from pathlib import Path

__all__ = ["Store"]

log = logging.getLogger(__name__)

_KEY = re.compile(r"[0-9a-f]{1,64}")


class Store:
    """Sharded JSON document store with atomic writes.

    Thread-safe: the serve HTTP handler, scheduler and drain thread all
    touch one store; counters are guarded by a lock and the filesystem
    operations are atomic on their own.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.puts = 0
        self._lock = threading.Lock()

    def _path(self, key: str) -> Path | None:
        """Where *key* lives, or None when it is not a lowercase-hex key."""
        if not _KEY.fullmatch(key):
            return None
        return self.root / key[:2] / f"{key}.json"

    def _miss(self) -> None:
        with self._lock:
            self.misses += 1

    def get(self, key: str) -> dict | None:
        """The document stored under *key*, or None.

        An unreadable or non-object document (torn by a crash on an
        exotic filesystem, or hand-edited) is evicted so it misses
        exactly once.
        """
        path = self._path(key)
        if path is None:
            self._miss()
            return None
        try:
            doc = json.loads(path.read_bytes())
            if not isinstance(doc, dict):
                raise ValueError("document root must be an object")
        except FileNotFoundError:
            self._miss()
            return None
        except (OSError, ValueError):
            log.warning("evicting unreadable document %s", path)
            try:
                path.unlink()
            except OSError:
                pass
            self._miss()
            return None
        with self._lock:
            self.hits += 1
        return doc

    def put(self, key: str, doc: dict) -> None:
        """Store *doc* under *key*; the last concurrent writer wins.

        Best-effort: a full disk or a malformed key degrades callers to
        compute-always, it never fails them.
        """
        path = self._path(key)
        if path is None:
            return
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(doc))
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return
        with self._lock:
            self.puts += 1

    def counters(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "puts": self.puts}
