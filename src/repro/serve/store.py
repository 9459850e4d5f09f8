"""Session persistence: where evicted sessions spill and restore from.

A :class:`SessionStore` holds serialized
:class:`~repro.serve.snapshot.SessionSnapshot` blobs keyed by user id,
with two backends behind one API:

* **memory** (``directory=None``) — blobs in a dict; survives eviction
  but not the process.
* **disk** — one ``session_<user>.nvpt`` file per user under
  ``directory``; writes go through a temp file and ``os.replace`` so a
  process crash mid-spill never leaves a truncated snapshot behind.
  ``put`` does not ``fsync``, so after a power loss a torn file is
  possible; the blob's CRC32 refuses it on restore
  (:meth:`~repro.serve.snapshot.SessionSnapshot.from_bytes`) and the
  engine quarantines it.

The store works on bytes, not sessions: callers
(:class:`~repro.serve.engine.PromptServeEngine` eviction, operators
archiving users, another worker adopting them) decide when to capture
and rebuild.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["SessionStore"]

_SUFFIX = ".nvpt"
_PREFIX = "session_"


class SessionStore:
    """Keyed blob storage for serialized session snapshots."""

    def __init__(self, directory: str | os.PathLike | None = None):
        self._memory: dict[int, bytes] = {}
        self._directory: Path | None = None
        if directory is not None:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        return "memory" if self._directory is None else "disk"

    @property
    def directory(self) -> Path | None:
        return self._directory

    def _path(self, user_id: int) -> Path:
        return self._directory / f"{_PREFIX}{int(user_id)}{_SUFFIX}"

    # ------------------------------------------------------------------
    def put(self, user_id: int, blob: bytes) -> None:
        """Store (or overwrite) one user's snapshot blob."""
        user_id = int(user_id)
        if self._directory is None:
            self._memory[user_id] = bytes(blob)
            return
        # Atomic publish: a reader (or a process crash) sees the old blob
        # or the new one, never a partial write.
        fd, tmp_name = tempfile.mkstemp(dir=self._directory,
                                        prefix=f"{_PREFIX}{user_id}.",
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp_name, self._path(user_id))
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def get(self, user_id: int) -> bytes | None:
        """The user's stored blob, or None if they were never spilled."""
        user_id = int(user_id)
        if self._directory is None:
            return self._memory.get(user_id)
        try:
            return self._path(user_id).read_bytes()
        except FileNotFoundError:
            return None

    def delete(self, user_id: int) -> bool:
        """Drop one user's blob; True if something was removed."""
        user_id = int(user_id)
        if self._directory is None:
            return self._memory.pop(user_id, None) is not None
        try:
            self._path(user_id).unlink()
            return True
        except FileNotFoundError:
            return False

    def quarantine(self, user_id: int) -> bool:
        """Move a blob that does not restore out of the store's sight;
        True if there was one.  On disk it stays, for whoever asks why,
        as ``session_<user>.nvpt.quarantined``; memory just drops it."""
        if self._directory is None:
            return self.delete(user_id)
        path = self._path(int(user_id))
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> None:
        """Drop every stored blob."""
        for user_id in self.user_ids():
            self.delete(user_id)

    # ------------------------------------------------------------------
    def __contains__(self, user_id: int) -> bool:
        if self._directory is None:
            return int(user_id) in self._memory
        return self._path(int(user_id)).exists()

    def __len__(self) -> int:
        return len(self.user_ids())

    def user_ids(self) -> list[int]:
        """Ids with a stored snapshot, ascending."""
        if self._directory is None:
            return sorted(self._memory)
        ids = []
        for path in self._directory.glob(f"{_PREFIX}*{_SUFFIX}"):
            core = path.name[len(_PREFIX):-len(_SUFFIX)]
            try:
                ids.append(int(core))
            except ValueError:
                continue
        return sorted(ids)

    def stats(self) -> dict:
        """Backend, resident snapshot count, and total stored bytes."""
        if self._directory is None:
            sizes = [len(blob) for blob in self._memory.values()]
        else:
            # One directory scan per call: this runs under the engine lock.
            sizes = []
            for user_id in self.user_ids():
                try:
                    sizes.append(self._path(user_id).stat().st_size)
                except FileNotFoundError:
                    continue
        return {"backend": self.backend, "sessions": len(sizes),
                "bytes": sum(sizes)}
