"""Session persistence: where evicted sessions spill and restore from.

A :class:`SessionStore` holds serialized
:class:`~repro.serve.snapshot.SessionSnapshot` blobs keyed by user id,
with two backends behind one API:

* **memory** (``directory=None``) — blobs in a dict; survives eviction
  but not the process.
* **disk** — one ``session_<user>.nvpt`` file per user under
  ``directory``, published by ``os.replace`` of a temp file, so a
  process crash mid-spill never leaves a truncated snapshot behind.

A disk ``put`` recycles the file its user's previous put displaced, kept
as ``session_<user>.nvpt.spare``: it renames the spare to a temp name of
its own (or creates one when there is none), overwrites it in place and
cuts it to the new length, hard-links the live file aside, renames the
temp file over the live name and the linked-aside file to be the next
spare.  A spill so creates and frees no inode, and a rename over a live
file has no freshly written blocks to force out (ext4's
``auto_da_alloc``).  A spare that has another name — another put's
link, taken while it was live — is not written; that put makes a new
file.  A filesystem that refuses hard links keeps no spare: each put is
a plain atomic replace.

What a reader or a crash sees is the old complete blob or the new one.
Before the publishing rename, the live file is untouched; after it, the
new blob is live and only the spare can be missing.  A crash can leave
the put's temp file (``….tmp``) or the displaced file's second link
(``….old``); neither is a blob — ``user_ids``, ``stats`` and ``get``
never read them — and :meth:`SessionStore.clear` removes them.  A
reader that holds a file open across *two* puts of its user can see the
second write into it; ``get`` reads a blob in one call, an engine puts
and gets under its lock, and the blob's CRC32 refuses a torn read.

On disk a user takes at most two blobs — the live one and one spare —
while ``stats()["bytes"]`` counts the live blobs only.  ``put`` does not
``fsync``, so after a power loss a torn file is possible; the CRC32
refuses it on restore
(:meth:`~repro.serve.snapshot.SessionSnapshot.from_bytes`) and the
engine quarantines it.

The store works on bytes, not sessions: callers
(:class:`~repro.serve.engine.PromptServeEngine` eviction, operators
archiving users, another worker adopting them) decide when to capture
and rebuild.
"""

from __future__ import annotations

import os
from pathlib import Path

__all__ = ["SessionStore"]

_SUFFIX = ".nvpt"
_PREFIX = "session_"
_SPARE = ".spare"


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
        live = self._path(user_id)
        spare = live.with_name(live.name + _SPARE)
        # One token names this put's temp file and the displaced blob's
        # second link, so concurrent puts of one user never share a name.
        token = os.urandom(6).hex()
        tmp = live.with_name(f"{live.name}.{token}.tmp")
        aside = live.with_name(f"{live.name}.{token}.old")
        try:
            with self._claim(spare, tmp) as handle:
                handle.write(blob)
                handle.truncate()
            # Keep the displaced inode for the next put; a filesystem that
            # refuses hard links just frees it, as a plain replace does.
            try:
                os.link(live, aside)
            except OSError:
                aside = None
            # Atomic publish: a reader (or a process crash) sees the old
            # blob or the new one, never a partial write.
            os.replace(tmp, live)
            if aside is not None:
                try:
                    os.replace(aside, spare)
                except OSError:
                    pass        # published all the same; the finally frees it
        finally:
            # Whatever failed, no name of this put outlives it.  (Also a
            # rename onto another link of the same inode, which POSIX makes
            # a no-op that leaves the source in place.)
            tmp.unlink(missing_ok=True)
            if aside is not None:
                aside.unlink(missing_ok=True)

    @staticmethod
    def _claim(spare: Path, tmp: Path):
        """An open, writable handle on ``tmp``: the user's spare file,
        renamed there, or a new one.  A spare with another link (still
        another put's, or left by a crash) is not written: it is dropped
        and a new file made."""
        try:
            os.replace(spare, tmp)
        except OSError:
            pass
        else:
            handle = open(tmp, "r+b")
            if os.fstat(handle.fileno()).st_nlink == 1:
                return handle
            handle.close()
            os.unlink(tmp)
        return os.fdopen(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                                 0o600), "wb")

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
        """Drop one user's blob (and its spare); True if a blob was
        removed."""
        user_id = int(user_id)
        if self._directory is None:
            return self._memory.pop(user_id, None) is not None
        path = self._path(user_id)
        path.with_name(path.name + _SPARE).unlink(missing_ok=True)
        try:
            path.unlink()
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
        path.with_name(path.name + _SPARE).unlink(missing_ok=True)
        try:
            os.replace(path, path.with_name(path.name + ".quarantined"))
            return True
        except FileNotFoundError:
            return False

    def clear(self) -> None:
        """Drop every stored blob, with every spare and every file a
        crashed put left; quarantined blobs stay."""
        for user_id in self.user_ids():
            self.delete(user_id)
        if self._directory is not None:
            for path in self._directory.glob(f"{_PREFIX}*{_SUFFIX}.*"):
                if path.suffix in (_SPARE, ".tmp", ".old"):
                    path.unlink(missing_ok=True)

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
