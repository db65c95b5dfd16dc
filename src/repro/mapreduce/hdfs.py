"""An in-memory stand-in for HDFS.

Multi-job algorithms (FS-Join has three jobs; MassJoin has four) pass
intermediate datasets between jobs through the DFS.  This in-memory version
stores lists of key/value pairs per path and tracks their estimated byte
sizes, so pipelines can account for HDFS write/read volume — the cost that
cripples MassJoin in the paper (105 GB intermediate output for a 1.65 GB
input).

Two robustness features support checkpoint/resume and the chaos harness:

* every write records a **sha256 digest** of its content (over a canonical
  ``repr`` serialization), and :meth:`InMemoryDFS.verify` recomputes it —
  the digest check that lets a resumed pipeline trust (or reject) a
  materialised job output;
* an optional **fault hook** ``(op, path) -> None`` is consulted before
  every operation and may raise :class:`~repro.errors.DFSError` — the
  injection point for simulated read/write failures — while
  :meth:`InMemoryDFS.corrupt` models silent on-disk bit rot (the stored
  pairs change, the recorded digest does not, so ``verify`` fails).
"""

from __future__ import annotations

import hashlib
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import DFSError
from repro.mapreduce.sizer import estimate_pair_size

Pair = Tuple[Any, Any]

#: Fault hook: ``(op, path)`` called before read/write/delete; may
#: raise :class:`DFSError` to fail the operation.
FaultHook = Callable[[str, str], None]


def content_digest(pairs: Iterable[Pair]) -> str:
    """sha256 over a canonical serialization of ``pairs``.

    ``repr`` of the key and value per line: deterministic for the plain
    data (ints, floats, strings, tuples) that flows between jobs, and
    independent of pickling details.
    """
    return _feed(hashlib.sha256(), pairs).hexdigest()


def _feed(hasher, pairs: Iterable[Pair]):
    """Run ``hasher`` on over ``pairs`` in :func:`content_digest`'s
    serialization; returns it."""
    for key, value in pairs:
        hasher.update(repr(key).encode("utf-8"))
        hasher.update(b"\x1f")
        hasher.update(repr(value).encode("utf-8"))
        hasher.update(b"\n")
    return hasher


class InMemoryDFS:
    """Path → list-of-pairs store with byte accounting and digests."""

    def __init__(self, fault_hook: Optional[FaultHook] = None) -> None:
        self._files: Dict[str, List[Pair]] = {}
        self._sizes: Dict[str, int] = {}
        #: path → the sha256 state of everything written to it.  Its
        #: hexdigest is the path's recorded digest; kept as a state so
        #: that an append hashes its chunk and not the file.
        self._hashers: Dict[str, Any] = {}
        #: consulted before every operation; settable after construction so
        #: a chaos schedule can attach to an already-wired pipeline.
        self.fault_hook = fault_hook

    def _check(self, op: str, path: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(op, path)

    def write(self, path: str, pairs: Iterable[Pair], overwrite: bool = False) -> int:
        """Store ``pairs`` at ``path``; returns the estimated byte size.

        Overwrites are atomic-by-convention (write-then-swap): the new
        content is fully materialized and sized *before* the path is
        touched, so a failure while consuming ``pairs`` — a generator
        that raises, a malformed entry — leaves the previous content
        intact.  Disk-side snapshot code
        (:mod:`repro.service.snapshot`) follows the same discipline with
        a temp file plus :func:`os.replace`.
        """
        self._check("write", path)
        if path in self._files and not overwrite:
            raise DFSError(f"path already exists: {path!r}")
        data = list(pairs)
        size = sum(estimate_pair_size(k, v) for k, v in data)
        hasher = _feed(hashlib.sha256(), data)
        # Commit point: nothing above may mutate the store.
        self._files[path] = data
        self._sizes[path] = size
        self._hashers[path] = hasher
        return size

    def append(self, path: str, pairs: Iterable[Pair]) -> int:
        """Append ``pairs`` to ``path`` (creating it if absent); returns the
        estimated byte size of the appended chunk.

        Appends are atomic: the chunk is fully materialized, sized and
        hashed *before* the store is touched, so a failure while consuming
        ``pairs`` — or an injected fault from the hook, consulted first —
        leaves the existing content, size and digest byte-identical.
        A torn write can therefore only come from a crash *between* two
        append calls (e.g. records appended, commit marker not), which is
        exactly the failure the WAL replay protocol must tolerate.

        An append costs its chunk.  The digest runs on: every path keeps
        the sha256 state of what was written to it, and an append feeds
        the chunk to a copy of that state and publishes it at the commit
        point — byte-equal to ``content_digest(read(path))`` without
        re-serializing what is already there.  The stored list is
        replaced, not extended (a C-speed copy), so a list :meth:`read`
        returned earlier does not grow under its reader.

        The recorded digest therefore continues from what was *written*,
        not from what is stored: after :meth:`corrupt`, appends keep
        :meth:`verify` false instead of re-deriving a digest that blesses
        the damage.
        """
        self._check("append", path)
        chunk = list(pairs)
        existing = self._files.get(path, [])
        size = sum(estimate_pair_size(k, v) for k, v in chunk)
        written = self._hashers.get(path)
        hasher = _feed(
            hashlib.sha256() if written is None else written.copy(), chunk
        )
        # Commit point: nothing above may mutate the store.
        self._files[path] = existing + chunk
        self._sizes[path] = self._sizes.get(path, 0) + size
        self._hashers[path] = hasher
        return size

    def read(self, path: str) -> List[Pair]:
        """Return the pairs stored at ``path``."""
        self._check("read", path)
        try:
            return self._files[path]
        except KeyError:
            raise DFSError(f"no such path: {path!r}") from None

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        """Remove ``path``; raises if absent."""
        self._check("delete", path)
        if path not in self._files:
            raise DFSError(f"no such path: {path!r}")
        del self._files[path]
        del self._sizes[path]
        del self._hashers[path]

    def size_bytes(self, path: str) -> int:
        """Estimated serialized size of the file at ``path``."""
        try:
            return self._sizes[path]
        except KeyError:
            raise DFSError(f"no such path: {path!r}") from None

    # -- integrity -----------------------------------------------------
    def digest(self, path: str) -> str:
        """The sha256 of what was written to ``path``, appends included."""
        try:
            return self._hashers[path].hexdigest()
        except KeyError:
            raise DFSError(f"no such path: {path!r}") from None

    def verify(self, path: str) -> bool:
        """Recompute ``path``'s digest and compare to the recorded one.

        ``False`` means the stored content no longer matches what was
        written — the file was corrupted in place (:meth:`corrupt`, or any
        out-of-band mutation of the returned lists).
        """
        return content_digest(self.read(path)) == self.digest(path)

    def corrupt(self, path: str) -> None:
        """Simulate silent bit rot: perturb the stored pairs in place.

        The recorded digest is deliberately left stale, so the damage is
        invisible to ``exists``/``read`` and only :meth:`verify` (the
        resume path's checkpoint validation) can detect it.
        """
        if path not in self._files:
            raise DFSError(f"no such path: {path!r}")
        data = self._files[path]
        if data:
            key, value = data[0]
            data[0] = (key, ("\x00bitflip", value))
        else:
            data.append(("\x00bitflip", 1))

    def list_prefix(self, prefix: str) -> List[str]:
        """Sorted paths starting with ``prefix`` (a directory-listing stand-in).

        Lexicographic order doubles as chronological order for the WAL's
        zero-padded segment names, so replay can walk segments without a
        separate catalogue file.
        """
        return sorted(p for p in self._files if p.startswith(prefix))
