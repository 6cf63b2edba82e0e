"""Record every ``os.fsync`` a test triggers: which file, and its size.

``FsyncLog(monkeypatch)`` wraps ``os.fsync`` for the rest of the test.
Each call is stored as an :class:`Fsync` (inode, whether the descriptor
is a directory, the file size the fsync covered), so a test can ask
"was this file synced up to byte N before that reply?" or "was the
directory synced after the rename?".
"""

import os
import stat
from dataclasses import dataclass
from typing import List


@dataclass(frozen=True)
class Fsync:
    inode: int
    is_dir: bool
    size: int


class FsyncLog:
    def __init__(self, monkeypatch) -> None:
        self.calls: List[object] = []
        real = os.fsync

        def fsync(fd):
            info = os.fstat(fd)
            self.calls.append(Fsync(info.st_ino, stat.S_ISDIR(info.st_mode), info.st_size))
            return real(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    def of(self, path) -> List[Fsync]:
        """The fsyncs of the file (or directory) now at ``path``."""
        inode = os.stat(path).st_ino
        return [c for c in self.calls if isinstance(c, Fsync) and c.inode == inode]

    def synced_size(self, path) -> int:
        """Largest size of ``path`` any fsync so far has covered."""
        return max((c.size for c in self.of(path)), default=0)
