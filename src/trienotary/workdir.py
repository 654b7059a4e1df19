"""One deployment's working directory: its layout, its opener and its writer lock.

A workdir holds one deployment's public artifacts:

    chain.log     append-only journal of notarization records
                  (``trienotary.chain``)
    objects.pack  content-addressed storage (trie nodes, proofs), one
                  append-only record file (``trienotary.store``)
    proofs.idx    (ledger key, round) -> proof address index
    ledgers/      ledger exports (the data a producer would disclose)
    config.json   hash algorithm and trie parameters, written at creation;
                  every later open takes them from here only, and only
                  in the form written

``Workdir`` is the one code that names ``chain.log``, ``config.json`` and
``ledgers/``; the store names its own two files. ``Chain`` and
``DirectoryStore`` are single-writer building blocks: each fixes a file's
committed length when it opens it and cuts anything past that length as a
torn tail, so a second writer would cut the first one's committed records.
A writing ``Workdir`` makes the rule hold: it takes an exclusive
``flock`` on the directory itself, before the journal and the store read
their committed lengths, and a second writer, in this process or another,
gets ``WorkdirBusyError``. Locking the directory adds no file to the
layout, and the lock outlives ``create(replace=True)`` deleting the files.
Readers take no lock and see what was committed when they opened the
files (git's ``index.lock`` works the same way).
"""

from __future__ import annotations

import fcntl
import json
import os
import shutil
import warnings
from pathlib import Path

from .chain import Chain
from .crypto import algorithm
from .errors import MalformedArtifactError, WorkdirBusyError, WorkdirExistsError
from .store import PACK_NAME, PROOF_INDEX_NAME, DirectoryStore
from .trie import TrieParams

CHAIN_NAME = "chain.log"
CONFIG_NAME = "config.json"
LEDGER_DIR_NAME = "ledgers"


class Workdir:
    """An open workdir: ``params``, ``chain``, ``store`` and ``ledger_path``.

    ``store`` is opened on first use, so a command that never reads
    storage never scans ``objects.pack``. ``close`` (or leaving a ``with``
    block) commits and closes the store and releases the writer lock, even
    if the commit raises. A reader must not write through ``store``.
    """

    def __init__(self, path: Path, lock: int | None):
        """Use ``Workdir.open`` or ``Workdir.create``; ``lock`` is the held
        lock's descriptor, or None for a reader."""
        self.path = path
        self._lock = lock
        self._store: DirectoryStore | None = None
        try:
            self.params = _read_config(path / CONFIG_NAME)
            self.chain = Chain(path / CHAIN_NAME, self.params.digest_len)
        except BaseException:
            self.close()
            raise

    @classmethod
    def open(cls, path, write: bool = False) -> Workdir:
        """Open an existing workdir; ``write=True`` takes the writer lock.

        Raises FileNotFoundError if it has no ``chain.log``,
        WorkdirBusyError if ``write`` and another writer holds it, and
        MalformedArtifactError if the journal or ``config.json`` does not
        decode."""
        path = Path(path)
        if not (path / CHAIN_NAME).exists():
            raise FileNotFoundError(f"no {CHAIN_NAME} under {path}")
        return cls(path, _lock(path) if write else None)

    @classmethod
    def create(cls, path, params: TrieParams, replace: bool = False) -> Workdir:
        """Make a fresh workdir for ``params`` and open it for writing.

        A directory holding any entry of the layout raises
        WorkdirExistsError, unless ``replace``, which deletes them first; the
        lock is taken before anything is deleted. A stale pack or index left
        without its journal would otherwise be read into the new run."""
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        lock = _lock(path)
        try:
            files = (CHAIN_NAME, PACK_NAME, PROOF_INDEX_NAME, CONFIG_NAME)
            if any(os.path.lexists(path / name) for name in (*files, LEDGER_DIR_NAME)):
                if not replace:
                    raise WorkdirExistsError(f"{path} already holds a simulation")
                for name in files:
                    (path / name).unlink(missing_ok=True)
                shutil.rmtree(path / LEDGER_DIR_NAME, ignore_errors=True)
            (path / LEDGER_DIR_NAME).mkdir(exist_ok=True)
            (path / CONFIG_NAME).write_text(_config_text(params))
        except BaseException:
            os.close(lock)
            raise
        return cls(path, lock)

    @property
    def store(self) -> DirectoryStore:
        if self._store is None:
            self._store = DirectoryStore(self.path, self.params.alg)
        return self._store

    def ledger_path(self, ledger_id: bytes) -> Path:
        """Where the export of ledger ``ledger_id`` lives."""
        return self.path / LEDGER_DIR_NAME / f"{ledger_id.hex()}.ledger"

    def close(self) -> None:
        try:
            if self._store is not None:
                self._store.close()
        finally:
            self._store = None
            if self._lock is not None:
                os.close(self._lock)
                self._lock = None

    def __enter__(self) -> Workdir:
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        if self._store is not None or self._lock is not None:
            warnings.warn(f"unclosed workdir {self.path}", ResourceWarning, source=self)
            if self._lock is not None:
                os.close(self._lock)


def _lock(path: Path) -> int:
    """A descriptor of the directory ``path`` holding its exclusive lock."""
    fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BaseException as exc:
        os.close(fd)
        if isinstance(exc, BlockingIOError):
            raise WorkdirBusyError(f"{path} is already open for writing") from None
        raise
    return fd


def _config_text(params: TrieParams) -> str:
    """The one form of ``config.json``: the form ``create`` writes."""
    config = {"hash": params.alg.name, "r": params.r, "k": params.k}
    return json.dumps(config, sort_keys=True) + "\n"


def _read_config(path: Path) -> TrieParams:
    """The parameters of ``config.json``, which must read exactly as
    ``_config_text`` of them; anything else is a MalformedArtifactError."""
    try:
        text = path.read_bytes().decode("ascii")
        config = json.loads(text)
        params = TrieParams(config["r"], config["k"], algorithm(config["hash"]))
    except KeyError as exc:
        raise MalformedArtifactError(f"{CONFIG_NAME}: missing key {exc}") from None
    # a deeply nested document exhausts json's recursion limit
    except (OSError, ValueError, TypeError, AttributeError, RecursionError) as exc:
        raise MalformedArtifactError(f"{CONFIG_NAME}: {exc}") from None
    if text != _config_text(params):
        raise MalformedArtifactError(f"{CONFIG_NAME}: not in the form a new workdir writes")
    return params
