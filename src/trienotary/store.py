"""Content-addressed object storage plus the consistency-proof index.

The store stands in for the publicly accessible storage that holds trie
nodes and consistency proofs. Every object is addressed by the hash of its
content, and reads re-verify that invariant, so the storage itself is
untrusted: corruption surfaces as an integrity error, never as silently
wrong bytes.

Proofs are discovered through a (ledger key, round) index mapping to the
address of the proof published for that notarization round.

Two backends share the interface: an in-memory map for tests and
simulation, and a directory layout ``objects/<first-2-hex>/<remaining-hex>``
with a newline-delimited ``proofs.idx`` for on-disk deployments.
"""

from __future__ import annotations

import os
from pathlib import Path

from .crypto import HashAlg, SHA256
from .errors import IntegrityError, MalformedArtifactError, NotFoundError, ProofIndexConflictError

PROOF_INDEX_NAME = "proofs.idx"
OBJECTS_DIR_NAME = "objects"


class ObjectStore:
    """Interface shared by the storage backends."""

    alg: HashAlg

    def put(self, content: bytes) -> bytes:
        """Store ``content``; returns its address (idempotent)."""
        raise NotImplementedError

    def get(self, address: bytes) -> bytes:
        """Content stored at ``address``; raises NotFoundError / IntegrityError."""
        raise NotImplementedError

    def __contains__(self, address: bytes) -> bool:
        try:
            self.get(address)
        except (NotFoundError, IntegrityError):
            return False
        return True

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        """Register the proof published for (ledger, round)."""
        raise NotImplementedError

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        """Address of the proof for (ledger, round), or None."""
        raise NotImplementedError

    def corrupt(self, address: bytes) -> None:
        """Test hook: damage the object at ``address`` so ``get`` fails its
        check. Damaged bytes are left alone, so a second call cannot undo it."""
        raise NotImplementedError


class MemoryStore(ObjectStore):
    """Dict-backed store; ``puts`` counts write calls for sharing assertions."""

    def __init__(self, alg: HashAlg = SHA256):
        self.alg = alg
        self._objects: dict[bytes, bytes] = {}
        self._proofs: dict[tuple[bytes, int], bytes] = {}
        self.puts = 0

    def __len__(self) -> int:
        return len(self._objects)

    def put(self, content: bytes) -> bytes:
        self.puts += 1
        address = self.alg.hash(content)
        self._objects.setdefault(address, content)
        return address

    def get(self, address: bytes) -> bytes:
        try:
            content = self._objects[address]
        except KeyError:
            raise NotFoundError(f"no object at {address.hex()}") from None
        if self.alg.hash(content) != address:
            raise IntegrityError(f"object at {address.hex()} fails verification")
        return content

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        slot = (ledger_key, round_seq)
        existing = self._proofs.get(slot)
        if existing is not None and existing != address:
            raise ProofIndexConflictError(
                f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
            )
        self._proofs[slot] = address

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        return self._proofs.get((ledger_key, round_seq))

    def corrupt(self, address: bytes) -> None:
        content = self._objects[address]
        if self.alg.hash(content) == address:
            self._objects[address] = bytes([content[0] ^ 0xFF]) + content[1:]


class DirectoryStore(ObjectStore):
    """Filesystem store: ``objects/ab/cdef...`` files plus ``proofs.idx``.

    Index lines are ``<hex ledger key> <decimal round> <hex address>`` with
    LF endings, appended in registration order.
    """

    def __init__(self, root, alg: HashAlg = SHA256):
        self.alg = alg
        self.root = Path(root)
        self._objects_dir = self.root / OBJECTS_DIR_NAME
        self._index_path = self.root / PROOF_INDEX_NAME
        self._objects_dir.mkdir(parents=True, exist_ok=True)
        self._proofs: dict[tuple[bytes, int], bytes] = {}
        if self._index_path.exists():
            for number, line in enumerate(self._index_path.read_bytes().splitlines(), 1):
                try:
                    key_hex, round_str, addr_hex = line.decode("ascii").split(" ")
                    slot = (bytes.fromhex(key_hex), int(round_str))
                    address = bytes.fromhex(addr_hex)
                except ValueError:
                    raise MalformedArtifactError(
                        f"{self._index_path}:{number}: malformed proof index entry"
                    ) from None
                self._proofs[slot] = address

    def _path_for(self, address: bytes) -> Path:
        hex_addr = address.hex()
        return self._objects_dir / hex_addr[:2] / hex_addr[2:]

    def put(self, content: bytes) -> bytes:
        address = self.alg.hash(content)
        path = self._path_for(address)
        if not path.exists():
            tmp = path.with_name(path.name + ".tmp")
            try:
                tmp.write_bytes(content)
            except FileNotFoundError:  # first object under this fan-out directory
                path.parent.mkdir(exist_ok=True)
                tmp.write_bytes(content)
            os.replace(tmp, path)
        return address

    def get(self, address: bytes) -> bytes:
        path = self._path_for(address)
        try:
            content = path.read_bytes()
        except FileNotFoundError:
            raise NotFoundError(f"no object at {address.hex()}") from None
        if self.alg.hash(content) != address:
            raise IntegrityError(f"object at {address.hex()} fails verification")
        return content

    def index_proof(self, ledger_key: bytes, round_seq: int, address: bytes) -> None:
        slot = (ledger_key, round_seq)
        existing = self._proofs.get(slot)
        if existing is not None:
            if existing != address:
                raise ProofIndexConflictError(
                    f"proof for ({ledger_key.hex()}, {round_seq}) already registered"
                )
            return
        with open(self._index_path, "a", encoding="ascii", newline="\n") as fh:
            fh.write(f"{ledger_key.hex()} {round_seq} {address.hex()}\n")
        self._proofs[slot] = address

    def find_proof(self, ledger_key: bytes, round_seq: int) -> bytes | None:
        return self._proofs.get((ledger_key, round_seq))

    def corrupt(self, address: bytes) -> None:
        path = self._path_for(address)
        content = path.read_bytes()
        if self.alg.hash(content) == address:
            path.write_bytes(bytes([content[0] ^ 0xFF]) + content[1:])
