"""Content-addressed storage backends and the proof index."""

from __future__ import annotations

import random
import shutil
from pathlib import Path

import pytest

from trienotary.crypto import SHA256
from trienotary.errors import IntegrityError, NotFoundError, ProofIndexConflictError
from trienotary.store import DirectoryStore, MemoryStore


@pytest.fixture(params=["memory", "directory"])
def store(request, tmp_path):
    if request.param == "memory":
        return MemoryStore(SHA256)
    return DirectoryStore(tmp_path / "store", SHA256)


def test_put_get_round_trip(store):
    rng = random.Random(1)
    for size in (0, 1, 100, 1 << 20):
        content = rng.randbytes(size)
        address = store.put(content)
        assert address == SHA256.hash(content)
        assert store.get(address) == content


def test_put_is_idempotent(store):
    a = store.put(b"same bytes")
    b = store.put(b"same bytes")
    assert a == b
    if isinstance(store, MemoryStore):
        assert len(store) == 1


def test_empty_content_address(store):
    assert store.put(b"") == SHA256.hash(b"")


def test_unknown_address_not_found(store):
    with pytest.raises(NotFoundError):
        store.get(SHA256.hash(b"never stored"))
    assert SHA256.hash(b"never stored") not in store
    address = store.put(b"stored")
    assert address in store


def test_proof_index_round_trip(store):
    key = SHA256.hash(b"ledger-id")
    address = store.put(b"proof bytes")
    assert store.find_proof(key, 3) is None
    store.index_proof(key, 3, address)
    assert store.find_proof(key, 3) == address
    assert store.find_proof(key, 4) is None
    store.index_proof(key, 3, address)  # same registration is a no-op
    with pytest.raises(ProofIndexConflictError):
        store.index_proof(key, 3, store.put(b"different proof"))


def test_corruption_detected_and_never_undone(store):
    address = store.put(b"precious bytes")
    for _ in range(3):  # a second flip of the same byte would restore the object
        store.corrupt(address)
        with pytest.raises(IntegrityError):
            store.get(address)
        assert address not in store


def test_directory_layout_and_index_format(tmp_path):
    store = DirectoryStore(tmp_path / "s", SHA256)
    address = store.put(b"x")
    hex_addr = address.hex()
    assert (tmp_path / "s" / "objects" / hex_addr[:2] / hex_addr[2:]).is_file()
    key = SHA256.hash(b"lid")
    store.index_proof(key, 0, address)
    store.index_proof(key, 2, address)
    content = (tmp_path / "s" / "proofs.idx").read_bytes()
    assert content == (
        f"{key.hex()} 0 {hex_addr}\n{key.hex()} 2 {hex_addr}\n".encode("ascii")
    )


def test_directory_store_reload(tmp_path):
    root = tmp_path / "s"
    store = DirectoryStore(root, SHA256)
    address = store.put(b"persisted")
    key = SHA256.hash(b"lid")
    store.index_proof(key, 1, address)
    reopened = DirectoryStore(root, SHA256)
    assert reopened.get(address) == b"persisted"
    assert reopened.find_proof(key, 1) == address


def test_directory_put_creates_a_missing_fan_out_directory(tmp_path, monkeypatch):
    store = DirectoryStore(tmp_path / "s", SHA256)
    first = store.put(b"first")
    fan_out = store._path_for(first).parent
    shutil.rmtree(fan_out)  # missing at put time, as before the first object under it
    made = []
    real_mkdir = Path.mkdir

    def counting_mkdir(path, *args, **kwargs):
        made.append(path)
        return real_mkdir(path, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    assert store.put(b"first") == first
    assert made == [fan_out]
    assert store.get(first) == b"first"
    assert list(fan_out.iterdir()) == [store._path_for(first)]  # no temp file left
    made.clear()
    # a second object under the same fan-out directory needs no mkdir
    content = next(
        c for c in (b"%d" % i for i in range(10_000))
        if SHA256.hash(c)[:1] == first[:1] and c != b"first"
    )
    assert store.put(content) == SHA256.hash(content)
    assert made == []
    assert store.get(SHA256.hash(content)) == content
