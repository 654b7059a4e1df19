"""The audit-bundle wire form: the decoder against the cursor decoder it
replaced, the repeated-round rule, bundles that are not canonical, and the
exit code of CLI ``verify`` on a bundle with one byte flipped.

``ref_decode`` is ``decode_audit_proof`` as it stood before the one-pass
decoder: one method call per field, each section sliced out and read by
its own cursor. The new decoder must return what it returns and raise the
same ``ValueError`` message where it raises, with two exceptions that
``ref_decode`` accepted and the new decoder refuses: bytes left over at
the end of a section, which ``ref_decode(data, strict=True)`` refuses at
the same point of its reading, and a bundle listing one round twice with
different proofs.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from harness import run_history
from trienotary.audit import (
    AuditProof,
    Status,
    decode_audit_proof,
    encode_audit_proof,
    make_audit_proof,
    verify_audit_proof,
)
from trienotary.cli import main
from trienotary.crypto import SHA256, SHA512, algorithm_by_wire_id
from trienotary.trie import TrieParams

ALG = SHA256


class _Cursor:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError("truncated audit proof")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "little")


def _spent(section: _Cursor, name: str) -> None:
    if section.pos != len(section.data):
        left = len(section.data) - section.pos
        raise ValueError(f"{left} bytes left over in the {name} section of the audit proof")


def ref_decode(data: bytes, strict: bool = False) -> AuditProof:
    outer = _Cursor(data)
    header = _Cursor(outer.take(outer.u32()))
    alg = algorithm_by_wire_id(header.take(1)[0])
    r = int.from_bytes(header.take(2), "little")
    k = int.from_bytes(header.take(2), "little")
    up_to_round = header.u64()
    ledger_key = header.take(alg.output_len)
    try:
        params = TrieParams(r, k, alg)
    except ValueError as exc:
        raise ValueError(f"invalid parameters in audit proof: {exc}") from None
    if strict:
        _spent(header, "header")

    nodes_section = _Cursor(outer.take(outer.u32()))
    nodes = []
    for _ in range(nodes_section.u32()):
        nodes.append(nodes_section.take(nodes_section.u32()))
    if strict:
        _spent(nodes_section, "node")

    proofs_section = _Cursor(outer.take(outer.u32()))
    proofs = []
    for _ in range(proofs_section.u32()):
        round_seq = proofs_section.u64()
        proofs.append((round_seq, proofs_section.take(proofs_section.u32())))
    if strict:
        _spent(proofs_section, "proof")
    if outer.pos != len(data):
        raise ValueError("trailing bytes after audit proof")
    return AuditProof(ledger_key, up_to_round, params, tuple(nodes), tuple(proofs))


def u32(n: int) -> bytes:
    return n.to_bytes(4, "little")


def sections(blob: bytes) -> list[bytes]:
    """The three length-framed sections of a well-formed bundle, frames included."""
    out, pos = [], 0
    while pos < len(blob):
        end = pos + 4 + int.from_bytes(blob[pos:pos + 4], "little")
        out.append(blob[pos:end])
        pos = end
    return out


@cache
def honest_history():
    return run_history(
        31, n_ledgers=6, rounds=4, params=TrieParams(4, 2, ALG), p_append=1.0
    )


@cache
def honest_bundles() -> tuple[bytes, ...]:
    history = honest_history()
    roots = history.chain.read_roots()
    return tuple(
        encode_audit_proof(make_audit_proof(lid, up_to, roots, history.store, history.params))
        for lid in (b"ledger-0", b"ledger-3", b"ghost")
        for up_to in (0, len(roots) - 1)
    )


def with_proofs(proof: AuditProof, proofs) -> bytes:
    return encode_audit_proof(replace(proof, proofs=tuple(proofs)))


# ------------------------------------------------------- mutations of a bundle

def _flip(blob, draw):
    position = draw(st.integers(0, len(blob) - 1))
    mutated = bytearray(blob)
    mutated[position] ^= draw(st.integers(1, 255))
    return bytes(mutated)


def _truncate(blob, draw):
    return blob[:draw(st.integers(0, len(blob) - 1))]


def _extend(blob, draw):
    return blob + draw(st.binary(min_size=1, max_size=24))


def _splice(blob, draw):
    # a range of the bundle replaced by a range of another honest bundle
    other = draw(st.sampled_from(honest_bundles()))
    a, b = sorted(draw(st.lists(st.integers(0, len(blob)), min_size=2, max_size=2)))
    c, d = sorted(draw(st.lists(st.integers(0, len(other)), min_size=2, max_size=2)))
    return blob[:a] + other[c:d] + blob[b:]


def _duplicate_section(blob, draw):
    parts = sections(blob)
    if not parts:
        return blob
    index = draw(st.integers(0, len(parts) - 1))
    parts.insert(index, parts[index])
    return b"".join(parts)


def _duplicate_entry(blob, draw):
    # one node or proof entry listed twice, counts and frames kept consistent;
    # a proof may come back with another blob, as a conflicting repeat
    try:
        proof = ref_decode(blob)
    except ValueError:
        return blob
    if not proof.nodes:
        return blob
    if proof.proofs and draw(st.booleans()):
        round_seq, data = draw(st.sampled_from(proof.proofs))
        if draw(st.booleans()):
            data = _flip(data, draw)
        proofs = list(proof.proofs)
        proofs.insert(draw(st.integers(0, len(proofs))), (round_seq, data))
        return with_proofs(proof, proofs)
    nodes = list(proof.nodes)
    nodes.insert(draw(st.integers(0, len(nodes))), draw(st.sampled_from(nodes)))
    return encode_audit_proof(replace(proof, nodes=tuple(nodes)))


def _overcount(blob, draw):
    # a node or proof count raised, up to what no section could hold
    parts = sections(blob)
    if len(parts) != 3:
        return blob
    index = draw(st.sampled_from([1, 2]))
    count = draw(st.sampled_from([2**32 - 1, 2**31, 1000]))
    parts[index] = parts[index][:4] + u32(count) + parts[index][8:]
    return b"".join(parts)


def _length_fields(blob: bytes) -> list[int]:
    """Offsets of every u32 length and count of a canonical bundle."""
    def read(at: int) -> int:
        return int.from_bytes(blob[at:at + 4], "little")

    fields = [0]
    pos = 4 + read(0)  # past the header
    for entry_head in (4, 12):  # node: u32 length; proof: u64 round, u32 length
        fields += [pos, pos + 4]  # section length, entry count
        at = pos + 8
        for _ in range(read(pos + 4)):
            fields.append(at + entry_head - 4)
            at += entry_head + read(at + entry_head - 4)
        pos = at
    return fields


def _off_by_one(blob, draw):
    # one length or count field one more or one less than what it frames
    try:
        canonical = encode_audit_proof(ref_decode(blob)) == blob
    except ValueError:
        canonical = False
    if not canonical:
        return blob
    at = draw(st.sampled_from(_length_fields(blob)))
    value = (int.from_bytes(blob[at:at + 4], "little") + draw(st.sampled_from([1, -1]))) % 2**32
    return blob[:at] + u32(value) + blob[at + 4:]


MUTATIONS = [_flip, _truncate, _extend, _splice, _duplicate_section, _duplicate_entry,
             _overcount, _off_by_one]


def assert_decodes_like_reference(blob: bytes) -> None:
    try:
        expected = ref_decode(blob, strict=True)
    except ValueError as exc:
        event(f"refused: {str(exc).split(' ')[0]}")
        with pytest.raises(ValueError) as raised:
            decode_audit_proof(blob)
        assert str(raised.value) == str(exc)
        return
    rounds: dict[int, bytes] = {}
    conflicts = [r for r, data in expected.proofs if rounds.setdefault(r, data) != data]
    event("conflicting repeat" if conflicts else "decoded")
    if conflicts:
        with pytest.raises(ValueError, match=f"lists round {conflicts[0]} twice"):
            decode_audit_proof(blob)
    else:
        assert decode_audit_proof(blob) == replace(expected, proofs=tuple(rounds.items()))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(MUTATIONS))
def test_decoder_agrees_with_reference_on_mutated_bundles(data, mutation):
    blob = data.draw(st.sampled_from(honest_bundles()))
    for _ in range(data.draw(st.integers(1, 2))):
        if blob:
            blob = mutation(blob, data.draw)
    assert_decodes_like_reference(blob)


@st.composite
def framed_bytes(draw):
    """Three length-framed sections of drawn content, mostly consistent:
    a count, a length or a header may be off by one, and rounds repeat."""
    skew = st.sampled_from([0] * 12 + [1, -1])

    def framed(payload: bytes) -> bytes:
        return u32(max(len(payload) + draw(skew), 0)) + payload

    def listed(entries: list[bytes]) -> bytes:
        return u32(max(len(entries) + draw(skew), 0)) + b"".join(entries)

    header = (
        bytes([draw(st.sampled_from([1, 1, 2, 9]))])
        + draw(st.sampled_from([4, 4, 3, 256])).to_bytes(2, "little")
        + draw(st.sampled_from([2, 2, 0, 257])).to_bytes(2, "little")
        + draw(st.binary(min_size=8, max_size=8))
        + draw(st.sampled_from([b"\x07" * 32, b"\x07" * 64, b"\x07" * 31]))
    )
    blobs = st.binary(max_size=3)
    nodes = listed([framed(draw(blobs)) for _ in range(draw(st.integers(0, 3)))])
    proofs = listed([
        draw(st.integers(0, 2)).to_bytes(8, "little") + framed(draw(blobs))
        for _ in range(draw(st.integers(0, 3)))
    ])
    tail = draw(st.sampled_from([b"", b"", b"\x00"]))
    return b"".join(framed(part) for part in (header, nodes, proofs)) + tail


@settings(max_examples=400, deadline=None)
@given(blob=st.one_of(st.binary(max_size=200), framed_bytes()))
def test_decoder_agrees_with_reference_on_arbitrary_bytes(blob):
    assert_decodes_like_reference(blob)


@st.composite
def audit_proofs(draw):
    """Bundles of empty, short and long nodes, and proofs at distinct rounds
    up to 2**64 - 1."""
    alg = draw(st.sampled_from([SHA256, SHA512]))
    params = TrieParams(draw(st.sampled_from([2, 4, 16, 256])), draw(st.integers(1, 256)), alg)
    long = st.integers(256, 70_000).map(lambda n: bytes([n % 251]) * n)
    blob = st.one_of(st.just(b""), st.binary(min_size=1, max_size=40), long)
    rounds = draw(st.lists(st.integers(0, 2**64 - 1), unique=True, max_size=5))
    return AuditProof(
        ledger_key=draw(st.binary(min_size=alg.output_len, max_size=alg.output_len)),
        up_to_round=draw(st.integers(0, 2**64 - 1)),
        params=params,
        nodes=tuple(draw(st.lists(blob, max_size=6))),
        proofs=tuple((round_seq, draw(blob)) for round_seq in rounds),
    )


@settings(max_examples=200, deadline=None)
@given(proof=audit_proofs())
def test_encoder_and_decoder_agree_with_reference(proof):
    blob = encode_audit_proof(proof)
    assert ref_decode(blob) == proof
    assert decode_audit_proof(blob) == proof


def test_honest_bundles_round_trip():
    for blob in honest_bundles():
        assert decode_audit_proof(blob) == ref_decode(blob)
        assert encode_audit_proof(decode_audit_proof(blob)) == blob


def test_a_count_no_section_can_hold_fails_at_once():
    header = sections(honest_bundles()[0])[0]
    empty = u32(4) + u32(0)
    with pytest.raises(ValueError, match="truncated audit proof"):
        decode_audit_proof(header + u32(4) + u32(2**32 - 1) + empty)
    with pytest.raises(ValueError, match="truncated audit proof"):
        decode_audit_proof(header + empty + u32(4) + u32(2**32 - 1))
    # room for a thousand empty nodes: refused before the first is read
    nodes = u32(2**32 - 1) + u32(0) * 1000
    blob = ReadCounting(header + u32(len(nodes)) + nodes + empty)
    with pytest.raises(ValueError, match="truncated audit proof"):
        decode_audit_proof(blob)
    assert blob.reads < 20


class ReadCounting(bytes):
    """Bytes that count the reads (indexing and slicing) made of them."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


# ------------------------------------------------- bytes left over in a section

def padded(blob: bytes, index: int) -> bytes:
    """``blob`` with 5 junk bytes after the contents of section ``index``, framed to hold them."""
    parts = sections(blob)
    parts[index] = u32(len(parts[index]) + 1) + parts[index][4:] + b"\xaa" * 5
    return b"".join(parts)


@pytest.mark.parametrize("index, name", [(0, "header"), (1, "node"), (2, "proof")])
def test_bytes_left_over_in_a_section_are_refused(index, name):
    # The cursor decoder skipped them, so the padded bundle decoded equal
    # to the honest one and verified.
    _, _, proof, _ = _changed_round_bundle()
    blob = padded(encode_audit_proof(proof), index)
    assert ref_decode(blob) == proof
    with pytest.raises(ValueError) as raised:
        decode_audit_proof(blob)
    assert str(raised.value) == f"5 bytes left over in the {name} section of the audit proof"


def test_cli_verify_of_a_padded_bundle_is_inconclusive(tmp_path, capsys):
    workdir = tmp_path / "run"
    assert main([
        "simulate", "--workdir", str(workdir), "--ledgers", "6", "--rounds", "4",
        "--append-rate", "1.0", "--seed", "11",
    ]) == 0
    proof_file = tmp_path / "l2.proof"
    assert main(["prove", "ledger-2", "--workdir", str(workdir), "--out", str(proof_file)]) == 0
    proof_file.write_bytes(padded(proof_file.read_bytes(), 1))
    capsys.readouterr()
    code = main(["verify", "ledger-2", "--proof", str(proof_file), "--workdir", str(workdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "inconclusive: unreadable audit proof "
        "(5 bytes left over in the node section of the audit proof)\n"
    )


# ------------------------------------------- CLI verify of a flipped bundle

# In a bundle file, the header section's frame and its alg, r and k fields
# take 9 bytes; up_to_round, 8 bytes little-endian, follows them.
_UP_TO_ROUND = slice(9, 17)


@pytest.fixture(scope="module")
def cli_bundle(tmp_path_factory):
    """A seeded 6-ledger, 4-round workdir and its honest ``ledger-2`` bundle."""
    tmp = tmp_path_factory.mktemp("flips")
    workdir = tmp / "run"
    with redirect_stdout(io.StringIO()):
        assert main([
            "simulate", "--workdir", str(workdir), "--ledgers", "6", "--rounds", "4",
            "--append-rate", "1.0", "--seed", "11",
        ]) == 0
        proof_file = tmp / "l2.proof"
        assert main(["prove", "ledger-2", "--workdir", str(workdir), "--out", str(proof_file)]) == 0
    return workdir, proof_file, proof_file.read_bytes()


def verify_flipped(cli_bundle, position: int, mask: int) -> int:
    """``verify`` of the honest bundle with ``mask`` flipped into one byte.

    Every flip exits 0, 1 or 2 and raises nothing; a flip in the node or
    proof section never exits 0; the only exit 0 is a lowered
    ``up_to_round``, whose later rounds ``verify`` reports as not covered.
    """
    workdir, proof_file, honest = cli_bundle
    flipped = bytearray(honest)
    flipped[position] ^= mask
    proof_file.write_bytes(flipped)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(["verify", "ledger-2", "--proof", str(proof_file), "--workdir", str(workdir)])
    assert code in (0, 1, 2)
    if position >= len(sections(honest)[0]):
        assert code in (1, 2)
    if code == 0:
        lowered = int.from_bytes(flipped[_UP_TO_ROUND], "little")
        assert lowered < int.from_bytes(honest[_UP_TO_ROUND], "little")
        assert "not covered" in out.getvalue()
    return code


def test_cli_verify_of_a_bundle_with_a_header_bit_flipped(cli_bundle):
    header = len(sections(cli_bundle[2])[0])
    codes = [verify_flipped(cli_bundle, position, 0x01) for position in range(header)]
    # round 3 becomes round 2
    assert [p for p, code in enumerate(codes) if code == 0] == [_UP_TO_ROUND.start]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_verify_of_a_bundle_with_a_byte_flipped(cli_bundle, data):
    position = data.draw(st.integers(0, len(cli_bundle[2]) - 1))
    verify_flipped(cli_bundle, position, data.draw(st.integers(1, 255)))


def test_a_bundle_claiming_rounds_beyond_the_chain_covers_none():
    # flipping bit 0 of byte 10 adds 256 to up_to_round: no round was
    # verified, and none was published after the bundle was built
    history = honest_history()
    roots = history.chain.read_roots()
    proof = make_audit_proof(b"ledger-2", len(roots) - 1, roots, history.store, history.params)
    flipped = bytearray(encode_audit_proof(proof))
    flipped[10] ^= 0x01
    decoded = decode_audit_proof(bytes(flipped))
    assert decoded.up_to_round == proof.up_to_round + 256
    report = verify_audit_proof(decoded, b"ledger-2", roots)
    assert report.verdict is Status.INCONCLUSIVE
    assert (report.covered_rounds, report.uncovered_rounds) == (0, ())


def test_cli_verify_of_a_bundle_claiming_rounds_beyond_the_chain(cli_bundle):
    workdir, proof_file, honest = cli_bundle
    flipped = bytearray(honest)
    flipped[10] ^= 0x01
    proof_file.write_bytes(flipped)
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["verify", "ledger-2", "--proof", str(proof_file), "--workdir", str(workdir)])
    assert code == 2
    reason = "inconclusive: audit proof claims rounds beyond the provided chain"
    checks = ["chain_match", "no_alternative_histories", "no_removal", "no_forks",
              "disclosed_data_match"]
    assert out.getvalue().splitlines() == [
        *(f"{check}: {reason}" for check in checks), "verdict: inconclusive",
    ]


# ------------------------------------------------------ a round listed twice

def _changed_round_bundle():
    history = honest_history()
    roots = history.chain.read_roots()
    proof = make_audit_proof(b"ledger-2", len(roots) - 1, roots, history.store, history.params)
    round_seq, blob = proof.proofs[0]
    assert round_seq == 1
    forged = bytearray(blob)
    forged[-1] ^= 0x01
    return history, roots, proof, (round_seq, bytes(forged))


@pytest.mark.parametrize("order", ["appended", "prepended"])
def test_a_conflicting_repeated_round_is_refused_in_either_order(order):
    # Read through a dict, the last entry for a round used to win: the
    # forged copy appended failed no_forks, prepended it passed.
    _, _, proof, forged = _changed_round_bundle()
    proofs = [*proof.proofs, forged] if order == "appended" else [forged, *proof.proofs]
    with pytest.raises(ValueError, match="lists round 1 twice with different proofs"):
        decode_audit_proof(with_proofs(proof, proofs))


@pytest.mark.parametrize("order", ["appended", "prepended"])
def test_verify_refuses_an_in_memory_conflicting_repeated_round(order):
    # A hand-built AuditProof never passes through the decoder; read
    # through a dict, the forged copy appended failed no_forks and
    # prepended passed.
    history, roots, proof, forged = _changed_round_bundle()
    proofs = (*proof.proofs, forged) if order == "appended" else (forged, *proof.proofs)
    with pytest.raises(ValueError, match="lists round 1 twice with different proofs"):
        verify_audit_proof(
            replace(proof, proofs=proofs), b"ledger-2", roots, history.ledgers[b"ledger-2"]
        )


def test_verify_counts_an_in_memory_identical_repeated_round_once():
    history, roots, proof, _ = _changed_round_bundle()
    claimed = history.ledgers[b"ledger-2"]
    repeated = replace(proof, proofs=(*proof.proofs, proof.proofs[0]))
    report = verify_audit_proof(repeated, b"ledger-2", roots, claimed)
    assert report == verify_audit_proof(proof, b"ledger-2", roots, claimed)
    assert report.verdict is Status.PASS


def test_an_identical_repeated_round_decodes_as_one_entry():
    history, roots, proof, _ = _changed_round_bundle()
    repeated = decode_audit_proof(with_proofs(proof, [*proof.proofs, proof.proofs[0]]))
    assert repeated == proof
    report = verify_audit_proof(repeated, b"ledger-2", roots, history.ledgers[b"ledger-2"])
    assert report.verdict is Status.PASS


@pytest.mark.parametrize("order", ["appended", "prepended"])
def test_cli_verify_of_a_conflicting_repeated_round_is_inconclusive(
    order, tmp_path, capsys
):
    workdir = tmp_path / "run"
    assert main([
        "simulate", "--workdir", str(workdir), "--ledgers", "6", "--rounds", "4",
        "--append-rate", "1.0", "--seed", "11",
    ]) == 0
    proof_file = tmp_path / "l2.proof"
    assert main(["prove", "ledger-2", "--workdir", str(workdir), "--out", str(proof_file)]) == 0
    proof = decode_audit_proof(proof_file.read_bytes())
    round_seq, blob = proof.proofs[0]
    forged = (round_seq, blob[:-1] + bytes([blob[-1] ^ 0x01]))
    proofs = [*proof.proofs, forged] if order == "appended" else [forged, *proof.proofs]
    proof_file.write_bytes(with_proofs(proof, proofs))
    capsys.readouterr()
    code = main(["verify", "ledger-2", "--proof", str(proof_file), "--workdir", str(workdir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"inconclusive: unreadable audit proof (audit proof lists round {round_seq} "
        "twice with different proofs)\n"
    )


# ----------------------------------------------------- non-canonical bundles

def _unused_node(history, proof: AuditProof) -> bytes:
    """A node of another ledger's audit that ``proof`` does not hold."""
    roots = history.chain.read_roots()
    other = make_audit_proof(b"ledger-1", len(roots) - 1, roots, history.store, history.params)
    return next(data for data in other.nodes if data not in proof.nodes)


@pytest.mark.parametrize("lid", [b"ledger-0", b"ledger-5", b"ghost"])
@pytest.mark.parametrize("variant", ["shuffled", "duplicated", "unused"])
def test_non_canonical_bundles_give_the_canonical_report(lid, variant):
    history = honest_history()
    roots = history.chain.read_roots()
    proof = make_audit_proof(lid, len(roots) - 1, roots, history.store, history.params)
    claimed = history.ledgers.get(lid)
    canonical = verify_audit_proof(proof, lid, roots, claimed)
    nodes = list(proof.nodes)
    rng = random.Random(variant)
    if variant == "shuffled":
        rng.shuffle(nodes)
    elif variant == "duplicated":
        nodes.insert(rng.randrange(len(nodes) + 1), rng.choice(nodes))
    else:
        nodes.insert(rng.randrange(len(nodes) + 1), _unused_node(history, proof))
    assert nodes != list(proof.nodes)
    blob = encode_audit_proof(replace(proof, nodes=tuple(nodes)))
    report = verify_audit_proof(decode_audit_proof(blob), lid, roots, claimed)
    assert report == canonical
    assert report.verdict is Status.PASS
