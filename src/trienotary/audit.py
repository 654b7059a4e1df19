"""External audit of one ledger's notarized history.

Given only the public chain's digest sequence and access to public
storage, an auditor establishes, for a single ledger id:

* chain match: walking the prev-root links from the newest trie root
  reproduces exactly the digest sequence published on the chain;
* no alternative histories: each round's trie yields one well-defined
  value (or null) for the id's search key, every hash reference on the
  search path verifying along the way;
* no removal: once the id carries a value, it carries one in every later
  round (nulls may only form a prefix of the history);
* no forks: every value change is covered by a consistency proof in
  public storage, so the digests form one append-only history;
* disclosed data match: a digest computed from data shared with the
  auditor equals a notarized value, or is bridged to the history by
  consistency proofs on both sides.

Missing storage data makes a check inconclusive, which is reported
distinctly from a proven violation: an auditor that cannot resolve a node
has lost availability, not necessarily integrity.

The same checks run offline from an audit proof: a self-contained bundle
of every node and proof the storage-backed audit would have fetched,
valid up to the notarization round current when it was built. Rounds
published after that are reported as not covered rather than verified.

Cost model: one run (an audit, a bundle build or a bundle check) reads
one source, nodes by digest and proofs by round, and records each read
in order; the record of a storage-backed run is the bundle. The engine's
two readers are the one place where a failed read becomes None, which
is ``KeyPath``'s fetch contract: they catch the store's ``NotFoundError``
and ``IntegrityError`` (a missing or corrupted object), a bundle's
source returns None itself, and any other error escapes the run. Each
run returns one ``AuditReport`` of five ``CheckResult``s and builds one
``InternalNode`` or ``LeafNode`` per version root it parses and one
``ConsistencyProof`` per proof it decodes; all of these are tuples
(``typing.NamedTuple``), built at tuple cost, compared by field and
copied with ``_replace``. A run
fetches and validates each distinct node once, except that a version
root is checked twice: the root walk parses it for its prev-root link,
and the key's path is then read from it by ``trie.KeyPath``, which takes
each label from the key when the walk reaches its depth: no per-run work
scales with the key's bit length, only with the nodes read. One
``KeyPath.walk_each`` call per run walks every version root, newest
first, with one memo that maps (child digest, depth) to what the walk
below that child found: the value, absence, or unresolved with any
malformation detail. A later round that reaches a memoized child stops
there, and a memoized malformation is charged to that round too, so the
verdicts are those of a memo-free walk. The memo lives in the run, not
in ``ObjectStore``: stored bytes can be corrupted after the fact, and a
store-level cache would hide that from every later audit.

A bundle check (``verify``) makes one pass over the bundle's bytes
(``decode_audit_proof``), hashes each node once to index the nodes by
digest, which stands in for the store's read check, then runs the same
engine over that index. The bundle's proof list names each round once:
the decoder, and ``verify_audit_proof`` for a bundle built in memory,
refuse a round listed twice with different proofs, as ``proofs.idx``
refuses a conflicting entry, and read an identical repeat as one entry.
The decoder also refuses bytes left over at the end of a section, so one
bundle has one encoding up to node order and repeats. Node order,
repeated nodes and nodes no check reads do not change a verdict.

The root walk compares each root with its round's chain record as it
goes. A walk fault (a root unresolved, malformed or not a root, a
lineage shorter or longer than the chain) outranks a mismatch, and of
several mismatches the newest is reported.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

from .crypto import HashAlg, algorithm_by_wire_id
from .errors import CannotConstructError, IntegrityError, NotFoundError
from .merkle import (
    ConsistencyProof,
    Ledger,
    decode_consistency_proof,
    ledger_root,
    verify_consistency,
)
from .store import ObjectStore
from .trie import UNRESOLVED, KeyPath, MalformedNodeError, TrieParams, parse_node


class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"
    NOT_CHECKED = "not checked"


class CheckResult(NamedTuple):
    """One check's outcome; ``str`` reads ``status (round N): detail``.

    A tuple, built at tuple cost: compared and hashed by its fields,
    copied with ``_replace``.
    """

    status: Status
    round: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" (round {self.round})" if self.round is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.status.value}{where}{tail}"


class AuditReport(NamedTuple):
    """Outcome of the audit checks for one ledger key.

    ``history`` lists the value found per covered round, oldest first
    (None for rounds where the key is absent or the value unresolved;
    unresolved rounds are also listed in ``unresolved_rounds``). A tuple
    like ``CheckResult``: compared and hashed by its fields, copied with
    ``_replace``.
    """

    ledger_key: bytes
    chain_match: CheckResult
    no_alternative_histories: CheckResult
    no_removal: CheckResult
    no_forks: CheckResult
    disclosed_data_match: CheckResult
    history: tuple[bytes | None, ...]
    unresolved_rounds: tuple[int, ...]
    covered_rounds: int
    uncovered_rounds: tuple[int, ...] = ()

    def checks(self) -> dict[str, CheckResult]:
        return {
            "chain_match": self.chain_match,
            "no_alternative_histories": self.no_alternative_histories,
            "no_removal": self.no_removal,
            "no_forks": self.no_forks,
            "disclosed_data_match": self.disclosed_data_match,
        }

    @property
    def verdict(self) -> Status:
        statuses = {check.status for check in self.checks().values()}
        if Status.FAIL in statuses:
            return Status.FAIL
        if Status.INCONCLUSIVE in statuses:
            return Status.INCONCLUSIVE
        return Status.PASS

    @property
    def exit_code(self) -> int:
        return {Status.PASS: 0, Status.FAIL: 1, Status.INCONCLUSIVE: 2}[self.verdict]


@dataclass(frozen=True)
class AuditProof:
    """Self-contained bundle replaying the audit for rounds <= up_to_round.

    ``proofs`` pairs a round with its proof blob, each round at most once.
    """

    ledger_key: bytes
    up_to_round: int
    params: TrieParams
    nodes: tuple[bytes, ...]
    proofs: tuple[tuple[int, bytes], ...]


class _Engine:
    """One audit run over one source, keeping a record of what it read.

    ``get(digest)`` returns node bytes and ``proof_at(round)`` a proof
    blob. Each returns None for what the source lacks, or raises
    ``NotFoundError`` or ``IntegrityError`` for an object missing from
    storage or failing its read check, as ``ObjectStore.get`` does.
    ``fetch_node`` and ``fetch_proof`` are the only readers: they are the
    one place where a failed read becomes None, and they record each read
    that found something in ``nodes`` (digest -> bytes) and ``proofs``
    (round -> blob), in read order. Any other error escapes the run.
    """

    def __init__(self, params, ledger_key, chain_roots, get, proof_at):
        self.params = params
        self.chain_roots = list(chain_roots)
        self.get = get
        self.proof_at = proof_at
        self.path = KeyPath(params, ledger_key)
        self.nodes: dict[bytes, bytes] = {}
        self.proofs: dict[int, bytes] = {}

    def fetch_node(self, digest: bytes) -> bytes | None:
        try:
            data = self.get(digest)
        except (NotFoundError, IntegrityError):
            return None
        if data is not None:
            self.nodes[digest] = data
        return data

    def fetch_proof(self, round_seq: int) -> bytes | None:
        try:
            blob = self.proof_at(round_seq)
        except (NotFoundError, IntegrityError):
            return None
        if blob is not None:
            self.proofs[round_seq] = blob
        return blob

    def walk_roots(self):
        """Follow prev-root links from the latest chain digest.

        Returns (chain_match CheckResult, {round: root node bytes}). Each
        walked root is compared with the chain record of its round; the
        newest mismatch is reported only if the walk itself ends cleanly.
        """
        params = self.params
        chain_roots = self.chain_roots
        fetch_node = self.fetch_node
        zero = params.alg.zero
        height = len(chain_roots)
        roots_by_round: dict[int, bytes] = {}
        mismatch = None
        current = chain_roots[-1]
        for round_seq in range(height - 1, -1, -1):
            data = fetch_node(current)
            if data is None:
                detail = f"version root {current.hex()[:16]}… unresolved in storage"
                return CheckResult(Status.INCONCLUSIVE, round_seq, detail), roots_by_round
            try:
                node = parse_node(data, params)
            except MalformedNodeError as exc:
                detail = f"malformed version root: {exc}"
                return CheckResult(Status.FAIL, round_seq, detail), roots_by_round
            if node.prev_root is None:
                detail = "version root is not a root node"
                return CheckResult(Status.FAIL, round_seq, detail), roots_by_round
            if mismatch is None and current != chain_roots[round_seq]:
                detail = "traversed root does not match the published digest"
                mismatch = CheckResult(Status.FAIL, round_seq, detail)
            roots_by_round[round_seq] = data
            current = node.prev_root
            if current == zero:
                if round_seq:
                    versions = height - round_seq
                    detail = f"lineage ends after {versions} versions, chain has {height}"
                    return CheckResult(Status.FAIL, round_seq, detail), roots_by_round
                return mismatch or CheckResult(Status.PASS), roots_by_round
        detail = "lineage has more versions than chain records"
        return CheckResult(Status.FAIL, 0, detail), roots_by_round

    def run(self, claimed: bytes | None, extra_proofs, uncovered=()) -> AuditReport:
        """The report on the chain's rounds; ``uncovered`` lists the rounds
        published after them."""
        chain_match, roots_by_round = self.walk_roots()
        height = len(self.chain_roots)

        # Hash references verify implicitly: each node is resolved by the very
        # digest its parent stored. One call walks every root with one memo:
        # a subtree already walked this run answers from it, and its
        # malformation is charged to this round too.
        values: list = [UNRESOLVED] * height
        malformed = []
        walked = self.path.walk_each(roots_by_round.values(), self.fetch_node)
        for round_seq, (value, detail) in zip(roots_by_round, walked):
            values[round_seq] = value
            if detail:
                malformed.append((round_seq, detail))
        unresolved = tuple(i for i, v in enumerate(values) if v is UNRESOLVED)
        # value changes: both rounds hold a defined, non-null value, and they differ
        definite = [v is not UNRESOLVED and v is not None for v in values]
        changes = [
            round_seq
            for round_seq in range(1, height)
            if definite[round_seq - 1] and definite[round_seq]
            and values[round_seq - 1] != values[round_seq]
        ]

        if malformed:
            round_seq, detail = min(malformed)
            alternative = CheckResult(Status.FAIL, round_seq, f"malformed node: {detail}")
        elif unresolved:
            alternative = CheckResult(
                Status.INCONCLUSIVE, unresolved[0], "value unresolved in storage"
            )
        else:
            alternative = CheckResult(Status.PASS)
        gaps = CheckResult(Status.PASS)
        if unresolved:
            gaps = CheckResult(Status.INCONCLUSIVE, unresolved[0], "history has gaps")

        return AuditReport(
            ledger_key=self.path.key,
            chain_match=chain_match,
            no_alternative_histories=alternative,
            no_removal=self._check_no_removal(values, definite, gaps),
            no_forks=self._check_no_forks(values, changes, gaps),
            disclosed_data_match=self._check_disclosed(
                claimed, values, changes, unresolved, extra_proofs
            ),
            history=tuple(None if v is UNRESOLVED else v for v in values),
            unresolved_rounds=unresolved,
            covered_rounds=height,
            uncovered_rounds=uncovered,
        )

    def _check_no_removal(self, values, definite, gaps) -> CheckResult:
        seen_value = False
        for round_seq, value in enumerate(values):
            if value is None and seen_value:
                return CheckResult(
                    Status.FAIL, round_seq, "key vanished after having been notarized"
                )
            seen_value = seen_value or definite[round_seq]
        return gaps

    def _check_no_forks(self, values, changes, gaps) -> CheckResult:
        inconclusive: CheckResult | None = None
        for round_seq in changes:
            blob = self.fetch_proof(round_seq)
            if blob is None:
                inconclusive = inconclusive or CheckResult(
                    Status.INCONCLUSIVE,
                    round_seq,
                    "no consistency proof retrievable for a value change",
                )
                continue
            try:
                proof = decode_consistency_proof(blob, self.params.alg)
            except ValueError as exc:
                return CheckResult(Status.FAIL, round_seq, f"undecodable proof: {exc}")
            old, new = values[round_seq - 1], values[round_seq]
            if not verify_consistency(old, new, proof, self.params.alg):
                return CheckResult(
                    Status.FAIL, round_seq, "published consistency proof does not verify"
                )
        return inconclusive or gaps

    def _check_disclosed(self, claimed, values, changes, unresolved, extra_proofs) -> CheckResult:
        if claimed is None:
            return CheckResult(Status.NOT_CHECKED)
        if claimed in values:
            return CheckResult(Status.PASS)
        alg = self.params.alg
        proofs = list(extra_proofs)
        for round_seq in changes:
            old, new = values[round_seq - 1], values[round_seq]
            before = any(verify_consistency(old, claimed, p, alg) for p in proofs)
            after = any(verify_consistency(claimed, new, p, alg) for p in proofs)
            if before and after:
                return CheckResult(
                    Status.PASS, round_seq, "digest bridged by shared consistency proofs"
                )
        if unresolved:
            return CheckResult(
                Status.INCONCLUSIVE, unresolved[0], "digest unmatched but history has gaps"
            )
        return CheckResult(
            Status.FAIL,
            None,
            "digest matches no notarized value and no bridging proofs were shared",
        )


def _as_digest(claimed, alg: HashAlg) -> bytes | None:
    if claimed is None:
        return None
    if isinstance(claimed, Ledger):
        if claimed.alg != alg:
            raise ValueError(
                f"claimed ledger uses {claimed.alg.name}, the deployment {alg.name}"
            )
        return ledger_root(claimed)
    if not isinstance(claimed, bytes) or len(claimed) != alg.output_len:
        raise ValueError("claimed digest must be a Ledger or a digest of the configured length")
    return claimed


def _store_engine(params: TrieParams, key: bytes, chain_roots, store: ObjectStore) -> _Engine:
    """An engine reading public storage: nodes by digest, proofs by index."""

    def proof_at(round_seq: int) -> bytes | None:
        address = store.find_proof(key, round_seq)
        return None if address is None else store.get(address)

    return _Engine(params, key, chain_roots, store.get, proof_at)


def audit_ledger(
    ledger_id: bytes,
    claimed,
    chain_roots,
    store: ObjectStore,
    params: TrieParams,
    extra_proofs: tuple[ConsistencyProof, ...] = (),
) -> AuditReport:
    """Run the storage-backed audit for ``ledger_id`` over the full chain.

    ``claimed`` is disclosed ledger data (a Ledger), its digest, or None to
    skip the disclosed-data check. A Ledger in another hash algorithm, or a
    digest of another length, raises ``ValueError``: it could never match.
    """
    if not chain_roots:
        raise ValueError("chain is empty; nothing to audit")
    key = params.alg.hash(ledger_id)
    engine = _store_engine(params, key, chain_roots, store)
    return engine.run(_as_digest(claimed, params.alg), extra_proofs)


def make_audit_proof(
    ledger_id: bytes,
    up_to_round: int,
    chain_roots,
    store: ObjectStore,
    params: TrieParams,
) -> AuditProof:
    """Bundle every node and proof needed to audit rounds 0..up_to_round offline.

    The bundle is the read record of a storage-backed audit run.
    """
    chain_roots = list(chain_roots)
    if not 0 <= up_to_round < len(chain_roots):
        raise ValueError(
            f"up_to_round {up_to_round} outside the chain's {len(chain_roots)} rounds"
        )
    key = params.alg.hash(ledger_id)
    engine = _store_engine(params, key, chain_roots[: up_to_round + 1], store)
    checks = engine.run(None, ()).checks()
    gaps = [name for name, check in checks.items() if check.status is Status.INCONCLUSIVE]
    if gaps:
        raise CannotConstructError(
            f"public storage is missing data needed for the bundle ({', '.join(gaps)})"
        )
    return AuditProof(
        ledger_key=key,
        up_to_round=up_to_round,
        params=params,
        nodes=tuple(engine.nodes.values()),
        proofs=tuple(engine.proofs.items()),
    )


def verify_audit_proof(
    proof: AuditProof,
    ledger_id: bytes,
    chain_roots,
    claimed=None,
    extra_proofs: tuple[ConsistencyProof, ...] = (),
) -> AuditReport:
    """Replay the audit from the bundle alone, with no storage access.

    Verifies rounds up to ``proof.up_to_round``; chain records published
    after the bundle was built are reported as uncovered, not verified
    (the bundle is a static snapshot). A bundle claiming rounds beyond
    ``chain_roots`` is inconclusive and covers no round, and no round is
    reported as published after it.

    Nodes are framed under the bundle's own ``proof.params``: the caller
    must compare them with the deployment's parameters, or a bundle can
    claim a looser shape (say a larger k) than the trie was built with.

    Raises ValueError, as ``decode_audit_proof`` does, when ``proof.proofs``
    lists a round twice with different blobs.
    """
    proofs = _proofs_by_round(proof.proofs)
    params = proof.params
    alg = params.alg
    key = alg.hash(ledger_id)
    chain_roots = list(chain_roots)
    covered = proof.up_to_round + 1
    uncovered = tuple(range(covered, len(chain_roots)))

    if key != proof.ledger_key or covered > len(chain_roots):
        # honest bundles are built against a chain prefix, so a claim of
        # rounds the chain does not have cannot be verified
        if key != proof.ledger_key:
            check = CheckResult(Status.FAIL, None, "audit proof was built for a different ledger id")
        else:
            check = CheckResult(
                Status.INCONCLUSIVE, None, "audit proof claims rounds beyond the provided chain"
            )
            covered, uncovered = 0, ()  # nothing verified, and no round published late
        return AuditReport(
            ledger_key=key,
            chain_match=check,
            no_alternative_histories=check,
            no_removal=check,
            no_forks=check,
            disclosed_data_match=check,
            history=(),
            unresolved_rounds=(),
            covered_rounds=covered,
            uncovered_rounds=uncovered,
        )

    nodes = dict(zip(alg.hash_each(proof.nodes), proof.nodes))
    engine = _Engine(params, key, chain_roots[:covered], nodes.get, proofs.get)
    return engine.run(_as_digest(claimed, alg), extra_proofs, uncovered)


# --------------------------------------------------------- bundle wire form

def _section(payload: bytes) -> bytes:
    return len(payload).to_bytes(4, "little") + payload


def encode_audit_proof(proof: AuditProof) -> bytes:
    """Bundle file: header / node list / proof list, 4-byte LE length framing."""
    params = proof.params
    header = (
        bytes([params.alg.wire_id])
        + params.r.to_bytes(2, "little")
        + params.k.to_bytes(2, "little")
        + proof.up_to_round.to_bytes(8, "little")
        + proof.ledger_key
    )
    nodes = [len(proof.nodes).to_bytes(4, "little")]
    for data in proof.nodes:
        nodes += (len(data).to_bytes(4, "little"), data)
    proofs = len(proof.proofs).to_bytes(4, "little") + b"".join(
        round_seq.to_bytes(8, "little") + len(blob).to_bytes(4, "little") + blob
        for round_seq, blob in proof.proofs
    )
    return _section(header) + _section(b"".join(nodes)) + _section(proofs)


def _truncated() -> ValueError:
    return ValueError("truncated audit proof")


def _read_section(data: bytes, pos: int, limit: int) -> tuple[int, int]:
    """Start and end of the length-framed section at ``pos``, within ``limit``."""
    start = pos + 4
    if start > limit:
        raise _truncated()
    end = start + int.from_bytes(data[pos:start], "little")
    if end > limit:
        raise _truncated()
    return start, end


def _count(data: bytes, pos: int, limit: int, entry_min: int) -> tuple[int, int]:
    """The entry count at ``pos`` and where its entries start; refused
    unless the section, which ends at ``limit``, can hold that many."""
    start = pos + 4
    count = int.from_bytes(data[pos:start], "little")
    if start + count * entry_min > limit:
        raise _truncated()
    return count, start


def _check_spent(section: str, pos: int, end: int) -> None:
    """Refuse bytes left between the end of a section's reading and its frame's end."""
    if pos != end:
        left = end - pos
        raise ValueError(f"{left} bytes left over in the {section} section of the audit proof")


def _proofs_by_round(proofs) -> dict[int, bytes]:
    """Round -> proof blob. A round repeated with the same blob counts once;
    repeated with another blob, the bundle is refused, as ``proofs.idx``
    refuses a conflicting entry, whichever copy comes first."""
    by_round: dict[int, bytes] = {}
    for round_seq, blob in proofs:
        if by_round.setdefault(round_seq, blob) != blob:
            raise ValueError(f"audit proof lists round {round_seq} twice with different proofs")
    return by_round


def decode_audit_proof(data: bytes) -> AuditProof:
    """Inverse of ``encode_audit_proof``, in one pass over ``data``.

    Raises ValueError at the first fault met in reading order: a
    truncated field, an unknown hash algorithm, invalid trie parameters,
    bytes left over at the end of the header, node or proof section,
    trailing bytes. A bundle free of those that lists a round twice with
    different proofs raises last; an identical repeat decodes as one
    entry. Every length and count is checked against what is left of its
    section before anything under it is read, so a count no section could
    hold fails at once.
    """
    from_bytes = int.from_bytes
    pos, header_end = _read_section(data, 0, len(data))
    if pos == header_end:
        raise _truncated()
    alg = algorithm_by_wire_id(data[pos])
    key_at = pos + 13  # past hash id, r, k and up_to_round
    if key_at + alg.output_len > header_end:
        raise _truncated()
    r = from_bytes(data[pos + 1:pos + 3], "little")
    k = from_bytes(data[pos + 3:pos + 5], "little")
    up_to_round = from_bytes(data[pos + 5:key_at], "little")
    ledger_key = data[key_at:key_at + alg.output_len]
    try:
        params = TrieParams(r, k, alg)
    except ValueError as exc:
        raise ValueError(f"invalid parameters in audit proof: {exc}") from None
    _check_spent("header", key_at + alg.output_len, header_end)

    section_start, nodes_end = _read_section(data, header_end, len(data))
    count, pos = _count(data, section_start, nodes_end, 4)
    nodes = []
    for _ in range(count):  # u32 length, node bytes
        start = pos + 4
        if start > nodes_end:
            raise _truncated()
        pos = start + from_bytes(data[pos:start], "little")
        if pos > nodes_end:
            raise _truncated()
        nodes.append(data[start:pos])
    _check_spent("node", pos, nodes_end)

    section_start, proofs_end = _read_section(data, nodes_end, len(data))
    count, pos = _count(data, section_start, proofs_end, 12)
    proofs = []
    for _ in range(count):  # u64 round, u32 length, proof blob
        start = pos + 12
        if start > proofs_end:
            raise _truncated()
        end = start + from_bytes(data[pos + 8:start], "little")
        if end > proofs_end:
            raise _truncated()
        proofs.append((from_bytes(data[pos:pos + 8], "little"), data[start:end]))
        pos = end
    _check_spent("proof", pos, proofs_end)
    if proofs_end != len(data):
        raise ValueError("trailing bytes after audit proof")
    by_round = _proofs_by_round(proofs)
    return AuditProof(ledger_key, up_to_round, params, tuple(nodes), tuple(by_round.items()))
