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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .crypto import HashAlg, algorithm_by_wire_id, label_at
from .errors import CannotConstructError, IntegrityError, KeyExhaustedError, NotFoundError
from .merkle import (
    ConsistencyProof,
    Ledger,
    decode_consistency_proof,
    ledger_root,
    verify_consistency,
)
from .store import ObjectStore
from .trie import InternalNode, LeafNode, MalformedNodeError, TrieParams, parse_node

class Status(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    INCONCLUSIVE = "inconclusive"
    NOT_CHECKED = "not checked"


@dataclass(frozen=True)
class CheckResult:
    status: Status
    round: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        where = f" (round {self.round})" if self.round is not None else ""
        tail = f": {self.detail}" if self.detail else ""
        return f"{self.status.value}{where}{tail}"


@dataclass(frozen=True)
class AuditReport:
    """Outcome of the audit checks for one ledger key.

    ``history`` lists the value found per covered round, oldest first
    (None for rounds where the key is absent or the value unresolved;
    unresolved rounds are also listed in ``unresolved_rounds``).
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
    """Self-contained bundle replaying the audit for rounds <= up_to_round."""

    ledger_key: bytes
    up_to_round: int
    params: TrieParams
    nodes: tuple[bytes, ...]
    proofs: tuple[tuple[int, bytes], ...]


_UNRESOLVED = object()  # round value marker: storage could not answer


class _Engine:
    """One audit run; resolve/fetch callables abstract the storage."""

    def __init__(self, params, ledger_key, chain_roots, resolve, fetch_proof):
        self.params = params
        self.key = ledger_key
        self.chain_roots = list(chain_roots)
        self.resolve = resolve
        self.fetch_proof = fetch_proof
        self.malformed: list[tuple[int, str]] = []

    def walk_roots(self):
        """Follow prev-root links from the latest chain digest.

        Returns (chain_match CheckResult, {round: root node}). Root nodes
        are aligned newest-first against the chain sequence.
        """
        height = len(self.chain_roots)
        sentinel = self.params.alg.zero
        nodes_by_round: dict[int, LeafNode | InternalNode] = {}
        current = self.chain_roots[-1]
        walked: list[bytes] = []
        ended = False
        for step in range(height):
            round_seq = height - 1 - step
            try:
                data = self.resolve(current)
            except (NotFoundError, IntegrityError):
                return (
                    CheckResult(
                        Status.INCONCLUSIVE,
                        round_seq,
                        f"version root {current.hex()[:16]}… unresolved in storage",
                    ),
                    nodes_by_round,
                )
            try:
                node = parse_node(data, self.params)
            except MalformedNodeError as exc:
                return (
                    CheckResult(Status.FAIL, round_seq, f"malformed version root: {exc}"),
                    nodes_by_round,
                )
            if node.prev_root is None:
                return (
                    CheckResult(Status.FAIL, round_seq, "version root is not a root node"),
                    nodes_by_round,
                )
            walked.append(current)
            nodes_by_round[round_seq] = node
            current = node.prev_root
            if current == sentinel:
                ended = step == height - 1
                if not ended:
                    return (
                        CheckResult(
                            Status.FAIL,
                            round_seq,
                            f"lineage ends after {step + 1} versions, chain has {height}",
                        ),
                        nodes_by_round,
                    )
                break
        else:
            return (
                CheckResult(Status.FAIL, 0, "lineage has more versions than chain records"),
                nodes_by_round,
            )
        for step, digest in enumerate(walked):
            round_seq = height - 1 - step
            if digest != self.chain_roots[round_seq]:
                return (
                    CheckResult(
                        Status.FAIL,
                        round_seq,
                        "traversed root does not match the published digest",
                    ),
                    nodes_by_round,
                )
        return CheckResult(Status.PASS), nodes_by_round

    def search(self, round_seq: int, root_node):
        """Value for the key in one version; hash references verify implicitly
        because nodes are resolved by the very digest the parent stored."""
        node = root_node
        depth = 0
        while True:
            if depth > 0 and node.prev_root is not None:
                self.malformed.append((round_seq, "root-tagged node below the root"))
                return _UNRESOLVED
            if isinstance(node, LeafNode):
                return node.value_of(self.key)
            try:
                label = label_at(self.key, depth, self.params.r)
            except KeyExhaustedError:
                self.malformed.append((round_seq, "trie deeper than the key has bits"))
                return _UNRESOLVED
            child = node.child(label)
            if child is None:
                return None
            try:
                data = self.resolve(child)
            except (NotFoundError, IntegrityError):
                return _UNRESOLVED
            try:
                node = parse_node(data, self.params)
            except MalformedNodeError as exc:
                self.malformed.append((round_seq, str(exc)))
                return _UNRESOLVED
            depth += 1

    def run(self, claimed: bytes | None, extra_proofs) -> dict:
        chain_match, nodes_by_round = self.walk_roots()
        height = len(self.chain_roots)

        values: list = [_UNRESOLVED] * height
        for round_seq, root_node in nodes_by_round.items():
            values[round_seq] = self.search(round_seq, root_node)
        unresolved = tuple(i for i, v in enumerate(values) if v is _UNRESOLVED)

        if self.malformed:
            round_seq, detail = min(self.malformed)
            alternative = CheckResult(Status.FAIL, round_seq, f"malformed node: {detail}")
        elif unresolved:
            alternative = CheckResult(
                Status.INCONCLUSIVE, unresolved[0], "value unresolved in storage"
            )
        else:
            alternative = CheckResult(Status.PASS)

        no_removal = self._check_no_removal(values, unresolved)
        no_forks = self._check_no_forks(values, unresolved)
        disclosed = self._check_disclosed(claimed, values, unresolved, extra_proofs)

        return {
            "chain_match": chain_match,
            "no_alternative_histories": alternative,
            "no_removal": no_removal,
            "no_forks": no_forks,
            "disclosed_data_match": disclosed,
            "history": tuple(None if v is _UNRESOLVED else v for v in values),
            "unresolved_rounds": unresolved,
        }

    def _check_no_removal(self, values, unresolved) -> CheckResult:
        seen_value = False
        for round_seq, value in enumerate(values):
            if value is _UNRESOLVED:
                continue
            if value is None and seen_value:
                return CheckResult(
                    Status.FAIL, round_seq, "key vanished after having been notarized"
                )
            if value is not None:
                seen_value = True
        if unresolved:
            return CheckResult(Status.INCONCLUSIVE, unresolved[0], "history has gaps")
        return CheckResult(Status.PASS)

    def _check_no_forks(self, values, unresolved) -> CheckResult:
        inconclusive: CheckResult | None = None
        for round_seq in range(1, len(values)):
            old, new = values[round_seq - 1], values[round_seq]
            if old is _UNRESOLVED or new is _UNRESOLVED:
                continue
            if old is None or new is None or old == new:
                continue
            try:
                blob = self.fetch_proof(round_seq)
            except (NotFoundError, IntegrityError):
                blob = None
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
            if not verify_consistency(old, new, proof, self.params.alg):
                return CheckResult(
                    Status.FAIL, round_seq, "published consistency proof does not verify"
                )
        if inconclusive is not None:
            return inconclusive
        if unresolved:
            return CheckResult(Status.INCONCLUSIVE, unresolved[0], "history has gaps")
        return CheckResult(Status.PASS)

    def _check_disclosed(self, claimed, values, unresolved, extra_proofs) -> CheckResult:
        if claimed is None:
            return CheckResult(Status.NOT_CHECKED)
        definite = [v for v in values if v is not _UNRESOLVED and v is not None]
        if claimed in definite:
            return CheckResult(Status.PASS)
        alg = self.params.alg
        proofs = list(extra_proofs)
        for round_seq in range(1, len(values)):
            old, new = values[round_seq - 1], values[round_seq]
            if old is _UNRESOLVED or new is _UNRESOLVED or old is None or new is None:
                continue
            if old == new:
                continue
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
        return ledger_root(claimed)
    if not isinstance(claimed, bytes) or len(claimed) != alg.output_len:
        raise ValueError("claimed digest must be a Ledger or a digest of the configured length")
    return claimed


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
    skip the disclosed-data check.
    """
    if not chain_roots:
        raise ValueError("chain is empty; nothing to audit")
    key = params.alg.hash(ledger_id)

    def fetch_proof(round_seq: int) -> bytes | None:
        address = store.find_proof(key, round_seq)
        return None if address is None else store.get(address)

    engine = _Engine(params, key, chain_roots, store.get, fetch_proof)
    parts = engine.run(_as_digest(claimed, params.alg), extra_proofs)
    return AuditReport(
        ledger_key=key, covered_rounds=len(chain_roots), uncovered_rounds=(), **parts
    )


class _Recorder:
    """Storage adapter that remembers everything an audit run touched."""

    def __init__(self, store: ObjectStore, ledger_key: bytes):
        self.store = store
        self.key = ledger_key
        self.nodes: dict[bytes, bytes] = {}
        self.proofs: dict[int, bytes] = {}

    def resolve(self, digest: bytes) -> bytes:
        data = self.store.get(digest)
        self.nodes.setdefault(digest, data)
        return data

    def fetch_proof(self, round_seq: int) -> bytes | None:
        address = self.store.find_proof(self.key, round_seq)
        if address is None:
            return None
        blob = self.store.get(address)
        self.proofs.setdefault(round_seq, blob)
        return blob


def make_audit_proof(
    ledger_id: bytes,
    up_to_round: int,
    chain_roots,
    store: ObjectStore,
    params: TrieParams,
) -> AuditProof:
    """Bundle every node and proof needed to audit rounds 0..up_to_round offline."""
    chain_roots = list(chain_roots)
    if not 0 <= up_to_round < len(chain_roots):
        raise ValueError(
            f"up_to_round {up_to_round} outside the chain's {len(chain_roots)} rounds"
        )
    key = params.alg.hash(ledger_id)
    recorder = _Recorder(store, key)
    engine = _Engine(
        params, key, chain_roots[: up_to_round + 1], recorder.resolve, recorder.fetch_proof
    )
    parts = engine.run(None, ())
    gaps = [
        name
        for name, check in parts.items()
        if isinstance(check, CheckResult) and check.status is Status.INCONCLUSIVE
    ]
    if gaps:
        raise CannotConstructError(
            f"public storage is missing data needed for the bundle ({', '.join(gaps)})"
        )
    return AuditProof(
        ledger_key=key,
        up_to_round=up_to_round,
        params=params,
        nodes=tuple(recorder.nodes.values()),
        proofs=tuple(sorted(recorder.proofs.items())),
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
    (the bundle is a static snapshot).
    """
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
            covered = 0
            uncovered = tuple(range(len(chain_roots)))
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

    nodes = {alg.hash(data): data for data in proof.nodes}
    proof_blobs = dict(proof.proofs)

    def resolve(digest: bytes) -> bytes:
        try:
            return nodes[digest]
        except KeyError:
            raise NotFoundError(f"bundle lacks node {digest.hex()}") from None

    engine = _Engine(params, key, chain_roots[:covered], resolve, proof_blobs.get)
    parts = engine.run(_as_digest(claimed, alg), extra_proofs)
    return AuditReport(
        ledger_key=key, covered_rounds=covered, uncovered_rounds=uncovered, **parts
    )


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
    nodes = len(proof.nodes).to_bytes(4, "little") + b"".join(
        len(data).to_bytes(4, "little") + data for data in proof.nodes
    )
    proofs = len(proof.proofs).to_bytes(4, "little") + b"".join(
        round_seq.to_bytes(8, "little") + len(blob).to_bytes(4, "little") + blob
        for round_seq, blob in proof.proofs
    )
    return _section(header) + _section(nodes) + _section(proofs)


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


def decode_audit_proof(data: bytes) -> AuditProof:
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

    nodes_section = _Cursor(outer.take(outer.u32()))
    nodes = []
    for _ in range(nodes_section.u32()):
        nodes.append(nodes_section.take(nodes_section.u32()))

    proofs_section = _Cursor(outer.take(outer.u32()))
    proofs = []
    for _ in range(proofs_section.u32()):
        round_seq = proofs_section.u64()
        proofs.append((round_seq, proofs_section.take(proofs_section.u32())))
    if outer.pos != len(data):
        raise ValueError("trailing bytes after audit proof")
    return AuditProof(ledger_key, up_to_round, params, tuple(nodes), tuple(proofs))
