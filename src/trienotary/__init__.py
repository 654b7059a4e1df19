"""Scalable ledger notarization over an authenticated, persistent bitwise trie.

Many append-only Merkle ledgers are aggregated into one trie mapping hashed
ledger ids to ledger digests; each notarization round publishes a single
root digest (chained to the previous one) to a public journal, and an
external party can audit any one ledger's full history from the digest
sequence plus public storage, or fully offline from a compact audit proof.
"""

from .audit import (
    AuditProof,
    AuditReport,
    CheckResult,
    Status,
    audit_ledger,
    decode_audit_proof,
    encode_audit_proof,
    make_audit_proof,
    verify_audit_proof,
)
from .chain import Chain, NotarizationRecord
from .crypto import SHA256, SHA512, HashAlg, algorithm
from .merkle import (
    Block,
    ConsistencyProof,
    InclusionProof,
    Ledger,
    decode_consistency_proof,
    encode_consistency_proof,
    ledger_root,
    prove_consistency,
    prove_inclusion,
    read_ledger,
    root_at,
    verify_consistency,
    verify_inclusion,
    write_ledger,
)
from .notary import NotaryState, notarize_round, notarize_single
from .store import DirectoryStore, MemoryStore, ObjectStore
from .trie import (
    InternalNode,
    LeafNode,
    Measurements,
    TrieParams,
    TrieVersion,
    associations,
    build,
    lookup,
    parse_node,
    rechain,
    search_path,
    serialize_node,
    stats,
    update,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    # ``measure_keys`` needs numpy, which no notarization or audit path
    # uses, so it is imported on first use rather than with the package.
    if name == "measure_keys":
        from .structure import measure_keys

        return measure_keys
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AuditProof",
    "AuditReport",
    "Block",
    "Chain",
    "CheckResult",
    "ConsistencyProof",
    "DirectoryStore",
    "HashAlg",
    "InclusionProof",
    "InternalNode",
    "LeafNode",
    "Ledger",
    "Measurements",
    "MemoryStore",
    "NotarizationRecord",
    "NotaryState",
    "ObjectStore",
    "SHA256",
    "SHA512",
    "Status",
    "TrieParams",
    "TrieVersion",
    "algorithm",
    "associations",
    "audit_ledger",
    "build",
    "decode_audit_proof",
    "decode_consistency_proof",
    "encode_audit_proof",
    "encode_consistency_proof",
    "ledger_root",
    "lookup",
    "make_audit_proof",
    "measure_keys",
    "notarize_round",
    "notarize_single",
    "parse_node",
    "prove_consistency",
    "prove_inclusion",
    "read_ledger",
    "rechain",
    "root_at",
    "search_path",
    "serialize_node",
    "stats",
    "update",
    "verify_audit_proof",
    "verify_consistency",
    "verify_inclusion",
    "write_ledger",
]
