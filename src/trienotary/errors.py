"""Exception types shared across the package."""

from __future__ import annotations


class TrienotaryError(Exception):
    """Base class for all package errors."""


class KeyExhaustedError(TrienotaryError):
    """A trie search key ran out of bits before the keys could be separated."""


class DuplicateKeyError(TrienotaryError):
    """The same search key appeared twice in one association set."""


class DeletionNotSupportedError(TrienotaryError):
    """Keys can never be removed from the trie (the no-removal guarantee)."""


class MissingNodeError(TrienotaryError):
    """A node digest reachable from a trie root did not resolve in storage."""


class MalformedNodeError(TrienotaryError):
    """Stored node bytes do not decode as a canonical node."""


class CanonicalizationError(TrienotaryError):
    """A node violates its structural invariants and cannot be serialized."""


class MalformedArtifactError(TrienotaryError):
    """A public artifact (chain journal, proof index, config.json) does not
    decode; the message names the file and, for a journal or index line,
    its 1-based line number."""


class NotFoundError(TrienotaryError):
    """No content stored under the requested address."""


class IntegrityError(TrienotaryError):
    """Stored content no longer hashes to its address."""


class ProofIndexConflictError(TrienotaryError):
    """A (ledger, round) slot was re-registered with a different proof address."""


class InvalidRangeError(TrienotaryError):
    """A proof was requested for an impossible (old, new) size pair."""


class OversizeNoteError(TrienotaryError):
    """A notarization record exceeds the public-chain note capacity."""


class NonContiguousSeqError(TrienotaryError):
    """A record was published out of order or at an already-used height."""


class NoRemovalViolationError(TrienotaryError):
    """A registered ledger was absent from a notarization snapshot."""


class LedgerTamperError(TrienotaryError):
    """A ledger's new state is not an append-only extension of its last
    notarized state, so no consistency proof can exist."""


class CannotConstructError(TrienotaryError):
    """Public storage is missing data needed to assemble an audit proof."""


class WorkdirBusyError(TrienotaryError):
    """Another writer, in this process or another, holds the workdir's lock."""


class WorkdirExistsError(TrienotaryError):
    """A workdir was to be created where one already exists."""
