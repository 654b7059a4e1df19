"""
Auditing one ledger from public data alone
==========================================

An auditor holds nothing but the published digest sequence and access to
the public storage. From those, for a single ledger id, the audit
establishes that every round associated exactly one value with the id
(no alternative histories), that the id never vanished once notarized
(no removal), and that every digest change extends the previous state
(no forks). Disclosed ledger data can then be matched against the
notarized history.

The second half plays the adversary, who edits the public artifacts
after the fact with nothing but the public library: it rewrites a chain
record, then publishes a final trie that drops the ledger, built with the
library's own ``build``. The audit flags each one.
"""

import random

from trienotary import Ledger, MemoryStore, NotaryState, TrieParams, TrieVersion
from trienotary import associations, audit_ledger, build, notarize_round
from trienotary.chain import Chain
from trienotary.crypto import SHA256

rng = random.Random(3)
params = TrieParams(2, 1, SHA256)
store = MemoryStore(SHA256)
chain = Chain()
state = NotaryState(params)

ledgers = {
    f"passport-{i}".encode(): Ledger.from_payloads(f"passport-{i}".encode(), [rng.randbytes(12)], SHA256)
    for i in range(8)
}
for day in range(4):
    if day:
        for lid in ledgers:
            ledgers[lid] = ledgers[lid].append(rng.randbytes(12))
    state, _ = notarize_round(state, dict(ledgers), store, chain)

target = b"passport-3"
report = audit_ledger(target, ledgers[target], chain.read_roots(), store, params)
print(f"honest history, auditing {target.decode()}:")
for name, check in report.checks().items():
    print(f"  {name}: {check}")
print(f"  verdict: {report.verdict.value}\n")

roots = chain.read_roots()

# --- adversary 1: rewrite a chain record ---------------------------------
# round 2's root is replaced; round 3's trie still links back to the real one
rewritten = roots[:2] + [rng.randbytes(SHA256.output_len)] + roots[3:]
report = audit_ledger(target, None, rewritten, store, params)
print(f"after rewriting a chain record: chain_match = {report.chain_match}")

# --- adversary 2: publish a final trie that drops the ledger --------------
assoc = associations(TrieVersion(params, roots[-1], store))
del assoc[SHA256.hash(target)]
dropped = build(params, assoc, roots[-2], store)
report = audit_ledger(target, None, roots[:-1] + [dropped.root_digest], store, params)
print(f"after dropping the key in the final round: no_removal = {report.no_removal}")
print(f"  verdict: {report.verdict.value} (exit code {report.exit_code})")
