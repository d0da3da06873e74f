"""Fusion priors must not depend on the interpreter's string-hash seed.

A claim's supporting sources are a frozenset, which iterates in string-hash
order, so any float sum over ``claim.sources`` could round differently from
one interpreter to the next.  ``--resume`` and ``crowdfusion shard-worker``
rebuild the priors in a fresh interpreter and promise bit-identical curves,
so the priors of every method that sums over sources are computed in two
subprocesses with different ``PYTHONHASHSEED`` values and compared bit for
bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Prints one line per method: name, iterations and a digest of the exact
#: confidence bits, keyed by claim id.
SCRIPT = """\
import hashlib
import struct

from repro.datasets import BookCorpusConfig, generate_book_corpus
from repro.fusion import BayesianVote, ModifiedCRH, TruthFinder

corpus = generate_book_corpus(
    BookCorpusConfig(num_books=30, num_sources=16, max_sources_per_book=12, seed=7)
)
for method in (ModifiedCRH(), BayesianVote(), TruthFinder()):
    result = method.run(corpus.database)
    digest = hashlib.sha256()
    for claim_id in sorted(result.confidences):
        digest.update(claim_id.encode())
        digest.update(struct.pack("<d", result.confidences[claim_id]))
    print(method.name, result.iterations, digest.hexdigest())
"""


def _priors_under(hash_seed: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC_DIR)
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return completed.stdout


def test_priors_are_bit_identical_across_hash_seeds():
    first = _priors_under("0")
    assert len(first.splitlines()) == 3
    assert _priors_under("2") == first
