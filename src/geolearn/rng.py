"""Labeled deterministic random streams.

A single root seed drives an experiment. Every component derives its own
generator from (root_seed, label path) through a stable hash, so adding or
removing one consumer never shifts the draws seen by any other.
"""

import hashlib

import numpy as np


def seed_stream(root_seed, *labels):
    """Return a numpy Generator keyed by the root seed and a label path.

    Labels may be strings or ints; they are joined into a path such as
    ``"node/3/batches"``.  The same (seed, labels) pair always yields an
    identical stream: the one seeded with the path's sha256 digest read as
    a little-endian integer.
    """
    path = "/".join(str(part) for part in labels)
    digest = hashlib.sha256(f"{root_seed}|{path}".encode("utf-8")).digest()
    seq = np.random.SeedSequence(entropy_words(digest))
    return np.random.Generator(np.random.PCG64(seq))


def entropy_words(digest):
    """The uint32 words SeedSequence makes of digest read as a little-endian
    integer: lowest word first, high zero words trimmed, and one zero word
    for zero. Passing them skips SeedSequence's word-by-word int split."""
    n = max(1, -(-len(digest.rstrip(b"\0")) // 4))
    return np.frombuffer(digest, dtype="<u4", count=n)
