"""Counter-based random number streams.

Every stochastic routine in the package draws from a Philox generator whose
128-bit key is derived from a user seed plus a tuple of stream labels
(purpose tag, replica chunk index, restart index, ...).  Streams are therefore
independent of scheduling: replica r always lands in chunk r // CHUNK and sees
the same draws whether the run uses one worker or eight.
"""
from __future__ import annotations

import hashlib

import numpy as np

# Replicas are grouped into fixed-size chunks; each chunk owns one stream.
CHUNK = 4096


def stream_key(seed: int, *labels) -> int:
    """Derive a stable 128-bit Philox key from a seed and stream labels."""
    text = repr((int(seed),) + tuple(labels)).encode()
    digest = hashlib.blake2b(text, digest_size=16).digest()
    return int.from_bytes(digest, "big")


def stream(seed: int, *labels) -> np.random.Generator:
    """A Generator whose draws depend only on (seed, labels)."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *labels)))


def chunk_streams(seed: int, purpose: str, count: int, first: int = 0):
    """Yield (start, stop, generator) triples covering range(first, count),
    ``first`` a multiple of CHUNK.

    Replica indices [start, stop) are served by one stream keyed on the chunk
    index, so a consumer needing replicas [a, b) regenerates exactly the same
    values regardless of how work is split across processes.
    """
    for chunk_index in range(first // CHUNK, (count + CHUNK - 1) // CHUNK):
        start = chunk_index * CHUNK
        stop = min(start + CHUNK, count)
        yield start, stop, stream(seed, purpose, chunk_index)
