"""Deterministic random streams.

Every stochastic operation draws from its own child generator derived from
``(seed, label)``, so outputs are reproducible bitwise, independent of the
order in which operations run, and stable across platforms (PCG64 behind a
SeedSequence is fully specified).

Stream labels in use:

====================  =========================================
label                 operation
====================  =========================================
``fps``               farthest-point start index
``link:<name>``       per-link surface sampling
``object``            object pool sampling / subset / noise
``partial``           partial-cloud view direction
``trial:<i>``         per-trial configuration draws (round trip)
``trial:bench``       the configuration timed by ``dro bench``
====================  =========================================
"""

import hashlib

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def substream(seed: int, label: str) -> np.random.Generator:
    """Child generator for one named operation under a master seed."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=8).digest()
    entropy = [int(seed) & _MASK64, int.from_bytes(digest, "little")]
    return np.random.default_rng(np.random.SeedSequence(entropy))
