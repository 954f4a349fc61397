"""A digest of the search's random stream on fixed seeds and draw programs:
for each seed and iteration k, the stream of ``(seed, spawn_key=(k + 1,))``
makes a fixed program of ``random()``, ``integers(0, n)`` and
``permutation(n)`` draws, and every value drawn goes into the digest.

Run as a script, it loads ``eenas.pcg`` under a bare ``eenas`` package, so
that no numpy is imported (the real ``__init__`` binds ``eenas.predict``,
which imports numpy), and prints the digest of ``PCG64Stream`` and whether
numpy was loaded. Any interpreter the package supports may run it, one
without numpy included::

    python tests/stream_digest.py

:func:`stream_digest` takes the stream factory, so the tests digest
numpy's ``Generator`` the same way.
"""

import hashlib
import os
import random
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64, 10**30)
KS = (0, 1, 5, 100)
DRAWS = 40

#: Ranges of ``integers(0, n)``: the search's small ones, and large ones
#: where Lemire's draw often rejects (2**31 + 5) or never does (2**32).
RANGES = (1, 2, 3, 4, 7, 2**16 + 1, 2**31 + 5, 2**32)


def stream_digest(make) -> str:
    """The digest of the streams ``make(seed, k)``; the draw program comes
    from the ``random`` module, whose integer draws are the same on every
    supported interpreter."""
    plan = random.Random(0)
    digest = hashlib.sha256()
    for seed in SEEDS:
        for k in KS:
            stream = make(seed, k)
            for _ in range(DRAWS):
                op = plan.randrange(3)
                if op == 0:
                    value = stream.random()
                elif op == 1:
                    value = int(stream.integers(0, plan.choice(RANGES)))
                else:
                    value = [int(i) for i in stream.permutation(plan.randrange(65))]
                digest.update(repr(value).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    package = types.ModuleType("eenas")
    package.__path__ = [os.path.join(SRC, "eenas")]
    sys.modules["eenas"] = package
    from eenas.pcg import PCG64Stream

    print(stream_digest(lambda seed, k: PCG64Stream(seed, (k + 1,))))
    print("numpy" in sys.modules)
