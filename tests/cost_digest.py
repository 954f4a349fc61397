"""A digest of the cost engine's answers on fixed MobileNetV2
architectures, through ``hwcost.CostCache`` and ``hwcost.cost_report``:
per architecture, the cache's per-exit energy-delays, head overheads and
static baseline, and the report's per-exit energies, cycles,
energy-delays and overheads and its plan's end cycles.

Run as a script, it loads the cost engine under a bare ``eenas`` package,
so that no numpy is imported (the real ``__init__`` binds
``eenas.predict``, which imports numpy), and prints the digest of its
first N architectures and whether numpy was loaded. Any interpreter the
package supports may run it, one without numpy included::

    python tests/cost_digest.py 300
"""

import hashlib
import os
import random
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def draw_genes(space, rng: random.Random) -> tuple[int, ...]:
    """A canonical gene vector of ``space``, each presence a coin and each
    option index uniform, drawn with the ``random`` module, whose integer
    draws are the same on every supported interpreter."""
    genes = [0] * space.gene_length
    for pres, h, q in space.mount_genes:
        if pres is None or rng.randrange(2):
            if pres is not None:
                genes[pres] = 1
            genes[h] = rng.randrange(space.n_head_options)
            genes[q] = rng.randrange(space.n_quant_options)
    return tuple(genes)


def cost_digest(n: int) -> str:
    from eenas.arch import SpaceConfig, decode, parse_backbone
    from eenas.hwcost import AcceleratorSpec, CostCache, cost_report

    with open(os.path.join(SRC, "eenas", "data", "mobilenetv2_cifar.txt")) as fh:
        space = SpaceConfig(backbone=parse_backbone(fh.read()))
    accel = AcceleratorSpec()
    cache = CostCache(space, accel)
    rng = random.Random(0)
    digest = hashlib.sha256()
    for _ in range(n):
        genes = draw_genes(space, rng)
        report = cost_report(decode(genes, space), accel, space.num_classes)
        row = (
            genes, cache.et_per_exit(genes), cache.overheads(genes),
            cache.static_et(genes), report.energy_per_exit,
            report.cycles_per_exit, report.et_per_exit, report.overheads,
            report.plan.end,
        )
        digest.update(repr(row).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    package = types.ModuleType("eenas")
    package.__path__ = [os.path.join(SRC, "eenas")]
    sys.modules["eenas"] = package
    print(cost_digest(int(sys.argv[1])))
    print("numpy" in sys.modules)
