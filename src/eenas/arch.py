"""Search-space model for early-exit networks.

Defines backbone descriptions (loaded from plain-text files), exit-head and
quantization options, the architecture type itself, and the fixed-length
genotype used by the genetic search. Every mounting point owns a gene
group (presence bit, head option, quantization option), except that the
mandatory final exit has no presence bit; ``SpaceConfig.mount_genes`` is
the one table of where each group lies. All types are immutable after
construction and all operations here are pure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import cached_property
from importlib import resources
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .files import check_fields, check_fixed

if TYPE_CHECKING:  # for an annotation only: pcg loads at a search's first draw
    from .pcg import Draws

GENES_PER_MOUNT = 3  # presence bit, head-option index, quant-option index


class BackboneError(ValueError):
    """Malformed backbone description."""


class ArchitectureError(ValueError):
    """Architecture violating the search-space invariants."""


class ChromosomeError(ValueError):
    """Malformed gene vector."""


def hash_once(cls):
    """Class decorator, applied above ``@dataclass(frozen=True)``: the
    instance hash is the generated field hash, computed on first use and
    kept in the instance ``__dict__`` (as ``cached_property`` keeps its
    values). Equality stays field-based. The kept hash is left out of the
    pickled state, because string hashes differ between processes."""

    def __hash__(self) -> int:
        try:
            return self.__dict__["_field_hash"]
        except KeyError:
            value = hash(tuple(getattr(self, f.name) for f in fields(self)))
            self.__dict__["_field_hash"] = value
            return value

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_field_hash", None)
        return state

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@dataclass(frozen=True)
class BlockSpec:
    """One backbone row: a block repeated ``repetition`` times.

    ``mounts`` lists one mounting-point label per repeated instance (a label
    sits after the instance it names) or is empty for rows without mounts.
    The row stride applies to the first instance; later instances use 1.
    """

    kind: str
    repetition: int
    channels: int
    stride: int
    mounts: tuple[str, ...] = ()

    def __post_init__(self):
        check_fields(self, BackboneError)
        if self.kind not in ("conv2d", "bottleneck"):
            raise BackboneError(f"unknown operator kind {self.kind!r}")
        if self.repetition < 1:
            raise BackboneError("repetition must be >= 1")
        if self.channels < 1:
            raise BackboneError("channels must be >= 1")
        if self.stride not in (1, 2):
            raise BackboneError("stride must be 1 or 2")
        if self.mounts and len(self.mounts) != self.repetition:
            raise BackboneError(
                "mount labels must be '-' or exactly one per repeated block"
            )


@dataclass(frozen=True)
class BlockInstance:
    """A single expanded block with resolved shapes and its mount, if any."""

    kind: str
    in_channels: int
    out_channels: int
    stride: int
    in_size: tuple[int, int]
    out_size: tuple[int, int]
    mount: str | None


@hash_once
@dataclass(frozen=True)
class BackboneSpec:
    """A fixed backbone plus its ordered exit mounting points.

    The last label always denotes the mandatory final exit. Kernel size,
    padding and expansion factor are global, as in the block descriptions
    this format mirrors.
    """

    blocks: tuple[BlockSpec, ...]
    input_shape: tuple[int, int, int]  # (height, width, channels)
    kernel: int = 3
    padding: int = 1
    expansion: int = 6

    def __post_init__(self):
        check_fields(self, BackboneError)
        if not self.blocks:
            raise BackboneError("backbone needs at least one block")
        if len(self.input_shape) != 3 or any(d < 1 for d in self.input_shape):
            raise BackboneError("input shape must be (height, width, channels) >= 1")
        if self.kernel < 1 or self.padding < 0 or self.expansion < 1:
            raise BackboneError("kernel/padding/expansion out of range")
        labels = [m for b in self.blocks for m in b.mounts]
        if len(set(labels)) != len(labels):
            raise BackboneError("mount labels must be unique")
        if not labels:
            raise BackboneError("backbone needs at least the final mount label")
        if not self.blocks[-1].mounts:
            raise BackboneError("the final mount label must follow the last block")

    @cached_property
    def instances(self) -> tuple[BlockInstance, ...]:
        """Blocks expanded per repetition with per-instance strides and shapes."""
        out = []
        h, w, cin = self.input_shape
        for block in self.blocks:
            for rep in range(block.repetition):
                stride = block.stride if rep == 0 else 1
                ho = (h + 2 * self.padding - self.kernel) // stride + 1
                wo = (w + 2 * self.padding - self.kernel) // stride + 1
                if ho < 1 or wo < 1:
                    raise BackboneError("block output collapses to zero size")
                mount = block.mounts[rep] if block.mounts else None
                out.append(
                    BlockInstance(
                        kind=block.kind,
                        in_channels=cin,
                        out_channels=block.channels,
                        stride=stride,
                        in_size=(h, w),
                        out_size=(ho, wo),
                        mount=mount,
                    )
                )
                h, w, cin = ho, wo, block.channels
        return tuple(out)

    @cached_property
    def mount_labels(self) -> tuple[str, ...]:
        return tuple(m for b in self.blocks for m in b.mounts)

    @property
    def optional_mounts(self) -> tuple[str, ...]:
        return self.mount_labels[:-1]

    @property
    def final_mount(self) -> str:
        return self.mount_labels[-1]

    @property
    def n_optional(self) -> int:
        return len(self.mount_labels) - 1

    def mount_position(self, label: str) -> int:
        """Index of the block instance the label sits after."""
        for idx, inst in enumerate(self.instances):
            if inst.mount == label:
                return idx
        raise BackboneError(f"unknown mount label {label!r}")

    def to_json(self) -> dict:
        return {
            "input_shape": list(self.input_shape),
            "kernel": self.kernel,
            "padding": self.padding,
            "expansion": self.expansion,
            "blocks": [
                {
                    "kind": b.kind,
                    "repetition": b.repetition,
                    "mounts": list(b.mounts),
                    "channels": b.channels,
                    "stride": b.stride,
                }
                for b in self.blocks
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BackboneSpec":
        blocks = tuple(
            BlockSpec(b["kind"], b["repetition"], b["channels"], b["stride"],
                      tuple(b.get("mounts", ())))
            for b in data["blocks"]
        )
        return cls(blocks, tuple(data["input_shape"]), data["kernel"],
                   data["padding"], data["expansion"])


def parse_backbone(text: str) -> BackboneSpec:
    """Parse the plain-text backbone format.

    Lines: ``input H W C``, ``kernel N``, ``padding N``, ``expansion N`` and
    ``block KIND REPETITION MOUNTS CHANNELS STRIDE`` where MOUNTS is ``-`` or
    a comma-separated label list. ``#`` starts a comment.
    """
    input_shape = None
    fields = {"kernel": 3, "padding": 1, "expansion": 6}
    blocks = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        try:
            if tok[0] == "input":
                input_shape = (int(tok[1]), int(tok[2]), int(tok[3]))
            elif tok[0] in fields:
                fields[tok[0]] = int(tok[1])
            elif tok[0] == "block":
                kind, rep, mounts, ch, stride = tok[1:6]
                labels = () if mounts == "-" else tuple(mounts.split(","))
                blocks.append(
                    BlockSpec(
                        kind=kind,
                        repetition=int(rep),
                        channels=int(ch),
                        stride=int(stride),
                        mounts=labels,
                    )
                )
            else:
                raise BackboneError(f"line {lineno}: unknown directive {tok[0]!r}")
        except (IndexError, ValueError) as exc:
            if isinstance(exc, BackboneError):
                raise
            raise BackboneError(f"line {lineno}: cannot parse {raw!r}") from exc
    if input_shape is None:
        raise BackboneError("missing 'input' line")
    return BackboneSpec(blocks=tuple(blocks), input_shape=input_shape, **fields)


def load_backbone(path: str) -> BackboneSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_backbone(fh.read())


def builtin_backbone(name: str) -> BackboneSpec:
    """Load a bundled backbone description by name (e.g. 'mobilenetv2_cifar')."""
    ref = resources.files("eenas.data").joinpath(f"{name}.txt")
    try:
        return parse_backbone(ref.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise BackboneError(f"no bundled backbone named {name!r}") from exc


@dataclass(frozen=True)
class ExitHeadSpec:
    """Classifier head attached at a mounting point: max-pool to a square
    spatial target, then one or two linear layers."""

    pooled_size: int = 4
    depth: int = 1
    hidden_width: int = 128

    def __post_init__(self):
        check_fields(self, ArchitectureError)
        if self.pooled_size < 1:
            raise ArchitectureError("pooled size must be >= 1")
        if self.depth not in (1, 2):
            raise ArchitectureError("head depth must be 1 or 2")
        if self.hidden_width < 1:
            raise ArchitectureError("hidden width must be >= 1")


#: Bit width treated as "leave values unquantized".
UNQUANTIZED_BITS = 32


def _check_bit_widths(*bits: int) -> None:
    for b in bits:
        if not 2 <= b <= UNQUANTIZED_BITS:
            raise ArchitectureError(f"bit width {b} out of range [2, 32]")


class ExitPlacement(NamedTuple):
    """One exit: the mount it hangs at, its head, and the bit width that
    quantizes the head."""

    mount: str
    head: ExitHeadSpec
    bits: int


@dataclass(frozen=True)
class EennArchitecture:
    """A backbone quantized at ``backbone_bits`` plus its ordered exits,
    the last one mandatory."""

    backbone: BackboneSpec
    exits: tuple[ExitPlacement, ...]
    backbone_bits: int = 8

    def __post_init__(self):
        labels = self.backbone.mount_labels
        order = {label: i for i, label in enumerate(labels)}
        if not self.exits:
            raise ArchitectureError("architecture needs at least the final exit")
        seen = []
        for placement in self.exits:
            if placement.mount not in order:
                raise ArchitectureError(f"unknown mount label {placement.mount!r}")
            seen.append(order[placement.mount])
        if seen != sorted(set(seen)):
            raise ArchitectureError("exits must be unique and ordered by depth")
        if self.exits[-1].mount != self.backbone.final_mount:
            raise ArchitectureError("the final mount must carry the last exit")
        _check_bit_widths(self.backbone_bits, *(e.bits for e in self.exits))

    @property
    def m(self) -> int:
        return len(self.exits)


@hash_once
@dataclass(frozen=True)
class SpaceConfig:
    """The searchable design space over one backbone."""

    backbone: BackboneSpec
    head_options: tuple[ExitHeadSpec, ...] = (
        ExitHeadSpec(depth=1),
        ExitHeadSpec(depth=2),
    )
    exit_bit_options: tuple[int, ...] = (8, 4)
    backbone_bits: int = 8
    num_classes: int = 10

    def __post_init__(self):
        check_fields(self, ArchitectureError)
        if not self.head_options:
            raise ArchitectureError("need at least one head option")
        if not self.exit_bit_options:
            raise ArchitectureError("need at least one quantization option")
        if len(set(self.head_options)) != len(self.head_options):
            raise ArchitectureError("duplicate head options")
        if len(set(self.exit_bit_options)) != len(self.exit_bit_options):
            raise ArchitectureError("duplicate quantization options")
        _check_bit_widths(self.backbone_bits, *self.exit_bit_options)
        if self.num_classes < 2:
            raise ArchitectureError("need at least two classes")

    @property
    def n_optional(self) -> int:
        return self.backbone.n_optional

    @property
    def n_head_options(self) -> int:
        return len(self.head_options)

    @property
    def n_quant_options(self) -> int:
        return len(self.exit_bit_options)

    @property
    def gene_length(self) -> int:
        return GENES_PER_MOUNT * self.n_optional + 2

    @cached_property
    def mount_genes(self) -> tuple[tuple[int | None, int, int], ...]:
        """Per mount, in mount order, the indices of its presence, head and
        quant genes. The final mount's exit is mandatory, so its presence
        index is None: its head and quant genes end the vector."""
        n = GENES_PER_MOUNT * self.n_optional
        optional = tuple((j, j + 1, j + 2) for j in range(0, n, GENES_PER_MOUNT))
        return optional + ((None, n, n + 1),)

    def to_json(self) -> dict:
        return {
            "backbone": self.backbone.to_json(),
            "head_options": [
                {
                    "pooled_size": h.pooled_size,
                    "depth": h.depth,
                    "hidden_width": h.hidden_width,
                    # Every head uses relu6; resume compares headers byte
                    # for byte, so the key stays written.
                    "activation": "relu6",
                }
                for h in self.head_options
            ],
            "exit_bit_options": list(self.exit_bit_options),
            "backbone_bits": self.backbone_bits,
            "num_classes": self.num_classes,
        }

    @classmethod
    def from_json(cls, data: dict) -> "SpaceConfig":
        for h in data["head_options"]:
            check_fixed(h, {"activation": "relu6"}, ArchitectureError, "head option")
        heads = tuple(
            ExitHeadSpec(h["pooled_size"], h["depth"], h["hidden_width"])
            for h in data["head_options"]
        )
        return cls(BackboneSpec.from_json(data["backbone"]), heads,
                   tuple(data["exit_bit_options"]), data["backbone_bits"],
                   data.get("num_classes", 10))


def search_space_size(n_optional: int, n_heads: int, n_quants: int) -> int:
    """Number of distinct architectures: ``pq * (1 + pq)**H`` for H optional
    mounts, p head options and q quantization options.

    Equals the sum over k of C(H, k) * (pq)^(k+1). Computed in exact integer
    arithmetic, so the result cannot silently wrap for any input size.
    """
    if n_optional < 0:
        raise ValueError("optional mount count must be >= 0")
    if n_heads < 1 or n_quants < 1:
        raise ValueError("need at least one head and one quantization option")
    pq = n_heads * n_quants
    return pq * (1 + pq) ** n_optional


def _check_length(genes: tuple[int, ...], space: SpaceConfig) -> None:
    if len(genes) != space.gene_length:
        raise ChromosomeError(
            f"expected {space.gene_length} genes, got {len(genes)}"
        )


def exit_indices(
    genes: tuple[int, ...], space: SpaceConfig
) -> Iterator[tuple[int, int, int]]:
    """Each exit of ``genes`` in exit order, as the position of its mount in
    ``space.backbone.mount_labels``, its head-option index and its
    quant-option index; the final exit comes last.

    Total on canonical-length vectors: genes of absent mounts are ignored.
    Option indices actually used must be in range. Each gene is checked
    when its exit is reached, so a malformed vector raises
    :class:`ChromosomeError` before the first exit it invalidates.
    """
    _check_length(genes, space)
    labels = space.backbone.mount_labels
    n_heads, n_quants = space.n_head_options, space.n_quant_options
    for pos, (pres, h, q) in enumerate(space.mount_genes):
        if pres is not None:
            if genes[pres] not in (0, 1):
                raise ChromosomeError(
                    f"presence gene for mount {labels[pos]!r} must be 0/1"
                )
            if not genes[pres]:
                continue
        head_idx, quant_idx = genes[h], genes[q]
        if not (0 <= head_idx < n_heads):
            raise ChromosomeError(
                f"head option {head_idx} out of range at {labels[pos]!r}"
            )
        if not (0 <= quant_idx < n_quants):
            raise ChromosomeError(
                f"quant option {quant_idx} out of range at {labels[pos]!r}"
            )
        yield pos, head_idx, quant_idx


def decode_exits(
    genes: tuple[int, ...], space: SpaceConfig
) -> Iterator[ExitPlacement]:
    """Each exit of ``genes`` in exit order, read and checked by
    :func:`exit_indices`."""
    labels = space.backbone.mount_labels
    for pos, h, q in exit_indices(genes, space):
        yield ExitPlacement(
            labels[pos], space.head_options[h], space.exit_bit_options[q]
        )


def decode(genes: tuple[int, ...], space: SpaceConfig) -> EennArchitecture:
    """Decode a gene vector into an architecture, checked as
    :func:`exit_indices` checks it."""
    return EennArchitecture(
        space.backbone, tuple(decode_exits(genes, space)), space.backbone_bits
    )


def encode(arch: EennArchitecture, space: SpaceConfig) -> tuple[int, ...]:
    """Encode an in-space architecture into its canonical gene vector."""
    if arch.backbone != space.backbone:
        raise ArchitectureError("the architecture's backbone is not the space's")
    by_mount = {e.mount: e for e in arch.exits}
    genes = [0] * space.gene_length
    for label, (pres, h, q) in zip(space.backbone.mount_labels, space.mount_genes):
        e = by_mount.get(label)
        if e is None:
            continue
        if pres is not None:
            genes[pres] = 1
        genes[h] = _option_index(space.head_options, e.head, label)
        genes[q] = _option_index(space.exit_bit_options, e.bits, label)
    return tuple(genes)


def _option_index(options, value, label):
    try:
        return options.index(value)
    except ValueError:
        raise ArchitectureError(
            f"option {value!r} at mount {label!r} is not part of the space"
        ) from None


def canonicalize(genes: tuple[int, ...], space: SpaceConfig) -> tuple[int, ...]:
    """Zero the option genes of absent mounts so equal architectures share
    one representation."""
    _check_length(genes, space)
    out = list(genes)
    for pres, h, q in space.mount_genes:
        if pres is not None and not out[pres]:
            out[pres] = out[h] = out[q] = 0
    return tuple(out)


def chromosome_hash(genes: tuple[int, ...]) -> str:
    """Stable 16-hex-digit identity of a canonical gene vector."""
    payload = ",".join([str(g) for g in genes]).encode("ascii")
    return hashlib.sha256(payload).hexdigest()[:16]


def sample_architecture(space: SpaceConfig, rng: Draws) -> tuple[int, ...]:
    """Uniform sample: each presence bit is a fair coin, option indices are
    uniform over their ranges, drawn mount by mount even for absent mounts.
    Canonical output, reproducible given the rng."""
    genes = [0] * space.gene_length
    for pres, h, q in space.mount_genes:
        present = pres is None or int(rng.integers(0, 2))
        head = int(rng.integers(0, space.n_head_options))
        quant = int(rng.integers(0, space.n_quant_options))
        if present:
            if pres is not None:
                genes[pres] = 1
            genes[h], genes[q] = head, quant
    return tuple(genes)


def static_counterpart(arch: EennArchitecture) -> EennArchitecture:
    """The same backbone with only the final classifier kept."""
    return EennArchitecture(arch.backbone, arch.exits[-1:], arch.backbone_bits)


def static_genes(genes: tuple[int, ...], space: SpaceConfig) -> tuple[int, ...]:
    """The genes of the static counterpart of ``genes``: every optional
    mount absent, the final exit's options kept. Every gene is checked
    first, as :func:`exit_indices` checks it."""
    list(exit_indices(genes, space))
    out = [0] * space.gene_length
    _, h, q = space.mount_genes[-1]
    out[h], out[q] = genes[h], genes[q]
    return tuple(out)
