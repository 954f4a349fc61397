"""The history format: every event kind with its fields, the log that writes
them, and the readers that replay them.

A history is one JSON object a line. :data:`EVENTS` declares each event
kind once: its fields in the order its writer gives them, and the JSON type
that the replay needs of each field it reads. Every writer builds its event
through :func:`event`, which refuses any other fields; the replay checks
the fields it reads against the same table, and the report reader's text
prefixes are built from it. This module imports nothing from the search or
the command line.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from typing import Sequence

from .arch import chromosome_hash
from .files import atomic_write, is_real, is_real_list
from .predict import LabeledRecord


class HistoryError(ValueError):
    """A history's events contradict each other or lack a field."""


RUN_CONFIG = "run-config"
SAMPLED = "sampled"
OFFSPRING = "offspring"
FILTERED_THETA = "filtered-theta"
SAMPLING_SHORTFALL = "sampling-shortfall"
EVALUATED = "evaluated"
FILTERED_MU = "filtered-mu"
EVAL_FAILED = "eval-failed"
SELECTED = "selected"
ITERATION_SUMMARY = "iteration-summary"


_GENE_LINE = {"k": None, "hash": str, "genes": list, "oh_max": None}

#: Every event kind a history holds: its fields in write order, each with
#: the JSON type the replay requires of it (``object``: any value), or None
#: where no replay reads it. A summary's ``s`` and ``p`` must also hold
#: strings; a gene line's genes are checked where they are read, once per
#: hash, by :meth:`HistoryReplay.genes_of`.
EVENTS = {
    RUN_CONFIG: {
        "k": None, "nas": None, "space": None, "accelerator": None,
        "evaluator": None, "cost_mode": None,
    },
    SAMPLED: _GENE_LINE,
    OFFSPRING: _GENE_LINE,
    FILTERED_THETA: _GENE_LINE,
    SAMPLING_SHORTFALL: {"k": None, "found": None, "target": None},
    EVALUATED: {
        "k": object, "hash": str, "acc_avg": object, "et_avg": object,
        "exit_ratios": list, "accuracy_per_exit": None, "sample_counts": None,
    },
    FILTERED_MU: {"k": None, "hash": str, "er_last": None},
    EVAL_FAILED: {"k": None, "hash": str, "error": None},
    SELECTED: {"k": None, "parents": None, "pool": None},
    ITERATION_SUMMARY: {"k": int, "s": list, "p": list, "stats": object},
}
#: The rejection kinds, each with the reason recorded for its hash.
REJECTS = {FILTERED_MU: "mu", EVAL_FAILED: "evaluation-failed"}

#: Per kind, the fields the replay reads and the type each must have.
_READS = {
    kind: {name: t for name, t in fields.items() if t is not None}
    for kind, fields in EVENTS.items()
}
#: The kinds whose lines carry genes; a hash is taken over the genes, so
#: they share one map.
_GENE_KINDS = tuple(kind for kind, fields in EVENTS.items() if "genes" in fields)
_TYPE_NAMES = {str: "a string", list: "a list", int: "an integer"}


def event(kind: str, **fields) -> dict:
    """The ``kind`` event of ``fields``, which must be the fields
    :data:`EVENTS` lists for ``kind``; any others raise :class:`TypeError`."""
    if fields.keys() != EVENTS[kind].keys():
        raise TypeError(f"{kind} event takes {list(EVENTS[kind])}, not {list(fields)}")
    return {"event": kind, **fields}


#: The encoder of every history line. ``json.dumps`` with these arguments
#: builds this same encoder on each call; one shared instance writes the
#: same bytes without that cost.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def _event_line(ev: dict) -> str:
    """One history line; a non-finite number raises rather than being
    written as a ``NaN`` or ``Infinity`` literal no reader accepts."""
    return _ENCODER.encode(ev) + "\n"


class HistoryLog:
    """Append-only JSONL event log; one event per line, no timestamps, so
    identical runs produce identical bytes. Each line is flushed as it is
    written: a resume after a crash reads every committed event, and a
    forked worker inherits no unwritten buffer.

    The file is first replaced, atomically, by ``kept_lines``: none for a
    new history, the kept prefix of the history a resume continues, written
    as it was read. The log keeps every event of its history in log order
    (``events``: ``kept_events``, the parsed prefix, then each event
    appended) and a sha256 of all the text the file should hold, which
    :meth:`check` compares with the file."""

    def __init__(
        self,
        path: str | None,
        kept_lines: Sequence[str] = (),
        kept_events: Sequence[dict] = (),
    ):
        self.path = path
        self.events = list(kept_events)
        text = "".join(kept_lines)
        self._sha = hashlib.sha256(text.encode("utf-8"))
        self._fh = None
        if path is not None:
            atomic_write(path, text)
            # Appending, so text another writer adds stays where
            # :meth:`check` sees it.
            self._fh = open(path, "a", encoding="utf-8")

    def append(self, ev: dict) -> None:
        self.events.append(ev)
        if self._fh is not None:
            line = _event_line(ev)
            self._fh.write(line)
            self._fh.flush()
            self._sha.update(line.encode("utf-8"))

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def check(self) -> None:
        """Raise :class:`HistoryError` unless the file holds exactly the
        text this log wrote, so that :attr:`events` describe it."""
        if self.path is None:
            return
        with open(self.path, "rb") as fh:
            on_disk = hashlib.sha256(fh.read()).digest()
        if on_disk != self._sha.digest():
            raise HistoryError(f"{self.path} changed while the search wrote it")


def _committed_lines(path: str) -> list[str]:
    """The committed lines of a history file. :class:`HistoryLog` ends
    every committed event with a newline, so a final chunk without one is a
    write cut short by a crash: it is dropped."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if lines and not lines[-1].endswith("\n"):
        lines.pop()  # only the final chunk can lack one
    return lines


def _parse_line(path: str, number: int, line: str) -> dict:
    """The event of line ``number`` (from 1) of the history at ``path``;
    a line that is not a JSON object raises :class:`HistoryError`."""
    try:
        ev = json.loads(line)
    except json.JSONDecodeError as exc:
        raise HistoryError(
            f"{path} line {number} is not valid JSON: {exc.msg} (char {exc.pos})"
        ) from None
    if not isinstance(ev, dict):
        raise HistoryError(f"{path} line {number} is not a JSON object")
    return ev


def read_lines(path: str) -> tuple[list[str], list[dict]]:
    """The committed non-blank lines of a history file and their events,
    each line parsed once by :func:`_parse_line`."""
    lines, events = [], []
    for number, line in enumerate(_committed_lines(path), 1):
        if line.strip():
            lines.append(line)
            events.append(_parse_line(path, number, line))
    return lines, events


def read_history(path: str) -> list[dict]:
    """Parse every committed line of a history file; a line that is not a
    JSON object raises :class:`HistoryError`, naming its line."""
    return read_lines(path)[1]


# ``_event_line`` sorts keys, so a gene line starts with its kind, and fixed
# separators let its hash, and the kind of an ``evaluated`` line, be matched
# as one exact substring.
_GENE_PREFIXES = tuple(f'{{"event":"{kind}"' for kind in _GENE_KINDS)
_HASH = '"hash":"'
# The hash field with the whitespace JSON allows around its colon.
_SPACED_HASH = re.compile(r'"hash"[ \t\n\r]*:[ \t\n\r]*"([^"]*)"')
_EVALUATED = f'"event":"{EVALUATED}"'
# The kinds a report reads, as any JSON line that holds one spells them.
_REPORT_KINDS = tuple(
    f'"{kind}"' for kind in (EVALUATED, ITERATION_SUMMARY, *_GENE_KINDS)
)


def read_report_events(path: str) -> list[dict]:
    """The events of a history that a report of its last labeled archive
    uses, in log order: the first line, every ``evaluated`` and
    ``iteration-summary`` line, and the gene lines of the hashes labeled at
    the last summary. A line that starts as ``_event_line`` starts a gene
    line is parsed only if the hash it names is labeled (read from the
    exact ``"hash":"`` text, or, where that is missing, from the field as
    spaced however JSON allows); any other line
    only if it names a kind the report reads, however it is spaced or its
    keys ordered. So a corrupt line of another kind does not stop the
    report, and a line kept as written by ``--resume`` is read as
    :func:`read_history` reads it; the rule for a torn last line is
    :func:`read_history`'s."""
    parsed: dict[int, dict] = {}
    gene_lines: list[tuple[int, str, str]] = []
    lines = _committed_lines(path)
    first = next((i for i, line in enumerate(lines) if line.strip()), None)
    for i, line in enumerate(lines):
        if i != first and line.startswith(_GENE_PREFIXES):
            key = line.partition(_HASH)[2].partition('"')[0]
            if not key:  # respelled after its kind, as ``--resume`` may keep it
                match = _SPACED_HASH.search(line)
                key = match[1] if match else ""
            gene_lines.append((i, key, line))
        elif (
            i == first
            or _EVALUATED in line  # most lines a report parses: one scan
            or any(kind in line for kind in _REPORT_KINDS)
        ):
            parsed[i] = _parse_line(path, i + 1, line)
    summaries = [
        ev for ev in parsed.values() if ev.get("event") == ITERATION_SUMMARY
    ]
    try:
        labeled = set(summaries[-1].get("p", ())) if summaries else set()
    except TypeError:  # a malformed ``p``, which :func:`replay_history` names
        labeled = set()
    for i, key, line in gene_lines:
        if key in labeled:
            parsed[i] = _parse_line(path, i + 1, line)
    return [parsed[i] for i in sorted(parsed)]


@dataclass
class HistoryReplay:
    """What a history records, read in one walk over its events."""

    header: dict | None  # the ``run-config`` event, if the history has one
    genes: dict[str, tuple[int, ...]] = field(default_factory=dict)
    evaluated: list[dict] = field(default_factory=list)  # in log order
    by_hash: dict[str, dict] = field(default_factory=dict)  # last evaluation
    rejected: dict[str, str] = field(default_factory=dict)  # REJECTS values
    summaries: list[dict] = field(default_factory=list)
    # Hash -> the genes tuple already checked to hash to it.
    _verified: dict[str, tuple[int, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def labeled(self) -> frozenset[str]:
        """Hashes labeled at the last summary."""
        return frozenset(self.summaries[-1]["p"] if self.summaries else ())

    def genes_of(self, h: str) -> tuple[int, ...] | None:
        """The genes of hash ``h`` from its last gene line, or None if no
        gene line names it. Genes that are not all integers, or do not hash
        to ``h``, raise :class:`HistoryError`: every reader takes genes from
        here, so an altered gene line never enters a state, a front or an
        audit."""
        genes = self.genes.get(h)
        if genes is not None and self._verified.get(h) is not genes:
            # Digit strings hash like the integers they spell. ``sum``
            # refuses a string, a list or null and turns a float into a
            # float, at a fifth of the cost of a check per gene (a report
            # checks every labeled hash); a bool sums to an int, but its
            # text fails the hash check.
            try:
                integral = type(sum(genes)) is int
            except TypeError:
                integral = False
            if not integral:
                raise HistoryError(f"the genes recorded for {h} are not integers")
            if chromosome_hash(genes) != h:
                raise HistoryError(f"the genes recorded for {h} do not hash to it")
            self._verified[h] = genes
        return genes

    def exit_ratios(self, h: str) -> list:
        """The exit ratios of the last evaluation of ``h``. Ratios that are
        not a nonempty list of finite numbers raise :class:`HistoryError`;
        they are checked here, where they are read, not in the replay."""
        ratios = self.by_hash[h]["exit_ratios"]
        if not (ratios and is_real_list(ratios)):
            raise HistoryError(f"exit ratios of {h} must be one or more finite numbers")
        return ratios

    def labeled_records(self) -> list[LabeledRecord]:
        """The labeled archive at the last summary, in hash order."""
        records = []
        for h in sorted(self.labeled):
            genes = self.genes_of(h)
            if genes is None or h not in self.by_hash:
                missing = "genes" if genes is None else "evaluation"
                raise HistoryError(f"labeled {h} has no recorded {missing}")
            records.append(
                LabeledRecord(
                    genes=genes,
                    acc_avg=self.by_hash[h]["acc_avg"],
                    et_avg=self.by_hash[h]["et_avg"],
                )
            )
        return records


def _require(ev: dict, kind: str) -> None:
    """The fields of ``ev`` that the replay reads: a missing one raises
    :class:`KeyError`, one of the wrong type :class:`HistoryError`."""
    for name, t in _READS[kind].items():
        if not isinstance(ev[name], t):
            raise HistoryError(f"{kind} event field {name} must be {_TYPE_NAMES[t]}")


def replay_history(events: Sequence[dict]) -> HistoryReplay:
    """Walk a history's events once, all of them. A hash is taken over the
    genes, so sampled, bred and θ-filtered genes share one map. An event
    of an unknown kind, or whose kind is no string, is skipped."""
    has_header = bool(events) and events[0].get("event") == RUN_CONFIG
    history = HistoryReplay(header=events[0] if has_header else None)
    try:
        for ev in events:
            kind = ev.get("event")
            if not isinstance(kind, str):
                continue
            if kind in _GENE_KINDS:
                h, genes = ev["hash"], ev["genes"]
                if not (isinstance(h, str) and isinstance(genes, list)):
                    _require(ev, kind)  # raises, naming the field
                history.genes[h] = tuple(genes)
            elif kind == EVALUATED:
                _require(ev, kind)
                if not (is_real(ev["acc_avg"]) and is_real(ev["et_avg"])):
                    raise HistoryError(f"evaluation of {ev['hash']} is not finite")
                history.evaluated.append(ev)
                history.by_hash[ev["hash"]] = ev
            elif kind in REJECTS:
                _require(ev, kind)
                history.rejected[ev["hash"]] = REJECTS[kind]
            elif kind == ITERATION_SUMMARY:
                _require(ev, kind)
                for name in ("s", "p"):
                    if not set(map(type, ev[name])) <= {str}:
                        raise HistoryError(
                            f"{kind} event field {name} must hold strings"
                        )
                history.summaries.append(ev)
    except KeyError as exc:
        raise HistoryError(f"{kind} event lacks {exc.args[0]}") from None
    return history


def header_section(header: dict | None, name: str, parse):
    """``parse`` of the ``name`` section of a run-config header. A missing
    header, or a section missing, not shaped as the search writes it, or
    holding a value ``parse`` refuses, raises :class:`HistoryError`."""
    if header is None:
        raise HistoryError(f"history lacks a {RUN_CONFIG} header")
    try:
        return parse(header[name])
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise HistoryError(f"malformed run-config header: {name}: {exc!r}") from exc
