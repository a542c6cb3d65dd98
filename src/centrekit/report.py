"""Uniform result records for law checks.

Every suite emits one record per law instance (law name, grades, sets),
with a witness and both sides kept when the instance fails; a law checked
over a scan of instances, as the duoidal laws and ``commute`` are per grade
tuple, emits one record per scan, built by ``failure_record`` from its first
failure.  A suite is a generator of its instances, finished records or
pointwise comparisons, and ``run_suite`` is the one place that turns them
into a Report.  Every comparison goes through ``Report.compare``, which
compares two index rows over a declared domain and codomain with
``finkit.mismatch``: equal rows pass at once, and unequal ones give the
least token of the domain at which they differ.  Two maps are compared as their rows
once their domains and codomains are seen to agree.  A Report keeps each
record as the plain tuple of its ``LawRecord`` fields: a passing comparison
costs one tuple, which the collector stops tracking, and no LawRecord.
``Report.records`` builds the LawRecords when read; the text and JSON
renderings read the tuples, and the JSON parses back losslessly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import asdict, dataclass
from functools import cache

from .finkit import FinFn, check_ends, mismatch


@dataclass
class LawRecord:
    law: str
    grades: tuple[str, ...] = ()
    sets: tuple[str, ...] = ()
    ok: bool = True
    witness: str | None = None
    lhs: str | None = None
    rhs: str | None = None
    note: str = ""

    def fields(self) -> tuple:
        """The record's eight fields in declaration order, as a Report keeps them."""
        return (self.law, self.grades, self.sets, self.ok, self.witness, self.lhs, self.rhs,
                self.note)

    def line(self) -> str:
        return _line(*self.fields())

    def to_dict(self) -> dict:
        return {**asdict(self), "grades": list(self.grades), "sets": list(self.sets)}


def _line(law, grades, sets, ok, witness, lhs, rhs, note) -> str:
    """A record's line of text, from its fields."""
    bits = [f"{'pass' if ok else 'FAIL'}  {law}"]
    if grades:
        bits.append("grades=" + ",".join(grades))
    if sets:
        bits.append("sets=" + ",".join(sets))
    if not ok:
        if witness is not None:
            bits.append(f"witness={witness}")
        if lhs is not None:
            bits.append(f"lhs={lhs}")
        if rhs is not None:
            bits.append(f"rhs={rhs}")
    if note:
        bits.append(f"note={note}")
    return "  ".join(bits)


def endpoints(law: str, dom, cod, dom2, cod2) -> tuple:
    """(dom, cod), once a law's two sides, dom -> cod and dom2 -> cod2, are
    seen to run between the same sets; raises ValueError naming the law."""
    try:
        check_ends(dom, cod, dom2, cod2)
    except ValueError as exc:
        raise ValueError(f"{law}: {exc}") from None
    return dom, cod


def failure_record(law: str, results, grades=(), witness=None) -> LawRecord:
    """The record of a law whose instances a lazy scan checks in order.

    ``results`` yields None for each passing instance and, for a failing one,
    the record's fields from its witness on: (witness[, lhs, rhs[, note]]).
    The first failure is kept; a law that passes carries ``witness``.
    """
    failure = next((r for r in results if r is not None), None)
    if failure is None:
        return LawRecord(law, grades, witness=witness)
    return LawRecord(law, grades, (), False, *failure)


# a record but for its note, whose value and the closing brace follow
_RECORD = """\
    {
      "law": %s,
      "grades": %s,
      "sets": %s,
      "ok": %s,
      "witness": %s,
      "lhs": %s,
      "rhs": %s,
      "note": """


_CONSTANTS = {None: "null", True: "true", False: "false"}


def _value(v) -> str:
    if v.__class__ is str:
        return encode_basestring_ascii(v)
    if v is None or v is True or v is False:
        return _CONSTANTS[v]
    return json.dumps(v)


def _list(items) -> str:
    if not items:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_value, items)) + "\n      ]"


class Report:
    """The records of one law suite, each kept as the plain tuple of its
    LawRecord fields in declaration order; ``records`` builds the LawRecords
    when read."""

    def __init__(self, title: str, records=()):
        self.title = title
        self._rows = [r.fields() for r in records]
        self._failed = sum(not row[3] for row in self._rows)
        self._records = None   # the LawRecords of _rows when last read

    @property
    def records(self) -> list[LawRecord]:
        if self._records is None or len(self._records) != len(self._rows):
            self._records = [LawRecord(*row) for row in self._rows]
        return self._records

    @property
    def ok(self) -> bool:
        return self._failed == 0

    def add(self, record: LawRecord) -> None:
        self._rows.append(record.fields())
        if not record.ok:
            self._failed += 1

    def failures(self) -> list[LawRecord]:
        return [LawRecord(*row) for row in self._rows if not row[3]]

    def compare(self, law, grades, sets, dom, cod, lhs=None, rhs=None, note="") -> None:
        """Record whether two index rows over dom agree.

        lhs[i] and rhs[i] are the positions in cod of the two sides' images
        of dom's i-th token.  Equal rows pass; otherwise the record carries
        the least token of dom at which they differ and both values there.
        Two maps f and g are compared as ``compare(law, grades, sets, f, g[,
        note])``: as the rows f.idx and g.idx over f.dom and f.cod, once
        ``endpoints`` has seen that their domains and codomains agree.
        """
        if isinstance(dom, FinFn):
            f, g = dom, cod
            if lhs is not None:   # the note, passed after the two maps
                note = lhs
            dom, cod = endpoints(law, f.dom, f.cod, g.dom, g.cod)
            lhs, rhs = f.idx, g.idx
        # most instances pass: equal rows skip the call, and their record is one tuple
        if lhs == rhs or (failure := mismatch(dom, cod, lhs, rhs)) is None:
            self._rows.append((law, tuple(grades), tuple(sets), True, None, None, None, note))
        else:
            self._failed += 1
            self._rows.append((law, tuple(grades), tuple(sets), False, *failure, note))

    def summary(self) -> str:
        verdict = "OK" if self._failed == 0 else f"{self._failed} failing"
        return f"{self.title}: {len(self._rows)} checks, {verdict}"

    def to_text(self, failures_only: bool = True) -> str:
        lines = [self.summary()]
        for row in self._rows:
            if row[3] and failures_only:
                continue
            lines.append("  " + _line(*row))
        return "\n".join(lines)

    def to_json(self) -> str:
        """The report as ``json.dumps(..., indent=2)`` renders it, byte for byte.

        json.dumps with an indent runs the pure-Python encoder; the fixed
        record shape is filled in from a template instead, with the C string
        encoder for the values.  A record is rendered but for its note once
        per distinct (law, grades, sets, ok, witness, lhs, rhs) in a report:
        the laws quantified over maps repeat all of these and vary the note.
        """
        listed = cache(_list)

        @cache
        def start(law, grades, sets, ok, witness, lhs, rhs):
            return _RECORD % (_value(law), listed(grades), listed(sets), _value(ok),
                              _value(witness), _value(lhs), _value(rhs))

        records = ",\n".join(start(law, grades, sets, ok, witness, lhs, rhs)
                              + _value(note) + "\n    }"
                              for law, grades, sets, ok, witness, lhs, rhs, note in self._rows)
        records = f"[\n{records}\n  ]" if records else "[]"
        return (f'{{\n  "title": {_value(self.title)},\n  "ok": {_value(self.ok)},\n'
                f'  "records": {records}\n}}')


def run_suite(title: str, instances) -> Report:
    """The Report of a law suite, built from the instances it yields in record order.

    An instance is a finished LawRecord, which is added as it is, or a
    pointwise comparison, which goes through ``Report.compare``: two index
    rows ``(law, grades, sets, dom, cod, lhs, rhs, note)``, or two maps
    ``(law, grades, sets, f, g[, note])``.  Suites build no Report of their
    own.
    """
    rep = Report(title)
    add, compare = rep.add, rep.compare
    for instance in instances:
        if isinstance(instance, LawRecord):
            add(instance)
        else:
            compare(*instance)
    return rep
