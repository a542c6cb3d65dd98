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
once their domains and codomains are seen to agree.  Reports render as text
or JSON and parse back losslessly.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from dataclasses import asdict, dataclass, field
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

    def line(self) -> str:
        head = "pass" if self.ok else "FAIL"
        bits = [f"{head}  {self.law}"]
        if self.grades:
            bits.append("grades=" + ",".join(self.grades))
        if self.sets:
            bits.append("sets=" + ",".join(self.sets))
        if not self.ok:
            if self.witness is not None:
                bits.append(f"witness={self.witness}")
            if self.lhs is not None:
                bits.append(f"lhs={self.lhs}")
            if self.rhs is not None:
                bits.append(f"rhs={self.rhs}")
        if self.note:
            bits.append(f"note={self.note}")
        return "  ".join(bits)

    def to_dict(self) -> dict:
        return {**asdict(self), "grades": list(self.grades), "sets": list(self.sets)}


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


@dataclass
class Report:
    title: str
    records: list[LawRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def add(self, record: LawRecord) -> None:
        self.records.append(record)

    def failures(self) -> list[LawRecord]:
        return [r for r in self.records if not r.ok]

    def compare(self, law, grades, sets, dom, cod, lhs=None, rhs=None, note="") -> LawRecord:
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
        # most instances pass: equal rows skip the call
        failure = None if lhs == rhs else mismatch(dom, cod, lhs, rhs)
        if failure is None:
            rec = LawRecord(law, tuple(grades), tuple(sets), True, None, None, None, note)
        else:
            rec = LawRecord(law, tuple(grades), tuple(sets), False, *failure, note)
        self.records.append(rec)
        return rec

    def summary(self) -> str:
        bad = len(self.failures())
        verdict = "OK" if bad == 0 else f"{bad} failing"
        return f"{self.title}: {len(self.records)} checks, {verdict}"

    def to_text(self, failures_only: bool = True) -> str:
        lines = [self.summary()]
        for r in self.records:
            if r.ok and failures_only:
                continue
            lines.append("  " + r.line())
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

        records = ",\n".join(start(r.law, r.grades, r.sets, r.ok, r.witness, r.lhs, r.rhs)
                              + _value(r.note) + "\n    }" for r in self.records)
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
