import gc
import json

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from centrekit.finkit import FinFn, FinSet, identity_fn, mismatch
from centrekit.report import LawRecord, Report, run_suite


X = FinSet("X", ("a", "b"))


def report_from_json(text):
    """The Report that ``Report.to_json`` rendered as text."""
    data = json.loads(text)
    rep = Report(data["title"])
    for d in data["records"]:
        rep.add(LawRecord(d["law"], tuple(d["grades"]), tuple(d["sets"]), d["ok"], d["witness"],
                          d["lhs"], d["rhs"], d["note"]))
    return rep


def test_record_line_formats():
    rec = LawRecord(law="assoc", grades=("t", "e"), ok=False, witness="a", lhs="p", rhs="q")
    line = rec.line()
    assert line.startswith("FAIL")
    assert "assoc" in line
    assert "grades=t,e" in line
    assert "witness=a" in line and "lhs=p" in line and "rhs=q" in line
    ok = LawRecord(law="unit")
    assert ok.line().startswith("pass")
    assert "witness" not in ok.line()


def test_compare_records_mismatch():
    rep = Report("demo")
    f = identity_fn(X)
    g = FinFn(X, X, {"a": "a", "b": "a"})
    rep.compare("law1", (), (), f, f)
    rep.compare("law2", ("g",), ("X",), f, g)
    assert rep.records[0].ok
    assert not rep.records[1].ok
    assert rep.records[1].witness == "b"
    assert rep.records[1].lhs == "b"
    assert rep.records[1].rhs == "a"
    assert not rep.ok
    assert [r.law for r in rep.failures()] == ["law2"]


def test_compare_requires_same_domain():
    rep = Report("demo")
    Y = FinSet("Y", ("a",))
    with pytest.raises(ValueError):
        rep.compare("law", (), (), identity_fn(X), identity_fn(Y))


def test_run_suite_adds_records_and_compares_tuples():
    f = identity_fn(X)
    g = FinFn(X, X, {"a": "a", "b": "a"})
    given = LawRecord(law="given", ok=False, note="n")
    rep = run_suite("demo", iter([
        given,
        ("same", ("g",), ("X",), f, f),
        ("differ", ("g", "h"), ("X",), f, g, "f then g"),
    ]))
    assert rep.title == "demo"
    assert rep.records == [
        given,
        LawRecord(law="same", grades=("g",), sets=("X",)),
        LawRecord(law="differ", grades=("g", "h"), sets=("X",), ok=False,
                  witness="b", lhs="b", rhs="a", note="f then g"),
    ]


def test_every_suite_record_goes_through_add_or_compare(monkeypatch):
    # per-law timing outside the package wraps exactly these two methods
    from centrekit.graded_monad import (
        check_all,
        check_commutative,
        check_graded_monad_morphism,
        discrete_to_topped_morphism,
        identity_monad,
        multi_error_writer,
    )
    from centrekit.pomonoid import multi_error_pomonoid
    from centrekit.relaxations import derive_monoidal_m

    added = []   # (report, record) in call order
    add, compare = Report.add, Report.compare

    def counted_add(rep, record):
        added.append((rep, record))
        return add(rep, record)

    def counted_compare(rep, *args, **kwargs):
        # the record this comparison makes, as a report of its own has it
        alone = Report("alone")
        compare(alone, *args, **kwargs)
        added.append((rep, *alone.records))
        return compare(rep, *args, **kwargs)

    monkeypatch.setattr(Report, "add", counted_add)
    monkeypatch.setattr(Report, "compare", counted_compare)
    for scan in (lambda: check_all(multi_error_writer(), 1),
                 lambda: check_commutative(multi_error_writer(), 1),
                 lambda: check_graded_monad_morphism(discrete_to_topped_morphism(), 1),
                 lambda: derive_monoidal_m(identity_monad(multi_error_pomonoid()), 1)[1]):
        rep = scan()
        mine = [record for owner, record in added if owner is rep]
        assert rep.records and mine == rep.records


def test_json_round_trip():
    rep = Report("demo")
    rep.add(LawRecord(law="a", grades=("x",), sets=("S",), ok=False, witness="w", lhs="1", rhs="2", note="n"))
    rep.add(LawRecord(law="b"))
    back = report_from_json(rep.to_json())
    assert back.title == rep.title
    assert back.records == rep.records


def test_to_text_failures_only():
    rep = Report("demo")
    rep.add(LawRecord(law="good"))
    rep.add(LawRecord(law="bad", ok=False))
    text = rep.to_text()
    assert "bad" in text and "good" not in text
    full = rep.to_text(failures_only=False)
    assert "good" in full


def reference_json(rep):
    return json.dumps(
        {"title": rep.title, "ok": rep.ok, "records": [r.to_dict() for r in rep.records]},
        indent=2,
        sort_keys=False,
    )


# non-ASCII, quotes, backslashes and control characters all need escaping
texts = st.text(alphabet=st.sampled_from('aZ*,(){}: "\\\n\t\x00\x1f\x7fé€\U0001f600'),
                max_size=6)
optional_texts = st.none() | texts
records = st.builds(
    LawRecord,
    law=texts,
    grades=st.lists(texts, max_size=3).map(tuple),
    sets=st.lists(texts, max_size=3).map(tuple),
    ok=st.booleans(),
    witness=optional_texts,
    lhs=optional_texts,
    rhs=optional_texts,
    note=texts,
)


@settings(max_examples=200, deadline=None)
@given(texts, st.lists(records, max_size=4))
def test_to_json_matches_json_dumps(title, recs):
    rep = Report(title, recs)
    assert rep.to_json() == reference_json(rep)
    assert report_from_json(rep.to_json()).records == rep.records


def test_to_json_of_an_empty_report():
    rep = Report("empty")
    assert rep.to_json() == reference_json(rep)
    rep.add(LawRecord(law="bare"))
    assert rep.to_json() == reference_json(rep)


# a few (law, grades, sets) heads, each repeated with varying bodies: the
# rendering of a repeated head is shared within a report
heads = st.tuples(texts, st.lists(texts, max_size=2).map(tuple),
                  st.lists(texts, max_size=2).map(tuple))
bodies = st.tuples(st.booleans(), optional_texts, optional_texts, optional_texts, texts)


@settings(max_examples=200, deadline=None)
@given(st.lists(heads, min_size=1, max_size=3), st.lists(st.tuples(st.integers(0, 2), bodies),
                                                         max_size=8))
def test_to_json_with_repeated_heads(pool, picks):
    recs = [LawRecord(*pool[i % len(pool)], *body) for i, body in picks]
    rep = Report("heads", recs)
    assert rep.to_json() == reference_json(rep)
    assert report_from_json(rep.to_json()).records == rep.records


def tracked_objects(root):
    """How many GC-tracked objects are reachable from root other than through a type."""
    seen, todo = {id(root)}, [root]
    while todo:
        for obj in gc.get_referents(todo.pop()):
            if gc.is_tracked(obj) and not isinstance(obj, type) and id(obj) not in seen:
                seen.add(id(obj))
                todo.append(obj)
    return len(seen)


def test_a_collected_report_tracks_no_object_per_record():
    from centrekit.graded_monad import check_all, multi_error_writer

    rep = check_all(multi_error_writer(), 3)
    # a full collection checks the youngest generation's tuples ahead of the
    # middle one's, so a record met before its grades tuple waits for the next
    gc.collect()
    gc.collect()
    # the report and the list of its records' field tuples
    assert tracked_objects(rep) <= 10 < len(rep.records)


class ListReport:
    """A report kept as a list of LawRecords, each comparison building one."""

    def __init__(self, title):
        self.title, self.records = title, []

    @property
    def ok(self):
        return all(r.ok for r in self.records)

    def add(self, record):
        self.records.append(record)

    def compare(self, law, grades, sets, dom, cod, lhs=None, rhs=None, note=""):
        if isinstance(dom, FinFn):
            f, g = dom, cod
            note = note if lhs is None else lhs
            dom, cod, lhs, rhs = f.dom, f.cod, f.idx, g.idx
        failure = mismatch(dom, cod, lhs, rhs)
        body = (True, None, None, None) if failure is None else (False, *failure)
        self.records.append(LawRecord(law, tuple(grades), tuple(sets), *body, note))

    def failures(self):
        return [r for r in self.records if not r.ok]

    def summary(self):
        bad = len(self.failures())
        verdict = "OK" if bad == 0 else f"{bad} failing"
        return f"{self.title}: {len(self.records)} checks, {verdict}"

    def to_text(self, failures_only=True):
        return "\n".join([self.summary()] + ["  " + r.line() for r in self.records
                                              if not (r.ok and failures_only)])


tokens = st.lists(st.sampled_from(["a", "b", "é", '"q"', "x\\y", "c\x07"]), unique=True,
                  max_size=3)


@st.composite
def comparisons(draw):
    """A comparison of two rows or two maps over drawn sets, the second side
    equal to the first but at a few drawn places."""
    cod = FinSet("C", draw(tokens.filter(len)))
    dom = FinSet("D", draw(tokens))
    side = st.integers(0, len(cod) - 1)
    lhs = draw(st.lists(side, min_size=len(dom), max_size=len(dom)))
    rhs = list(lhs)
    for i in draw(st.lists(st.integers(0, len(dom) - 1), max_size=2) if dom else st.just([])):
        rhs[i] = draw(side)
    head = (draw(texts), draw(st.lists(texts, max_size=2)), draw(st.lists(texts, max_size=2)))
    if draw(st.booleans()):
        return ("compare", *head, dom, cod, tuple(lhs), tuple(rhs), draw(texts))
    f, g = FinFn._table(dom, cod, tuple(lhs)), FinFn._table(dom, cod, tuple(rhs))
    return ("compare", *head, f, g, draw(texts))


calls = st.lists(st.one_of(st.tuples(st.just("add"), records), comparisons(),
                           st.just(("read",))), max_size=8)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(texts, calls)
def test_a_report_of_field_tuples_reads_as_a_list_of_records(title, script):
    rep, ref = Report(title), ListReport(title)
    for op, *args in script:
        if op == "read":   # records read between two additions
            assert rep.records == ref.records
        else:
            getattr(rep, op)(*args)
            getattr(ref, op)(*args)
    assert rep.to_json() == reference_json(ref)
    assert rep.to_text(True) == ref.to_text(True)
    assert rep.to_text(False) == ref.to_text(False)
    assert rep.summary() == ref.summary()
    assert rep.ok == ref.ok
    assert rep.failures() == ref.failures()
    assert rep.records == ref.records
