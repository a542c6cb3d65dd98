"""Per-layer instrumentation of centrekit, applied from outside.

Each module of the package is a layer.  Its public functions are wrapped in
spans (or, for calls too frequent to time, in counters) and the wrappers are
rebound in every ``centrekit`` module that imported the original name, since
modules import finkit names directly.  ``FinSet``, ``FinFn`` and the monad
classes are patched on the class.  Wrappers pass arguments, results and
exceptions through unchanged; a wrapper whose target no longer exists is
skipped and its metrics read 0.

Per-law time is attributed without touching the suites: the time between
consecutive ``Report.add``/``Report.compare`` calls on one Report is charged
to the law of the record just added (``law.<law>.s``).
"""

import sys
from collections import defaultdict
from time import perf_counter

# per-layer metrics besides law.<law>.s; *_s are self times in seconds,
# and every value is per pass
NAMES = (
    "finkit.finset_n", "finkit.finset_tokens", "finkit.finset_s", "finkit.finfn_n",
    "finkit.finfn_s", "finkit.tensor_n", "finkit.tensor_s", "finkit.tensor_fn_n",
    "finkit.tensor_fn_s", "finkit.then_n", "finkit.then_s", "finkit.structure_map_n",
    "finkit.structure_map_s", "finkit.apply_mor_n", "finkit.apply_mor_s", "finkit.all_fns_n",
    "finkit.split_pair_n",
    "graded_monad.component_n", "graded_monad.component_build_n",
    "graded_monad.component_build_s", "graded_monad.memo_lookups",
    "graded_monad.memo_hit_ratio", "graded_monad.memo_entries", "graded_monad.fmap_n",
    "graded_monad.fmap_s", "graded_monad.commute_maps_n", "graded_monad.commute_maps_s",
    "report.compare_n", "report.compare_elems", "report.compare_s", "report.render_s",
    "report.render_bytes",
    "centre.central_subset_n", "centre.central_subset_s", "centre.restrict_n",
    "centre.restrict_s", "centre.cone_n", "centre.cone_s",
    "relaxations.m_fn_n", "relaxations.m_build_n", "relaxations.m_build_s",
    "relaxations.shuffle_n", "relaxations.concat_n", "relaxations.parse_literal_n",
    "relaxations.parse_literal_s", "relaxations.elements_equal_n",
    "effectlang.parse_s", "effectlang.nodes", "effectlang.commuting_pair_n",
    "effectlang.commuting_pair_s", "effectlang.commuting_pair_distinct_ratio",
    "pomonoid.times_n", "pomonoid.centre_n", "pomonoid.centre_s", "pomonoid.load_s",
    "cli.request_n", "cli.overhead_s", "cli.output_bytes",
)

# spans whose count and self time become <span>_n and <span>_s
SPANS = ("finkit.finset", "finkit.finfn", "finkit.tensor", "finkit.tensor_fn", "finkit.then",
         "finkit.structure_map", "finkit.apply_mor", "graded_monad.component_build",
         "graded_monad.fmap", "graded_monad.commute_maps", "report.compare", "report.render",
         "centre.central_subset", "centre.restrict", "centre.cone", "relaxations.m_build",
         "relaxations.parse_literal", "effectlang.parse", "effectlang.commuting_pair",
         "pomonoid.centre", "pomonoid.load", "cli.main")

STRUCTURE_MAPS = ("gamma", "alpha", "alpha_inv", "lam", "lam_inv", "rho", "rho_inv")
COMPONENTS = ("unit", "mult", "strength", "lift", "costrength")
ACCESSORS = ("unit_fn", "mult_fn", "lift_fn", "strength_fn", "costrength_fn")
AST_FIELDS = ("arg", "left", "right", "bound", "body")


def _rebind(orig, wrapped) -> None:
    """Replace ``orig`` by ``wrapped`` wherever a centrekit module bound it."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "centrekit" or modname.startswith("centrekit.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _count_nodes(node) -> int:
    n, todo = 0, [node]
    while todo:
        cur = todo.pop()
        if cur is None:
            continue
        n += 1
        todo.extend(getattr(cur, f, None) for f in AST_FIELDS)
    return n


class Layers:
    def __init__(self, spans):
        self.spans = spans
        self.n = defaultdict(int)
        self.law_s = defaultdict(float)
        self._last = {}       # id(Report) -> time its last record was added
        self._monads = []     # monads created during the current scan
        self._pairs = set()   # distinct commuting_pair calls, keyed by scan
        self._scan = 0

    # --- wrapping helpers ---------------------------------------------------

    def _fn(self, module, attr, make) -> None:
        orig = getattr(module, attr, None)
        if orig is not None:
            _rebind(orig, make(orig))

    def _method(self, cls, attr, make) -> None:
        orig = cls.__dict__.get(attr) if cls is not None else None
        if orig is not None:
            setattr(cls, attr, make(orig))

    def _span(self, name):
        return lambda fn: self.spans.wrap(name, fn)

    def _counter(self, name):
        n = self.n

        def make(fn):
            def counted(*args, **kwargs):
                n[name] += 1
                return fn(*args, **kwargs)
            counted.__wrapped__ = fn
            return counted
        return make

    def _charge(self, report, law) -> None:
        t = perf_counter()
        last = self._last.get(id(report))
        if last is not None:
            self.law_s[law] += t - last
        self._last[id(report)] = t

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        from centrekit import centre, cli, effectlang, finkit, graded_monad, pomonoid, relaxations, report

        span, counter = self._span, self._counter
        n = self.n

        def finset_init(orig):
            wrapped = self.spans.wrap("finkit.finset", orig)

            def init(fs, *args, **kwargs):
                wrapped(fs, *args, **kwargs)
                n["finkit.finset_tokens"] += len(getattr(fs, "elems", ()))
            return init

        self._method(getattr(finkit, "FinSet", None), "__init__", finset_init)
        self._method(getattr(finkit, "FinFn", None), "__init__", span("finkit.finfn"))
        self._method(getattr(finkit, "FinFn", None), "then", span("finkit.then"))
        self._fn(finkit, "tensor", span("finkit.tensor"))
        self._fn(finkit, "tensor_fn", span("finkit.tensor_fn"))
        for name in STRUCTURE_MAPS:
            self._fn(finkit, name, span("finkit.structure_map"))
        self._fn(finkit, "apply_mor", span("finkit.apply_mor"))
        self._fn(finkit, "all_fns", counter("finkit.all_fns_n"))
        self._fn(finkit, "split_pair", counter("finkit.split_pair_n"))

        self._install_monad(graded_monad, centre)
        self._fn(graded_monad, "derive_costrength", span("graded_monad.component_build"))
        self._fn(graded_monad, "commute_maps", span("graded_monad.commute_maps"))

        self._install_report(report)

        self._fn(centre, "central_subset", span("centre.central_subset"))
        self._fn(centre, "check_central_cone", span("centre.cone"))

        DGM = getattr(relaxations, "DuoidalGradedMonad", None)

        def dgm_init(orig):
            def init(dm, *args, **kwargs):
                orig(dm, *args, **kwargs)
                m = getattr(dm, "m", None)
                if callable(m):
                    dm.m = self.spans.wrap("relaxations.m_build", m)
            return init

        self._method(DGM, "__init__", dgm_init)
        self._method(DGM, "m_fn", counter("relaxations.m_fn_n"))
        self._method(DGM, "elements_equal", counter("relaxations.elements_equal_n"))
        self._fn(relaxations, "language_shuffle", counter("relaxations.shuffle_n"))
        self._fn(relaxations, "language_concat", counter("relaxations.concat_n"))
        self._fn(relaxations, "parse_language_literal", span("relaxations.parse_literal"))

        def parse(orig):
            wrapped = self.spans.wrap("effectlang.parse", orig)

            def parse_program(*args, **kwargs):
                program = wrapped(*args, **kwargs)
                n["effectlang.nodes"] += _count_nodes(getattr(program, "body", None))
                return program
            return parse_program

        def pair(orig):
            wrapped = self.spans.wrap("effectlang.commuting_pair", orig)

            def commuting_pair(*args, **kwargs):
                key = tuple(a if isinstance(a, (str, int)) else id(a) for a in args)
                self._pairs.add((self._scan, key, tuple(sorted(kwargs.items()))))
                return wrapped(*args, **kwargs)
            return commuting_pair

        self._fn(effectlang, "parse_program", parse)
        self._fn(graded_monad, "commuting_pair", pair)

        self._method(getattr(pomonoid, "Pomonoid", None), "times", counter("pomonoid.times_n"))
        self._fn(pomonoid, "centre_of_pomonoid", span("pomonoid.centre"))
        for name in ("load_pomonoid", "load_bimonoid", "load_duoid"):
            self._fn(pomonoid, name, span("pomonoid.load"))

        def main(orig):
            wrapped = self.spans.wrap("cli.main", orig)

            def cli_main(*args, **kwargs):
                out = sys.stdout
                before = out.tell() if out.seekable() else 0
                try:
                    return wrapped(*args, **kwargs)
                finally:
                    if out.seekable():
                        n["cli.output_bytes"] += out.tell() - before
            return cli_main

        self._fn(cli, "main", main)

    def _install_monad(self, graded_monad, centre) -> None:
        GSM = getattr(graded_monad, "GradedStrongMonad", None)
        n, spans = self.n, self.spans

        def is_centre_closure(fn) -> bool:
            # the restricted components build_centre_monad assembles
            return (getattr(fn, "__module__", None) == getattr(centre, "__name__", None)
                    and getattr(fn, "__qualname__", "").startswith("build_centre_monad."))

        def post_init(orig):
            def post(m, *args, **kwargs):
                orig(m, *args, **kwargs)
                for attr in COMPONENTS:
                    fn = getattr(m, attr, None)
                    if fn is None or getattr(fn, "_perfbench_build", False):
                        continue
                    if is_centre_closure(fn):
                        fn = spans.wrap("centre.restrict", fn)
                    fn = spans.wrap("graded_monad.component_build", fn)
                    fn._perfbench_build = True
                    setattr(m, attr, fn)
                fmap_fn = getattr(m, "fmap_fn", None)
                if fmap_fn is not None and is_centre_closure(fmap_fn):
                    m.fmap_fn = spans.wrap("centre.restrict", fmap_fn)
                self._monads.append(m)
            return post

        def lookup(component):
            def make(fn):
                def accessor(m, *args, **kwargs):
                    memo = getattr(m, "_memo", None)
                    size = len(memo) if memo is not None else 0
                    try:
                        return fn(m, *args, **kwargs)
                    finally:
                        n["graded_monad.memo_lookups"] += 1
                        if component:
                            n["graded_monad.component_n"] += 1
                        if memo is not None and len(memo) > size:
                            n["graded_monad.memo_misses"] += 1
                return accessor
            return make

        self._method(GSM, "__post_init__", post_init)
        self._method(GSM, "carrier", lookup(False))
        for name in ACCESSORS:
            self._method(GSM, name, lookup(True))
        self._method(GSM, "fmap", self._span("graded_monad.fmap"))

    def _install_report(self, report) -> None:
        Report = getattr(report, "Report", None)
        n, spans = self.n, self.spans

        def init(orig):
            def report_init(rep, *args, **kwargs):
                orig(rep, *args, **kwargs)
                self._last[id(rep)] = perf_counter()
            return report_init

        def add(orig):
            def report_add(rep, record, *args, **kwargs):
                try:
                    return orig(rep, record, *args, **kwargs)
                finally:
                    self._charge(rep, getattr(record, "law", None))
            return report_add

        def extend(orig):
            # records copied from a sub-report were charged there already
            def report_extend(rep, *args, **kwargs):
                try:
                    return orig(rep, *args, **kwargs)
                finally:
                    self._last[id(rep)] = perf_counter()
            return report_extend

        def compare(orig):
            wrapped = spans.wrap("report.compare", orig)

            def report_compare(rep, law, *args, **kwargs):
                try:
                    rec = wrapped(rep, law, *args, **kwargs)
                finally:
                    self._charge(rep, law)
                f = args[2] if len(args) > 2 else kwargs.get("f")
                dom = getattr(f, "dom", ())
                if getattr(rec, "ok", True):
                    n["report.compare_elems"] += len(dom)
                else:
                    elems = list(dom)
                    w = getattr(rec, "witness", None)
                    n["report.compare_elems"] += elems.index(w) + 1 if w in elems else len(elems)
                return rec
            return report_compare

        def to_json(orig):
            wrapped = spans.wrap("report.render", orig)

            def report_to_json(rep, *args, **kwargs):
                text = wrapped(rep, *args, **kwargs)
                n["report.render_bytes"] += len(text.encode()) if isinstance(text, str) else 0
                return text
            return report_to_json

        self._method(Report, "__init__", init)
        self._method(Report, "add", add)
        self._method(Report, "extend", extend)
        self._method(Report, "compare", compare)
        self._method(Report, "to_json", to_json)

    # --- per scan and per pass ------------------------------------------------

    def scan_done(self) -> None:
        """Close one scan: count its memo entries, forget its reports and monads."""
        self.n["graded_monad.memo_entries"] += sum(
            len(getattr(m, "_memo", ())) for m in self._monads)
        self._monads.clear()
        self._last.clear()
        self._scan += 1

    def metrics(self, passes: int) -> dict:
        """Per-pass values of NAMES, plus law.<law>.s for every law seen."""
        out = dict.fromkeys(NAMES, 0)
        for name in SPANS:
            count, self_s = self.spans.totals(name)
            out[f"{name}_n"] = count
            out[f"{name}_s"] = self_s
        out.update(self.n)
        per_pass = {name: out[name] / passes for name in NAMES}
        for law, secs in self.law_s.items():
            per_pass[f"law.{law}.s"] = secs / passes
        lookups = self.n["graded_monad.memo_lookups"]
        per_pass["graded_monad.memo_hit_ratio"] = (
            1 - self.n["graded_monad.memo_misses"] / lookups if lookups else 0.0)
        calls = self.spans.totals("effectlang.commuting_pair")[0]
        per_pass["effectlang.commuting_pair_distinct_ratio"] = (
            len(self._pairs) / calls if calls else 0.0)
        per_pass["cli.request_n"] = out["cli.main_n"] / passes
        per_pass["cli.overhead_s"] = out["cli.main_s"] / passes
        return per_pass
