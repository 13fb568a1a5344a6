"""Layer-boundary tracing installed from outside the package.

The tracer replaces the names each calling module imported (for example
``hochschild.rank`` or ``cli.classify_actions``) with wrappers that record a
span per call, and puts the originals back on ``restore``.  Nothing under
``src/`` is edited.  ``SimplicialSet.face`` runs millions of times per pass,
so it only gets a call counter, not a span.

Spans are kept in memory as ``[name, start, end, parent, job]`` lists and
written out by ``dump`` when the run ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time

# span name -> [(module attribute path, attribute name), ...]; every binding of
# one function gets its own wrapper around the original, all feeding one name.
SPANNED = {
    "cli": [("cli", "main")],
    "ordering.classify_actions": [("cli", "classify_actions"),
                                  ("hochschild", "classify_actions")],
    "ordering.classify_nncmo": [("cli", "classify_nncmo"),
                                ("hochschild", "classify_nncmo"),
                                ("ordering", "classify_nncmo")],
    "ordering.search_nncmo": [("cli", "search_nncmo"), ("ordering", "search_nncmo")],
    "ordering.check_nncmo_full": [("cli", "check_nncmo_full")],
    "functors.morphism": [("hochschild", "loday_on_morphism"),
                          ("hochschild", "hom_functor_on_morphism")],
    "hochschild.make_spec": [("cli", "make_spec"), ("hochschild", "make_spec")],
    "hochschild.build_complex": [("cli", "build_complex"), ("hochschild", "build_complex")],
    "exact.rank": [("hochschild", "rank")],
    "exact.nullspace": [("hochschild", "nullspace")],
    "exact.solve": [("hochschild", "solve")],
    # Matrix.__mul__ calls the module-level name, so this also sees ``a * b``.
    "exact.mat_mul": [("exact", "mat_mul")],
}


def _count_work(name, args, result, counts):
    """Work counts taken at the same boundary as the span."""
    if name == "exact.rank":
        m = args[0]
        counts["exact.rank.cells"] += m.rows * m.cols
        counts["exact.rank.nnz"] += len(m.entries)
    elif name == "functors.morphism":
        counts["functors.morphism.nnz"] += len(result.entries)
    elif name == "ordering.search_nncmo":
        counts["ordering.search_nncmo.nodes"] += result.nodes


COUNTED = ("exact.rank.cells", "exact.rank.nnz", "functors.morphism.nnz",
           "ordering.search_nncmo.nodes", "simplicial.face.calls")


class Tracer:
    def __init__(self, hochord_modules: dict):
        self.modules = hochord_modules
        self.spans: list[list] = []
        self.counts = dict.fromkeys(COUNTED, 0)
        self.job = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
        spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()
        _count_work(name, args, result, self.counts)
        return result

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)
        return wrapper

    # -- install / restore ------------------------------------------------
    def install(self):
        for name, sites in SPANNED.items():
            for mod_name, attr in sites:
                mod = self.modules[mod_name]
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(name, orig))
        cls = self.modules["simplicial"].SimplicialSet
        face = cls.face
        counts = self.counts

        def counted_face(X, ref, i):
            counts["simplicial.face.calls"] += 1
            return face(X, ref, i)

        self._saved.append((cls, "face", face))
        cls.face = counted_face

    def restore(self):
        while self._saved:
            obj, attr, orig = self._saved.pop()
            setattr(obj, attr, orig)

    # -- results ------------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals over every recorded span.

        ``<name>.s`` is inclusive time, counting a span only when no ancestor
        has the same name; ``<name>.self_s`` subtracts the direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for idx, (name, start, end, parent, _) in enumerate(spans):
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            dur = end - start
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_time[idx]
            anc = parent
            while anc >= 0 and spans[anc][0] != name:
                anc = spans[anc][3]
            if anc < 0:
                out[name + ".s"] = out.get(name + ".s", 0.0) + dur
        out.update(self.counts)
        return out

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh, separators=(",", ":"))
