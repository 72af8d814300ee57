"""Span tracing of minorcert installed from outside the program.

``Tracer.install`` replaces each traced function in every namespace that
looks it up (module globals, the ``DET_ALGOS`` table, class attributes) with
a wrapper that records a span, and ``Tracer.uninstall`` puts every original
back.  Spans are ``[name, start_ns, end_ns, parent_index]`` lists kept in
memory and written out once the pass ends.  The self time of a span is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

import minorcert
from minorcert import cli, detkit, identity, matrix, numaccretive, ring, rng
from minorcert.matrix import Matrix
from minorcert.ring import MultiPoly

MODULES = (minorcert, cli, detkit, identity, matrix, numaccretive, ring, rng)

# Span names that differ from "<layer>.<function>".
RENAMES = {
    "search_complex_violation": "numaccretive.search",
    "random_accretive": "rng.sample",
}

ACCRETIVE_SUITE = "numaccretive.accretive_suite"

class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._hidden: Counter = Counter()   # span index -> ns of tracer work inside it
        self.counts: Counter = Counter()    # count-only boundaries
        self.peak_terms = 0
        self.claims = 0
        self.suite_claims = 0
        self._installed: list[tuple] = []  # (namespace, key, original, is_dict)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        spans, stack, hidden, clock = self.spans, self._stack, self._hidden, time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0, 0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
                if stack:
                    hidden[stack[-1]] += clock() - rec[2]
            return result

        traced.__wrapped__ = fn
        traced.perfbench_span = name
        return traced

    def _counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        counted.perfbench_span = name
        return counted

    def _observe_terms(self, result):
        if isinstance(result, MultiPoly):
            self.peak_terms = max(self.peak_terms, len(result.terms()))

    def _observe_run(self, result):
        payload, _ = result
        self.claims += sum(1 for item in payload if hasattr(item, "claim"))

    def _observe_suite(self, result):
        self.suite_claims += len(result)

    # -- install / uninstall -----------------------------------------------

    def _targets(self) -> dict:
        """id(original) -> (original, wrapper) for every traced function."""
        targets = {}

        def add(fn, wrapper):
            targets[id(fn)] = (fn, wrapper)

        add(cli.main, self._span("cli.main", cli.main))
        add(cli.run, self._span("cli.run", cli.run, self._observe_run))
        for module, layer in ((identity, "identity"), (numaccretive, "numaccretive"),
                              (detkit, "detkit")):
            for name in module.__all__:
                fn = getattr(module, name)
                if not inspect.isfunction(fn):
                    continue
                span = RENAMES.get(name, f"{layer}.{name}")
                observe = self._observe_suite if span == ACCRETIVE_SUITE else None
                add(fn, self._span(span, fn, observe))
        for fn in (rng.random_int_matrix, rng.random_poly_matrix):
            add(fn, self._span("rng.sample", fn))
        # The engines' exact division is called ~10^6 times on int matrices,
        # so it is counted, not spanned; polynomial division is spanned below.
        add(ring.exact_div, self._counter("detkit.exact_div", ring.exact_div))
        return targets

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        targets = self._targets()
        for module in MODULES:
            for key, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, key, hit[1], is_dict=False)
        for key, value in list(detkit.DET_ALGOS.items()):
            hit = targets.get(id(value))
            if hit is not None and hit[0] is value:
                self._patch(detkit.DET_ALGOS, key, hit[1], is_dict=True)
        for cls, key, span, observe in (
            (MultiPoly, "__mul__", "ring.mul", self._observe_terms),
            (MultiPoly, "__rmul__", "ring.mul", self._observe_terms),
            (MultiPoly, "exact_div", "ring.exact_div", self._observe_terms),
            (Matrix, "block", "matrix.block", None),
            (Matrix, "__matmul__", "matrix.matmul", None),
        ):
            self._patch(cls, key, self._span(span, vars(cls)[key], observe), is_dict=False)

    def _patch(self, namespace, key, wrapper, is_dict):
        original = namespace[key] if is_dict else vars(namespace)[key]
        self._installed.append((namespace, key, original, is_dict))
        if is_dict:
            namespace[key] = wrapper
        else:
            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            namespace, key, original, is_dict = self._installed.pop()
            if is_dict:
                namespace[key] = original
            else:
                setattr(namespace, key, original)

    # -- checks and results ------------------------------------------------

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names still bound to a tracing wrapper anywhere the tracer patches."""
        left = []
        for ns_name, items in (
            *((m.__name__, vars(m).items()) for m in MODULES),
            ("DET_ALGOS", detkit.DET_ALGOS.items()),
            ("MultiPoly", vars(MultiPoly).items()),
            ("Matrix", vars(Matrix).items()),
        ):
            left += [f"{ns_name}.{k}" for k, v in items if hasattr(v, "perfbench_span")]
        return left

    def root_seconds(self) -> float:
        return sum(t1 - t0 for _, t0, t1, parent in self.spans if parent < 0) / 1e9

    def layer_metrics(self) -> dict:
        spans = self.spans
        covered = [0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for idx, ns in self._hidden.items():
            covered[idx] += ns
        calls, self_ns, total_ns = Counter(), Counter(), Counter()
        in_suite = [False] * len(spans)
        suite_eigs = 0
        for i, (name, t0, t1, parent) in enumerate(spans):
            calls[name] += 1
            self_ns[name] += t1 - t0 - covered[i]
            total_ns[name] += t1 - t0
            in_suite[i] = name == ACCRETIVE_SUITE or (parent >= 0 and in_suite[parent])
            if name == "numaccretive.sym_eig" and in_suite[i]:
                suite_eigs += 1

        def secs(ns):
            return ns / 1e9

        def layer_self(prefix):
            return secs(sum(v for k, v in self_ns.items() if k.startswith(prefix)))

        out = {}
        for span in ("ring.mul", "ring.exact_div", "detkit.det_bareiss",
                     "detkit.adjugate", "numaccretive.sym_eig"):
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = secs(self_ns[span])
        out["ring.peak_terms"] = self.peak_terms
        out["detkit.s_functional.calls"] = calls["detkit.s_functional"]
        for span in ("detkit.det_condensation", "detkit.det_cofactor",
                     "numaccretive.search", "matrix.matmul", "rng.sample"):
            out[f"{span}.self_s"] = secs(self_ns[span])
        out["detkit.exact_div.calls"] = self.counts["detkit.exact_div"]
        out["numaccretive.sym_eig.per_claim"] = (
            suite_eigs / self.suite_claims if self.suite_claims else 0.0
        )
        out["numaccretive.self_s"] = layer_self("numaccretive.")
        out["matrix.block.calls"] = calls["matrix.block"]
        out["identity.self_s"] = layer_self("identity.")
        out["identity.claims"] = self.claims
        out["cli.run_s"] = secs(total_ns["cli.run"])
        out["cli.render_s"] = secs(total_ns["cli.main"] - total_ns["cli.run"])
        return out

    def write_spans(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        base = self.spans[0][1] if self.spans else 0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": names,
                    "spans": [[index[n], t0 - base, t1 - base, p]
                              for n, t0, t1, p in self.spans],
                },
                fh,
                separators=(",", ":"),
            )
