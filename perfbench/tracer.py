"""Span recorder for the traced run.

The recorder wraps public functions of koszulbench from the outside:
it replaces module and class attributes with timing wrappers and puts
the originals back afterwards. Nothing inside the package changes.

Two kinds of wrapper:
  * a span records (name, start, end, parent span, job id) for every
    call and keeps per-name call counts and self time (duration minus
    the time covered by child spans and leaf calls);
  * a leaf is for hot entry points (LaurentPoly arithmetic,
    hecke.bruhat_leq, dyck_depth called from inside a matrix): it keeps
    only a call count and a total time, which it charges to the
    enclosing span as covered time. A leaf called inside another leaf
    is counted but not timed again.

Spans stay in memory and are written out by `dump` when the run ends.
Work counts (shapes scanned, cells, matrix entries, resolution
summands, elimination operations, stdout characters) are computed from
the arguments and results of wrapped calls.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from math import comb
from time import perf_counter


class Tracer:

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job id]
        self._stack = []         # indexes of open spans
        self._covered = []       # child time of each open span
        self._in_leaf = False
        self.job = -1
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self._undo = []

    # -- wrappers --------------------------------------------------------

    def span(self, name, fn, work=None):
        """Wrap fn in a span. `name` is a string, or a function of the
        call arguments returning one; `work(tracer, args, kwargs, out)`
        adds to the work counts."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            rec = [label, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else -1, tracer.job]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            tracer._covered.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                covered = tracer._covered.pop()
                if tracer._covered:
                    tracer._covered[-1] += end - start
                rec[1], rec[2] = start, end
                tracer.calls[label] += 1
                tracer.self_s[label] += end - start - covered
            if work is not None:
                work(tracer, args, kwargs, out)
            return out

        return wrapper

    def leaf(self, name, fn, work=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            if work is not None:
                work(tracer, args, kwargs, None)
            if tracer._in_leaf:
                return fn(*args, **kwargs)
            tracer._in_leaf = True
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = perf_counter() - start
                tracer._in_leaf = False
                tracer.self_s[name] += spent
                if tracer._covered:
                    tracer._covered[-1] += spent

        return wrapper

    def patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def install(self):
        """Wrap the public entry points of every module. Names another
        module imported directly (koszul.kernel_basis, mult.dyck_depth,
        cli.scan_box, cli.dyck_depth) are wrapped where they are looked
        up. hecke.length is left alone: it runs millions of times."""
        from koszulbench import _linalg, cli, hecke, koszul, mult, shapes
        from koszulbench import weights
        from koszulbench.laurent import LaurentPoly

        span, leaf, patch = self.span, self.leaf, self.patch

        def scanned(t, args, kwargs, out):
            t.work["shapes.scan_box.shapes"] += out.shapes

        def cells(t, args, kwargs, out):
            t.work["shapes.dyck_depth.cells"] += args[0].size

        for owner in (shapes, cli):
            patch(owner, "scan_box",
                  span("shapes.scan_box", owner.scan_box, scanned))
            patch(owner, "dyck_depth",
                  span("shapes.dyck_depth", owner.dyck_depth, cells))
        patch(mult, "dyck_depth",
              leaf("shapes.dyck_depth", mult.dyck_depth, cells))

        def tables(t, args, kwargs, out):
            t.work["hecke.tables"] += 1

        kl = hecke.KLTable
        patch(kl, "__init__", span("hecke.KLTable", kl.__init__, tables))
        patch(kl, "kl_polynomial",
              span("hecke.kl_polynomial", kl.kl_polynomial))
        patch(kl, "inverse_kl", span("hecke.inverse_kl", kl.inverse_kl))
        patch(hecke, "bruhat_leq", leaf("hecke.bruhat_leq", hecke.bruhat_leq))

        def inversion_entries(t, args, kwargs, out):
            k, n = args[:2]
            t.work["mult.entries"] += 2 * comb(n, k) ** 2

        def matrix_entries(t, args, kwargs, out):
            t.work["mult.entries"] += len(out.labels) ** 2

        patch(mult, "kl_inversion_check",
              span("mult.kl_inversion_check", mult.kl_inversion_check,
                   inversion_entries))
        for attr in ("graded_cartan", "delta_ic_matrix"):
            patch(mult, attr, span("mult." + attr, getattr(mult, attr),
                                   matrix_entries))

        for attr, label in (("__add__", "laurent.add"),
                            ("__radd__", "laurent.add"),
                            ("__sub__", "laurent.sub"),
                            ("__rsub__", "laurent.sub"),
                            ("__neg__", "laurent.neg"),
                            ("__mul__", "laurent.mul"),
                            ("__rmul__", "laurent.mul")):
            patch(LaurentPoly, attr, leaf(label, getattr(LaurentPoly, attr)))

        for attr in ("wt_space", "wt_from_blocks", "find_separating_prime",
                     "is_phi_decomposable"):
            patch(weights, attr, span("weights." + attr,
                                      getattr(weights, attr)))

        def resolution_name(args, kwargs):
            field = args[2] if len(args) > 2 else kwargs["field"]
            return ("koszul.resolution_Q"
                    if koszul.as_field(field).name == "Q"
                    else "koszul.resolution_F")

        def resolved(t, args, kwargs, out):
            t.work["koszul.steps"] += len(out.steps) - 1
            t.work["koszul.summands"] += sum(len(s) for s in out.steps[1:])

        patch(koszul, "load_algebra",
              span("koszul.load_algebra", koszul.load_algebra))
        patch(koszul, "minimal_resolution",
              span(resolution_name, koszul.minimal_resolution, resolved))
        patch(koszul, "cartan_inverse",
              span("koszul.cartan_inverse", koszul.cartan_inverse))

        def eliminated(t, args, kwargs, out):
            columns, nrows = args[:2]
            rank = len(columns) - len(out)
            t.work["linalg.kernel_basis.elim_ops"] += (
                nrows * len(columns) * rank)

        for owner in (_linalg, koszul):
            patch(owner, "kernel_basis",
                  span("linalg.kernel_basis", owner.kernel_basis, eliminated))
        for attr in ("det_bareiss", "char_poly", "smith_kernel_basis"):
            patch(_linalg, attr, span("linalg." + attr,
                                      getattr(_linalg, attr)))

        main = cli.main

        def cli_main(argv=None):
            stream = sys.stdout
            before = stream.tell() if stream.seekable() else 0
            try:
                return main(argv)
            finally:
                if stream.seekable():
                    self.work["cli.stdout_bytes"] += stream.tell() - before

        patch(cli, "main", span("cli.main", cli_main))

    # -- results ---------------------------------------------------------

    def metrics(self):
        """Per-layer values by metric name."""
        calls, self_s, work = self.calls, self.self_s, self.work
        out = {}
        for name in ("shapes.scan_box", "shapes.dyck_depth",
                     "hecke.kl_polynomial", "hecke.inverse_kl",
                     "hecke.bruhat_leq", "linalg.kernel_basis", "cli.main"):
            out[name + ".calls"] = calls[name]
        for name in ("shapes.scan_box", "shapes.dyck_depth",
                     "hecke.kl_polynomial", "hecke.inverse_kl",
                     "hecke.bruhat_leq", "mult.kl_inversion_check",
                     "mult.graded_cartan", "mult.delta_ic_matrix",
                     "weights.wt_space", "weights.wt_from_blocks",
                     "weights.find_separating_prime",
                     "weights.is_phi_decomposable", "koszul.load_algebra",
                     "koszul.resolution_Q", "koszul.resolution_F",
                     "koszul.cartan_inverse", "linalg.kernel_basis",
                     "linalg.det_bareiss", "linalg.char_poly",
                     "linalg.smith_kernel_basis", "cli.main"):
            out[name + ".self_s"] = self_s[name]
        for name in ("shapes.scan_box.shapes", "shapes.dyck_depth.cells",
                     "hecke.tables", "mult.entries", "koszul.summands",
                     "koszul.steps", "linalg.kernel_basis.elim_ops",
                     "cli.stdout_bytes"):
            out[name] = work[name]
        scan_s = self_s["shapes.scan_box"]
        out["shapes.scan_box.shapes_per_s"] = (
            work["shapes.scan_box.shapes"] / scan_s if scan_s else 0.0)
        out["laurent.mul.calls"] = calls["laurent.mul"]
        out["laurent.add.calls"] = calls["laurent.add"]
        out["laurent.self_s"] = sum(v for k, v in self_s.items()
                                    if k.startswith("laurent."))
        return out

    def dump(self, path):
        """Write every span and the leaf totals as JSON."""
        doc = {"fields": ["name", "start", "end", "parent", "job"],
               "spans": self.spans,
               "leaves": {k: [self.calls[k], self.self_s[k]]
                          for k in sorted(self.calls)
                          if k.startswith(("laurent.", "hecke.bruhat_leq"))}}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
