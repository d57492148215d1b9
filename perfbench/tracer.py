"""Span tracing of the extgevrey layers, installed from the benchmark's side.

`Tracer.install()` replaces each traced public function at every module
binding it has (``from ._kernels import assoc_sup_grid`` copies the name
into several modules), plus the claim table of the CLI and the
``LogWeightSequence.log_M`` method, with a wrapper that records one span
per call. `Tracer.uninstall()` puts the originals back.

A span is (name, start, end, parent span, op id) plus one work figure
(points, phi evaluations or W iterations) and an error flag. Spans are
kept in flat arrays while the run lasts; `per_layer()` turns them into
self times and counts, and `save()` writes them out when the run ends.
Self time is a span's duration minus the duration of its child spans.
"""

import importlib
import json
from array import array
from time import perf_counter

import numpy as np

# module -> traced functions; the span name is "<layer>.<function>", and the
# layer of `_kernels` is spelled `kernels` because metric names start with a
# letter
TRACED = {
    "equivalence": ["check_matrix_equivalence", "check_ocena_norme",
                    "check_T_phi_equivalence", "check_corollary"],
    "conjugate": ["young_conjugate", "conjugate_table", "phi_sigma",
                  "integral_closed_form_check", "check_weight_axioms"],
    "lambertw": ["lambert_w0", "lambert_w0_grid", "evaluate_w"],
    "assocfn": ["assoc_fn_sup_grid", "assoc_fn_counting_grid", "assoc_fn_sup",
                "assoc_fn_counting", "counting_fn_floor", "counting_fn_direct"],
    "sequences": ["check_condition"],
    "_kernels": ["assoc_sup_grid", "w0_grid", "counting_sum_grid"],
}

MODULES = ["extgevrey", "extgevrey.cli", "extgevrey.equivalence",
           "extgevrey.conjugate", "extgevrey.lambertw", "extgevrey.assocfn",
           "extgevrey.sequences", "extgevrey._kernels"]


def layer_name(module):
    return module.lstrip("_")


def _size(args, pos):
    """Element count of positional argument `pos` (-1 for a Python scalar)."""
    a = args[pos] if len(args) > pos else None
    if a is None or np.isscalar(a):
        return -1.0
    return float(np.size(a))


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.work = array("d")
        self.err = array("b")
        self._stack = [-1]
        self._op = -1
        self._patched = []
        self.kernel_cells = {"head_cells": 0.0, "tail_points": 0.0}

    # -- recording ---------------------------------------------------------

    def _nid(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name, fn, work=None, after=None):
        """Wrap `fn` so that each call records one span named `name`.

        `work(args, kwargs)` gives the span's work figure before the call,
        `after(args, kwargs, result)` after it; both run outside the span.
        """
        nid = self._nid(name)
        starts, ends, parents, names, ops = self.start, self.end, self.parent, self.name, self.op
        works, errs, stack = self.work, self.err, self._stack

        def traced(*args, **kwargs):
            sid = len(starts)
            parents.append(stack[-1])
            names.append(nid)
            ops.append(self._op)
            works.append(work(args, kwargs) if work else 0.0)
            errs.append(0)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[sid] = perf_counter()
                errs[sid] = 1
                raise
            else:
                ends[sid] = perf_counter()
                if after:
                    after(args, kwargs, result, sid)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id, fn):
        """Run one benchmark operation under a root span `op`."""
        self._op = op_id
        try:
            return self.span("op", fn)()
        finally:
            self._op = -1

    # -- installing ----------------------------------------------------------

    def _wrappers(self, mods):
        """original function -> traced wrapper, for every traced function."""
        K = mods["extgevrey._kernels"]
        wrappers = {}
        for module, fns in TRACED.items():
            src = mods["extgevrey." + module]
            for fname in fns:
                orig = fn = getattr(src, fname)
                work = after = None
                if fname in ("lambert_w0_grid", "w0_grid", "counting_sum_grid"):
                    work = lambda a, k: _size(a, 0)
                elif fname in ("phi_sigma", "conjugate_table", "assoc_fn_counting_grid"):
                    work = lambda a, k: _size(a, 1)
                elif fname == "assoc_fn_sup_grid":
                    work = lambda a, k: _size(a, 2)
                elif fname == "assoc_sup_grid":
                    work = lambda a, k: _size(a, 0)
                    after = self._kernel_cells(K)
                elif fname == "evaluate_w":
                    after = self._record_iterations
                elif fname == "young_conjugate":
                    fn = self._count_phi(orig)
                wrappers[orig] = self.span(f"{layer_name(module)}.{fname}", fn, work, after)
        return wrappers

    def _record_iterations(self, args, kwargs, result, sid):
        self.work[sid] = float(result.iterations)

    def _count_phi(self, young_conjugate):
        """young_conjugate whose phi argument counts its evaluations into
        the work figure of the enclosing young_conjugate span."""
        tracer = self

        def counted_conjugate(phi, y, **kwargs):
            sid = tracer._stack[-1]

            def phi_counted(t):
                tracer.work[sid] += 1.0
                return phi(t)

            return young_conjugate(phi_counted, y, **kwargs)

        counted_conjugate.__wrapped__ = young_conjugate
        return counted_conjugate

    def _kernel_cells(self, K):
        """Head-scan cells and tail-search points of one assoc_sup_grid
        call, derived from the kernel's own _scan_cap/_p_concave_from."""
        cells = self.kernel_cells

        def after(args, kwargs, result, sid):
            lnk, lnh, tau, sigma = (np.asarray(args[0], dtype=np.float64),) + tuple(args[1:4])
            if lnk.size == 0:
                return
            cap = K._scan_cap(tau, sigma, abs(lnh), float(np.max(np.abs(lnk))))
            head = min(cap, K._p_concave_from(lnh, tau))
            cells["head_cells"] += float(lnk.size) * head
            if cap > head:
                # _scan_cap is nondecreasing in |ln k|, so the points whose
                # own cap passes the head are a suffix of the sorted |ln k|
                a = np.sort(np.abs(lnk))
                lo, hi = 0, a.size
                while lo < hi:
                    mid = (lo + hi) // 2
                    if K._scan_cap(tau, sigma, abs(lnh), float(a[mid])) > head:
                        hi = mid
                    else:
                        lo = mid + 1
                cells["tail_points"] += float(a.size - lo)

        return after

    def install(self):
        mods = {m: importlib.import_module(m) for m in MODULES}
        wrappers = self._wrappers(mods)
        for m in mods.values():
            for attr, val in list(vars(m).items()):
                if callable(val) and val in wrappers:
                    self._patched.append((m, attr, val))
                    setattr(m, attr, wrappers[val])
        self._cli = mods["extgevrey.cli"]
        self._claims = dict(self._cli.CLAIMS)
        for cname, fn in self._claims.items():
            self._cli.CLAIMS[cname] = self.span(f"cli.claim.{cname}", fn)
        seq_cls = mods["extgevrey.sequences"].LogWeightSequence
        self._patched.append((seq_cls, "log_M", seq_cls.log_M))
        seq_cls.log_M = self.span("sequences.log_M", seq_cls.log_M)
        return self

    def uninstall(self):
        for obj, attr, val in reversed(self._patched):
            setattr(obj, attr, val)
        self._patched.clear()
        self._cli.CLAIMS.update(self._claims)

    # -- reporting -----------------------------------------------------------

    def _arrays(self):
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        name = np.frombuffer(self.name, dtype=np.int64)
        return start, end, parent, name

    def self_times(self):
        start, end, parent, name = self._arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur, dur - child, name

    def per_layer(self, n_ops):
        """Per-operation layer figures: totals over the traced ops / n_ops."""
        dur, self_t, name = self.self_times()
        work = np.frombuffer(self.work, dtype=np.float64)
        err = np.frombuffer(self.err, dtype=np.int8)
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        selfs = np.bincount(name, weights=self_t, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        works = np.bincount(name, weights=np.maximum(work, 0.0), minlength=n)
        scalars = np.bincount(name, weights=(work < 0), minlength=n)
        errors = np.bincount(name, weights=err, minlength=n)
        out = {}
        for i, nm in enumerate(self.names):
            out[nm] = {"calls": calls[i] / n_ops, "self_s": selfs[i] / n_ops,
                       "total_s": total[i] / n_ops, "work": works[i] / n_ops,
                       "scalar_calls": scalars[i] / n_ops, "errors": errors[i] / n_ops}
            sel = name == i
            out[nm]["work_max"] = float(np.max(work[sel])) if sel.any() else 0.0
        return out

    def under(self, root_prefix, leaf):
        """Calls of span `leaf` per enclosing span whose name starts with
        `root_prefix` (ids of parents are smaller than their children's)."""
        _, _, parent, name = self._arrays()
        roots = {i for i, nm in enumerate(self.names) if nm.startswith(root_prefix)}
        is_root = np.isin(name, list(roots))
        owner = np.where(is_root, np.arange(name.size), -1)
        for _ in range(64):
            nxt = np.where((owner < 0) & (parent >= 0), owner[np.maximum(parent, 0)], owner)
            if np.array_equal(nxt, owner):
                break
            owner = nxt
        if leaf not in self._name_ids:
            return {}
        sel = (name == self._name_ids[leaf]) & (owner >= 0)
        counts = {}
        for root_span, c in zip(*np.unique(owner[sel], return_counts=True)):
            rn = self.names[name[root_span]]
            counts[rn] = counts.get(rn, 0) + int(c)
        return counts

    def save(self, path):
        start, end, parent, name = self._arrays()
        np.savez_compressed(
            path, names=np.array(json.dumps(self.names)), start=start, end=end,
            parent=parent, name=name, op=np.frombuffer(self.op, dtype=np.int64),
            work=np.frombuffer(self.work, dtype=np.float64),
            err=np.frombuffer(self.err, dtype=np.int8))


# -- import profile ------------------------------------------------------------

def parse_importtime(stderr_text):
    """(scipy cumulative s, extgevrey self s) from `python -X importtime`.

    The scipy figure sums the cumulative time of every scipy module that is
    not itself imported from inside another scipy module.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cum_us, raw = line[len("import time:"):].split("|", 2)
        name = raw.rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(self_us), int(cum_us)))
    scipy_us = ext_self_us = 0
    stack = []
    # the log is in post-order: walking it backwards meets ancestors first
    for depth, mod, self_us, cum_us in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        top = mod.split(".")[0]
        if top == "scipy" and not any(m.split(".")[0] == "scipy" for _, m in stack):
            scipy_us += cum_us
        if top == "extgevrey":
            ext_self_us += self_us
        stack.append((depth, mod))
    return scipy_us / 1e6, ext_self_us / 1e6
