"""Spans recorded from outside the package, and the per-layer metrics they give.

``install`` wraps the package's public functions.  A module that imported a
function by name (``maximize`` uses ``norm_batch``, ``theta_norm`` and scipy's
``minimize``; ``report`` uses ``theta_max`` and ``verify_bound``; ``jacobian``
calls its own ``add`` from ``scalar_mul``) looks it up in its own namespace,
so every binding of the function object in every ``thetadist`` module is
replaced, or internal calls would go unseen.

``maximize.theta_max`` has no public entry points for its stages, so the
stages are spans opened around the calls it makes: the grid scan runs from
its start to the first scipy ``minimize`` call, each ``minimize`` call is a
double-precision refinement, and the time after one refinement up to the
next (or the end) is the 128-bit polish that follows it.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np

from inputs import box_terms

GRID_TIE_RTOL = 1e-14

NAME, START, END, PARENT, RUN, INFO = range(6)


class Tracer:
    """Spans (name, start, end, parent, run id, info) kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.run_id = None

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.run_id, {}])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        """Close span ``idx`` and any span still open inside it."""
        now = perf_counter()
        while self.stack:
            top = self.stack.pop()
            self.spans[top][END] = now
            if top == idx:
                return

    def top_name(self):
        return self.spans[self.stack[-1]][NAME] if self.stack else None

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id, _ in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def _span(tr, name_of, fn, after=None):
    def wrapper(*args, **kwargs):
        name = name_of(args) if callable(name_of) else name_of
        idx = tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            tr.spans[idx][INFO]["raised"] = type(exc).__name__
            raise
        finally:
            tr.close(idx)
        if after is not None:
            after(tr.spans[idx], args, result)
        return result

    return wrapper


def _rebind(fn, wrapper) -> None:
    """Replace every binding of ``fn`` in the package's modules."""
    for modname, mod in list(sys.modules.items()):
        if modname == "thetadist" or modname.startswith("thetadist."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)


def install(tr: Tracer) -> None:
    import scipy.optimize

    from thetadist import arakelov, bounds, cli, jacobian, maximize, periods

    terms_of = {}

    def lattice_terms(tau):
        if id(tau) not in terms_of:
            terms_of[id(tau)] = (tau, box_terms(tau.tau_np))
        return terms_of[id(tau)][1]

    def norm_batch_name(args):
        return "periods.norm_batch.single" if len(args[1]) == 1 else "periods.norm_batch.batch"

    def after_norm_batch(span, args, result):
        n = len(args[1])
        span[INFO]["points"] = n
        span[INFO]["terms"] = n * lattice_terms(args[0])
        parent = tr.spans[span[PARENT]] if span[PARENT] >= 0 else None
        if parent is not None and parent[NAME] == "maximize.grid_scan":
            parent[INFO].setdefault("values", []).append(np.sqrt(result))

    def theta_max_wrapper(fn):
        def wrapper(*args, **kwargs):
            outer = tr.open("maximize.theta_max")
            tr.open("maximize.grid_scan")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(outer)
            tr.spans[outer][INFO]["gap"] = float(result.value) - float(result.grid_best)
            return result

        return wrapper

    def minimize_wrapper(fn):
        def wrapper(*args, **kwargs):
            in_stage = tr.top_name() in ("maximize.grid_scan", "maximize.polish")
            if in_stage:
                tr.close(tr.stack[-1])
            idx = tr.open("maximize.refine_double")
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            tr.spans[idx][INFO]["nfev"] = int(result.nfev)
            if in_stage:
                tr.open("maximize.polish")
            return result

        return wrapper

    def after_rows(span, args, result):
        span[INFO]["rows"] = len(result)

    def after_enumerate(span, args, result):
        span[INFO]["points"] = len(result)

    def after_serialize(span, args, result):
        span[INFO]["bytes"] = len(result.encode("utf-8"))

    def add_name(args):
        return "jacobian.add.qq" if args[1].ring.modulus is None else "jacobian.add.zmod"

    wrappers = [
        (periods.norm_batch, _span(tr, norm_batch_name, periods.norm_batch, after_norm_batch)),
        (periods.theta_norm, _span(tr, "periods.theta_norm", periods.theta_norm)),
        (periods.reduce_to_fundamental,
         _span(tr, "periods.reduce_to_fundamental", periods.reduce_to_fundamental)),
        (maximize.theta_max, theta_max_wrapper(maximize.theta_max)),
        (scipy.optimize.minimize, minimize_wrapper(scipy.optimize.minimize)),
        (jacobian.add, _span(tr, add_name, jacobian.add)),
        (jacobian.scalar_mul, _span(tr, "jacobian.scalar_mul", jacobian.scalar_mul)),
        (jacobian.reduce_mod, _span(tr, "jacobian.reduce_mod", jacobian.reduce_mod)),
        (jacobian.on_curve_mod, _span(tr, "jacobian.on_curve_mod", jacobian.on_curve_mod)),
        (jacobian.enumerate_curve_points_mod,
         _span(tr, "jacobian.enumerate", jacobian.enumerate_curve_points_mod, after_enumerate)),
        (jacobian.order_of, _span(tr, "jacobian.order_of", jacobian.order_of)),
        (jacobian.verify_bound, _span(tr, "jacobian.verify_bound", jacobian.verify_bound, after_rows)),
        (cli.run, _span(tr, "report.run", cli.run)),
        (cli.serialize_report, _span(tr, "report.serialize", cli.serialize_report, after_serialize)),
    ]
    for layer, mod in (("bounds", bounds), ("arakelov", arakelov)):
        for attr, fn in list(vars(mod).items()):
            if (callable(fn) and not isinstance(fn, type) and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == mod.__name__):
                wrappers.append((fn, _span(tr, layer, fn)))
    for fn, wrapper in wrappers:
        _rebind(fn, wrapper)


PER_LAYER_UNITS = {
    "periods.norm_batch.batch.calls": "count",
    "periods.norm_batch.batch.points": "count",
    "periods.norm_batch.batch.s": "s",
    "periods.lattice_terms": "count",
    "periods.norm_batch.single.calls": "count",
    "periods.norm_batch.single.s": "s",
    "periods.theta_norm.calls": "count",
    "periods.theta_norm.s": "s",
    "periods.reduce_to_fundamental.s": "s",
    "maximize.theta_max.s": "s",
    "maximize.grid_scan.s": "s",
    "maximize.grid_points": "count",
    "maximize.refine_double.s": "s",
    "maximize.refine_double.nfev": "count",
    "maximize.polish.s": "s",
    "maximize.polish.evals": "count",
    "maximize.grid_ties": "count",
    "maximize.grid_gap": "1",
    "bounds.calls": "count",
    "bounds.s": "s",
    "arakelov.calls": "count",
    "arakelov.s": "s",
    "jacobian.add.qq.calls": "count",
    "jacobian.add.qq.s": "s",
    "jacobian.add.zmod.calls": "count",
    "jacobian.add.zmod.s": "s",
    "jacobian.add.degenerate": "count",
    "jacobian.scalar_mul.calls": "count",
    "jacobian.scalar_mul.s": "s",
    "jacobian.reduce_mod.s": "s",
    "jacobian.on_curve_mod.calls": "count",
    "jacobian.on_curve_mod.s": "s",
    "jacobian.enumerate.points": "count",
    "jacobian.enumerate.s": "s",
    "jacobian.order_of.s": "s",
    "jacobian.verify_bound.rows": "count",
    "jacobian.verify_bound.s": "s",
    "report.run.s": "s",
    "report.serialize.s": "s",
    "report.bytes": "count",
    "trace.overhead_s": "s",
}


def summarize(spans: list[list], rounds: int) -> dict:
    """Per-layer metrics per traced round; ``.s`` entries are self times.

    A ``.calls`` count is the number of entries into the span from a span of
    another name, so recursion inside one layer counts once.
    """
    self_time = [0.0] * len(spans)
    for i, span in enumerate(spans):
        self_time[i] += span[END] - span[START]
        if span[PARENT] >= 0:
            self_time[span[PARENT]] -= span[END] - span[START]

    m = {name: 0.0 for name in PER_LAYER_UNITS}

    def add(key, value):
        if key in m:
            m[key] += value

    gaps, ties = [], []
    for i, (name, _, _, parent, _, info) in enumerate(spans):
        parent_name = spans[parent][NAME] if parent >= 0 else None
        add(name + ".s", self_time[i])
        if parent_name != name:
            add(name + ".calls", 1)
        if name.startswith("periods.norm_batch.") and "points" in info:
            add(name + ".points", info["points"])
            add("periods.lattice_terms", info["terms"])
            if parent_name == "maximize.grid_scan":
                add("maximize.grid_points", info["points"])
        elif name == "periods.theta_norm" and parent_name == "maximize.polish":
            add("maximize.polish.evals", 1)
        elif name == "maximize.refine_double":
            add("maximize.refine_double.nfev", info.get("nfev", 0))
        elif name == "maximize.grid_scan" and info.get("values"):
            vals = np.concatenate(info["values"])
            ties.append(int(np.count_nonzero(vals >= vals.max() * (1 - GRID_TIE_RTOL))))
        elif name == "maximize.theta_max" and "gap" in info:
            gaps.append(info["gap"])
        elif name.startswith("jacobian.add.") and info.get("raised") == "RepresentationDegenerate":
            add("jacobian.add.degenerate", 1)
        elif name == "jacobian.enumerate":
            add("jacobian.enumerate.points", info.get("points", 0))
        elif name == "jacobian.verify_bound":
            add("jacobian.verify_bound.rows", info.get("rows", 0))
        elif name == "report.serialize":
            add("report.bytes", info.get("bytes", 0))

    out = {k: v / rounds for k, v in m.items()}
    # grid ties and gap describe one maximization; report their mean
    out["maximize.grid_ties"] = float(np.mean(ties)) if ties else 0.0
    out["maximize.grid_gap"] = float(np.mean(gaps)) if gaps else 0.0
    return out
