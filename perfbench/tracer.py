"""Tracing of the couplingcert layers, installed from outside the package.

``Tracer.install()`` wraps every public function of the ``groups``,
``windows``, ``coarse``, ``coupling``, ``certify`` and ``cli`` modules and
rebinds the wrapper wherever the function object is bound in a loaded
``couplingcert`` module, so ``from .windows import build_window`` in
``coarse`` calls the wrapper too.  Group ``mul``/``inv`` methods are only
counted: their time stays in the caller's self time.

Each call records a span ``(id, parent_id, name, start, end)``.  Self time
is the span's duration minus the time its child spans cover; since every
child's duration is added to exactly one parent, the self times of a call
tree sum to the duration of its root.  Per-name totals are kept for every
call; the span list keeps the first ``SPANS_PER_NAME`` spans of each name,
because the hottest lookups run millions of times.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time

LAYERS = ("groups", "windows", "coarse", "coupling", "certify", "cli")
SPANS_PER_NAME = 1000
CHECK_FUNCTIONS = ("check_cocompactness_h", "check_g_action", "check_lipschitz",
                   "check_membership_x", "check_properness_h", "check_sandwich")


def _observers() -> dict:
    """name -> fn(args, result, extra) adding layer counts to ``extra``."""

    def add(extra, key, value):
        extra[key] = extra.get(key, 0) + value

    def resolved(args, d, extra):
        add(extra, "windows.resolved_distance.hits", d is not None)

    def moduli(args, m, extra):
        add(extra, "coarse.estimate_moduli.pairs", sum(m.pair_counts))
        add(extra, "coarse.estimate_moduli.t_max", m.t_max)
        add(extra, "coarse.estimate_moduli.requested_t_max", m.requested_t_max)

    def packing(args, res, extra):
        add(extra, "windows.packing_number.nodes", res.nodes)
        add(extra, "windows.packing_number.exact", int(res.exact))

    def net(args, res, extra):
        add(extra, "windows.greedy_net.points", len(res.points))

    def window(args, res, extra):
        add(extra, "windows.build_window.elements", len(res.elements))

    def psi(args, res, extra):
        extra.setdefault("coupling.psi.args", set()).add(args[2])

    def report(args, text, extra):
        add(extra, "cli.render_report.bytes", len(text.encode()))

    def population(name):
        return lambda args, res, extra: add(extra, f"certify.{name}.population", res.population)

    obs = {
        "windows.resolved_distance": resolved,
        "coarse.estimate_moduli": moduli,
        "windows.packing_number": packing,
        "windows.greedy_net": net,
        "windows.build_window": window,
        "coupling.psi": psi,
        "cli.render_report": report,
    }
    for name in CHECK_FUNCTIONS:
        obs[f"certify.{name}"] = population(name)
    return obs


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stats: dict = {}      # name -> [calls, self_s]
        self.extra: dict = {}      # observer counts
        self.roots: list = []      # (name, duration, sum of self times in its tree)
        self.counts = {"groups.mul.calls": [0], "groups.inv.calls": [0]}
        self._stack = [[0.0, 0, None]]   # frames: [child_s, span_id, tree_acc]
        self._ids = itertools.count(1)

    def _wrap(self, name, fn, observe):
        stack, spans, roots, extra = self._stack, self.spans, self.roots, self.extra
        base = stack[0]
        ids = self._ids
        clock = time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0])

        def traced(*args, **kwargs):
            parent = stack[-1]
            acc = parent[2] or [0.0]
            frame = [0.0, next(ids), acc]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - frame[0]
                parent[0] += dur
                acc[0] += own
                stat[0] += 1
                stat[1] += own
                if stat[0] <= SPANS_PER_NAME:
                    spans.append((frame[1], parent[1], name, start, end))
                if parent is base:
                    roots.append((name, dur, acc[0]))
            if observe is not None:
                observe(args, result, extra)
            return result

        return traced

    @staticmethod
    def _counted(fn, counter):
        def counted(*args):
            counter[0] += 1
            return fn(*args)
        return counted

    def install(self) -> None:
        """Wrap the public layer functions and count group mul/inv."""
        import couplingcert.cli  # noqa: F401  (loads every layer module)
        from couplingcert import groups

        observers = _observers()
        replace = {}
        for layer in LAYERS:
            mod = sys.modules[f"couplingcert.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{layer}.{attr}"
                    replace[obj] = self._wrap(name, obj, observers.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname == "couplingcert" or modname.startswith("couplingcert."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replace:
                        setattr(mod, attr, replace[obj])

        classes = [groups.GroupModel]
        while classes:
            cls = classes.pop()
            classes.extend(cls.__subclasses__())
            for meth in ("mul", "inv"):
                if meth in vars(cls):
                    setattr(cls, meth, self._counted(vars(cls)[meth],
                                                     self.counts[f"groups.{meth}.calls"]))

    def layer_metrics(self) -> dict:
        """Flat ``<module>.<function>.<quantity>`` values for every wrapped name."""
        out = {}
        for name, (calls, own) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = own
        for name, counter in self.counts.items():
            out[name] = counter[0]
        extra = self.extra
        out["coupling.psi.distinct"] = len(extra.get("coupling.psi.args", ()))
        calls = self.stats["windows.resolved_distance"][0]
        hits = extra.get("windows.resolved_distance.hits", 0)
        out["windows.resolved_distance.hit_ratio"] = hits / calls if calls else 0.0
        requested = extra.get("coarse.estimate_moduli.requested_t_max", 0)
        reached = extra.get("coarse.estimate_moduli.t_max", 0)
        out["coarse.estimate_moduli.t_max_reach"] = reached / requested if requested else 0.0
        for key in ("coarse.estimate_moduli.pairs", "windows.packing_number.nodes",
                    "windows.packing_number.exact", "windows.greedy_net.points",
                    "windows.build_window.elements", "cli.render_report.bytes",
                    *(f"certify.{c}.population" for c in CHECK_FUNCTIONS)):
            out[key] = extra.get(key, 0)
        return out

    def root(self, name: str) -> tuple:
        """(duration, sum of self times in its tree) of the last top-level call of ``name``."""
        for root_name, dur, tree_self in reversed(self.roots):
            if root_name == name:
                return dur, tree_self
        raise KeyError(name)

    def write_spans(self, path) -> None:
        dropped = {name: st[0] - SPANS_PER_NAME for name, st in self.stats.items()
                   if st[0] > SPANS_PER_NAME}
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans_per_name": SPANS_PER_NAME, "dropped": dropped,
                       "spans": self.spans}, fh)
