"""Layer tracing from outside the program.

``install`` replaces the public functions and methods of the ``ordgames``
modules ``ordinal``, ``btree``, ``families``, ``games`` and ``cli`` by
wrappers, also where another module bound a name with ``from ... import``.
A wrapper records a span (name, layer, start, end, parent, job) only where
control enters a layer from another layer or from the benchmark; calls
inside a layer, every ``ordinal`` call and a few per-position helpers are
only counted, because there are hundreds of thousands of them per job.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

LAYERS = ("ordinal", "btree", "families", "games", "cli")

# called once per product position or per path label: counted, never spanned
HOT = {
    "btree": {"is_max", "children_labels", "__contains__", "path_to_text", "path_from_text"},
    "games": {"eval_payoff", "history_to_text", "history_from_text"},
}
COMPARES = {"__eq__", "__ne__", "__lt__", "__le__", "__gt__", "__ge__", "compare"}
QUERIES = {"member", "is_maximal", "rank", "weight", "prefix_weights", "branch_weight_sum"}
GAMES_JSON = {"game_to_json", "game_from_json", "strategy_to_json", "strategy_from_json", "collections_to_json"}


class Tracer:
    def __init__(self):
        self.on = False
        self.job = -1
        self.spans = []  # [name, layer, start, end, parent id, job]
        self.stack = []  # ids of open spans
        self.counts = Counter()  # calls per "layer.name"
        self.data = Counter()  # work measured by the benchmark or by hooks

    # -- wrappers ---------------------------------------------------------------

    def _enter(self, name, layer):
        """Open a span unless control is already inside ``layer``; returns its id."""
        if self.stack and self.spans[self.stack[-1]][1] == layer:
            return None
        sid = len(self.spans)
        self.spans.append([name, layer, perf_counter(), None, self.stack[-1] if self.stack else -1, self.job])
        self.stack.append(sid)
        return sid

    def _exit(self, sid):
        if sid is not None:
            self.spans[sid][3] = perf_counter()
            self.stack.pop()

    def wrap(self, layer, name, fn, post=None):
        key = f"{layer}.{name}"
        tracer = self
        if layer == "ordinal" or name in HOT.get(layer, ()):

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.on:
                    tracer.counts[key] += 1
                    if name == "__init__" and args[1:2] and isinstance(args[1], str):
                        tracer.data["ordinal.parsed"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.counts[key] += 1
            sid = tracer._enter(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(sid)
            if post is not None:
                post(tracer, args, result)
            if inspect.isgenerator(result):  # e.g. maximal_branches: its work runs in next()
                return tracer._resumed(name, layer, result)
            return result

        return spanned

    def _resumed(self, name, layer, gen):
        # one span per resumption: the generator runs only inside next()
        while True:
            sid = self._enter(name, layer)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self._exit(sid)
            yield item

    # -- summaries --------------------------------------------------------------

    def merge(self, other, job):
        """Add a child process's spans and counts, under ``job``."""
        base = len(self.spans)
        for name, layer, start, end, parent, _ in other["spans"]:
            self.spans.append([name, layer, start, end, parent + base if parent >= 0 else -1, job])
        self.counts.update(other["counts"])
        self.data.update(other["data"])

    def span_ms(self, layer, names):
        return 1000 * sum(s[3] - s[2] for s in self.spans if s[1] == layer and s[0] in names)

    def layer_table(self):
        """Per layer: calls, total time (outermost spans) and self time, in ms."""
        child_time = Counter()
        for s in self.spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        rows = {layer: [0, 0.0, 0.0] for layer in LAYERS}
        for key, n in self.counts.items():
            rows[key.split(".", 1)[0]][0] += n
        for sid, (name, layer, start, end, parent, _) in enumerate(self.spans):
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][1] != layer:
                ancestor = self.spans[ancestor][4]
            if ancestor < 0:
                rows[layer][1] += 1000 * (end - start)
            rows[layer][2] += 1000 * (end - start - child_time[sid])
        return rows

    def dump(self, path):
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counts": self.counts, "data": self.data}, handle)


def _count_nodes(tracer, args, result):
    tracer.data["btree.nodes_built"] += len(args[0])


def _count_truncated(tracer, args, result):
    tracer.data["families.truncate_nodes"] += len(result)


POST = {("btree", "__init__"): _count_nodes, ("families", "truncate"): _count_truncated}


def _public(name):
    return not name.startswith("_") or name in COMPARES or name in {"__init__", "__add__", "__radd__", "__mul__", "__contains__"}


def _callable(value):
    return inspect.isfunction(value) or hasattr(value, "cache_info")  # lru_cache wrappers too


def install(tracer, modules):
    """Wrap the public callables of ``modules`` (a dict layer -> module)."""
    replaced = {}
    for layer, module in modules.items():
        for name, value in list(vars(module).items()):
            if getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(value):
                # every class, also a private base such as families._Family
                for attr, member in list(vars(value).items()):
                    if not _public(attr) or attr in {"__setattr__", "__hash__", "__repr__", "__str__"}:
                        continue
                    kind = type(member)
                    fn = member.__func__ if kind in (classmethod, staticmethod) else member
                    if not inspect.isfunction(fn):
                        continue
                    wrapped = tracer.wrap(layer, attr, fn, POST.get((layer, attr)))
                    setattr(value, attr, kind(wrapped) if kind in (classmethod, staticmethod) else wrapped)
            elif _callable(value) and _public(name):
                replaced[value] = tracer.wrap(layer, name, value, POST.get((layer, name)))
                setattr(module, name, replaced[value])
    # names bound elsewhere by ``from ... import``
    for module in modules.values():
        for name, value in list(vars(module).items()):
            if _callable(value) and value in replaced:
                setattr(module, name, replaced[value])
