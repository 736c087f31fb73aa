"""Spans around the calls into each `dimercluster` module, from outside.

`Tracer.install()` replaces the layer-boundary functions listed in LAYERS
with wrappers.  A module that did ``from dimercluster.x import f`` holds its
own binding of ``f``, so every `dimercluster` module's binding of a wrapped
function is replaced, not only the defining module's.  Classes are traced
through ``__init__`` and the listed methods, patched on the class itself.

Each call records a span (name, start, end, parent span, instance id) in
memory; `write_spans` saves them when the run ends.  Self time is a span's
duration minus the time its child spans cover, accumulated as calls return.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer-boundary functions, "Class" (its constructor) and
# "Class.method".  Small helpers called hundreds of thousands of times per
# sweep (edge_key, is_flippable, LaurentPolynomial.__init__) are left out:
# wrapping them would make the tracer the largest cost in the run.
# LaurentPolynomial.render / to_json stay unwrapped so output formatting
# counts as cli self time.
LAYERS = {
    "quiver_core": ["positive_roots", "is_positive_root", "all_orientations", "parse_quiver", "format_quiver"],
    "base_graph": ["BaseGraph", "BaseGraph.node_labels", "BaseGraph.green_nodes", "BaseGraph.describe", "BaseGraph.to_dot"],
    "mixed_dimer": [
        "minimal_matching", "config_from_e", "e_from_config", "is_monochromatic",
        "count_cycles", "x_exponents", "flip",
    ],
    "flip_poset": ["FlipPoset", "FlipPoset.coefficients"],
    "cluster_invariants": [
        "dimer_f_polynomial", "dimer_g_vector", "dimer_laurent_expansion",
        "verify_root", "verify_quiver", "cluster_variable",
    ],
    "tran_oracle": ["tran_f_polynomial", "tran_g_vector", "coefficient_of", "acceptable_evectors"],
    "mutation_oracle": [
        "walk_cluster_variables", "mutate_seed", "expansion_from_f_and_g",
        "f_polynomial_from_expansion", "g_vector_from_expansion", "hatted_coefficients",
        "enumerate_cluster_variables",
    ],
    "laurent_poly": [
        "divide_exact", "LaurentPolynomial.__mul__", "LaurentPolynomial.__add__",
        "LaurentPolynomial.__sub__", "LaurentPolynomial.substitute",
    ],
    "cli": ["_verify_one_orientation"],
}

# The benchmark's own call into the click entry point, one span per command.
COMMAND_SPAN = "cli.main"


class Tracer:
    def __init__(self):
        self.names = []
        # One entry per span, in start order; arrays keep the recorder from
        # holding hundreds of thousands of Python objects.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_instance = array("q")
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.stack = []  # [span index, time covered by children]
        self.instance = 0
        self.poset_keys = set()
        self.counters = Counter()
        self._restore = []  # (owner, attribute, original)
        self.not_traced = []  # LAYERS entries the package does not have

    def wrap(self, name, fn, after=None):
        """`fn` with a span named `name`; `after(result, args)` runs on return."""
        nid = len(self.names)
        self.names.append(name)
        stack, calls, self_s = self.stack, self.calls, self.self_s
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_instance = self.span_parent, self.span_instance

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1][0] if stack else -1)
            span_instance.append(self.instance)
            span_end.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span_end[index] = t1
                dur = t1 - t0
                self_s[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(result, args)
            return result

        return traced

    def install(self):
        """Wrap every LAYERS entry.  An entry the package does not have is
        listed in `not_traced`, so its metrics, which read 0, can be told
        apart from those of a function that nothing called."""
        hooks = {
            "flip_poset.FlipPoset": self._after_poset,
            "tran_oracle.tran_f_polynomial": self._after_tran,
        }
        for module, entries in LAYERS.items():
            mod = importlib.import_module("dimercluster." + module)
            for entry in entries:
                name = "%s.%s" % (module, entry)
                owner, _, attr = entry.rpartition(".")
                if owner:  # a method, patched on its class
                    cls = vars(mod).get(owner)
                    if isinstance(cls, type) and attr in vars(cls):
                        self._patch(cls, attr, name)
                    else:
                        self.not_traced.append(name)
                    continue
                obj = vars(mod).get(attr)
                if isinstance(obj, type) and "__init__" in vars(obj):  # a class: trace its constructor
                    self._patch(obj, "__init__", name, hooks.get(name))
                elif callable(obj) and not isinstance(obj, type):
                    traced = self.wrap(name, obj, hooks.get(name))
                    for owner_mod, binding in _bindings(obj):
                        setattr(owner_mod, binding, traced)
                        self._restore.append((owner_mod, binding, obj))
                else:
                    self.not_traced.append(name)

    def uninstall(self):
        """Put back every original binding, so later calls are not traced."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _patch(self, cls, attr, name, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._restore.append((cls, attr, original))

    def _after_poset(self, _result, args):
        poset = args[0]
        self.poset_keys.add((poset.quiver, poset.d))
        self.counters["elements"] += len(poset.elements)
        self.counters["excluded"] += len(poset.excluded)

    def _after_tran(self, result, _args):
        self.counters["tran_terms"] += len(result.terms)

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({
                "names": self.names,
                "name": self.span_name.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
                "parent": self.span_parent.tolist(),
                "instance": self.span_instance.tolist(),
            }, fh)

    def layer_metrics(self, instances):
        """The per-layer metrics, keyed by name, as (value, unit)."""
        calls, self_s = self.calls, self.self_s

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        for module in LAYERS:
            m[module + ".self_s"] = (sum(v for k, v in self_s.items() if k.startswith(module + ".")), "s")
        for name in (
            "quiver_core.positive_roots", "mixed_dimer.is_monochromatic", "mixed_dimer.e_from_config",
            "flip_poset.FlipPoset", "cluster_invariants.dimer_laurent_expansion",
            "tran_oracle.tran_f_polynomial", "mutation_oracle.walk_cluster_variables",
            "laurent_poly.divide_exact", "laurent_poly.LaurentPolynomial.__mul__",
            "laurent_poly.LaurentPolynomial.__add__",
        ):
            m[name + ".calls"] = (calls[name], "count")
            m[name + ".self_s"] = (self_s[name], "s")
        for name in (
            "base_graph.BaseGraph", "base_graph.BaseGraph.node_labels",
            "cluster_invariants.dimer_f_polynomial", "cluster_invariants.dimer_g_vector",
            "cluster_invariants.verify_root", "tran_oracle.coefficient_of", "mutation_oracle.mutate_seed",
            "cli._verify_one_orientation",
        ):
            m[name + ".calls"] = (calls[name], "count")
        for name in ("mutation_oracle.expansion_from_f_and_g", "laurent_poly.LaurentPolynomial.substitute"):
            m[name + ".self_s"] = (self_s[name], "s")
        m["quiver_core.positive_roots.calls_per_instance"] = (
            ratio(calls["quiver_core.positive_roots"], instances), "calls/instance")
        m["cluster_invariants.verify_root.calls_per_instance"] = (
            ratio(calls["cluster_invariants.verify_root"], instances), "calls/instance")
        m["flip_poset.builds_per_instance"] = (
            ratio(calls["flip_poset.FlipPoset"], len(self.poset_keys)), "builds/instance")
        elements, excluded = self.counters["elements"], self.counters["excluded"]
        m["flip_poset.elements"] = (elements, "count")
        m["flip_poset.kept_ratio"] = (ratio(elements, elements + excluded), "ratio")
        m["tran_oracle.survivor_ratio"] = (
            ratio(self.counters["tran_terms"], calls["tran_oracle.coefficient_of"]), "ratio")
        return m


def _bindings(obj):
    """Every (module, attribute) of a loaded `dimercluster` module bound to `obj`."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname == "dimercluster" or modname.startswith("dimercluster."):
            found.extend((mod, attr) for attr, value in vars(mod).items() if value is obj)
    return found
