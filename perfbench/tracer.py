"""Outside-in tracer for anchorcalc's layer modules.

The tracer wraps public functions and methods of the layer modules from
outside the program, so the program itself is unchanged.  A wrapped name
is rebound on its own module or class and also in every anchorcalc module
that imported it with ``from ... import``, so calls across modules are
seen.  Each call records a span ``(name, parent span, job, start, end)``
in memory; counters attached to chosen functions record work sizes.  Self
time of a span is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter, defaultdict

# (module, class or None, function) triples, grouped by layer module.
TARGETS = {
    "expr": [
        (None, name)
        for name in (
            "canonicalize",
            "total_derivative",
            "diff",
            "substitute",
            "is_identically_zero",
            "jet_atoms",
            "to_text",
        )
    ],
    "parser": [(None, "tokenize"), (None, "parse_expr")],
    "modelfile": [(None, "parse_model")],
    "linop": [
        ("LinDiffOp", "compose"),
        ("LinDiffOp", "formal_adjoint"),
        ("LinDiffOp", "apply"),
        ("LinDiffOp", "map_coefficients"),
        (None, "linearize"),
        ("ShellRules", "__init__"),
        ("ShellRules", "reduce"),
        ("ShellRules", "rules_up_to"),
    ],
    "forms": [
        (None, name)
        for name in ("wedge", "exterior_d", "hodge", "interior", "lie_derivative")
    ],
    "field_models": [
        ("PFormModel", name)
        for name in (
            "anchor_ops",
            "shell",
            "killing_current",
            "proper_symmetry",
            "energy_momentum",
            "anchor_verify",
        )
    ]
    + [
        ("SelfDualModel", name)
        for name in ("anchor_ops", "shell", "verify", "energy_momentum")
    ]
    + [
        ("ChiralModel", name)
        for name in ("anchor_ops", "shell", "verify", "spacetime_verify")
    ],
    "ode": [
        (None, name)
        for name in (
            "check_characteristic",
            "check_symmetry",
            "check_anchor",
            "schouten_square",
            "anchor_apply",
            "proper_symmetry_conditions",
            "twist_invariance_check",
            "search_characteristics",
        )
    ],
    "numeric": [(None, "compile_scalar"), (None, "integrate_drift")],
    "report": [("ModelReport", "to_json"), ("ModelReport", "human")],
    "cli": [(None, "main")],
}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


# Work-size counters: qualified name -> (counter name, fn(result, args, kwargs)).
def _terms_out(result, args, kwargs):
    return len(result.poly())


def _tokens(result, args, kwargs):
    return len(result)


def _search_columns(result, args, kwargs):
    # one column per monomial in (t, x1..xn) of total degree <= d
    system, degree = _arg(args, kwargs, 0, "sys"), _arg(args, kwargs, 1, "max_degree")
    return math.comb(system.n + 1 + degree, degree)


def _rk4_steps(result, args, kwargs):
    # steps requested: points * round(t_end / step); no workload blows up
    from anchorcalc import numeric

    t_end = _arg(args, kwargs, 3, "t_end", numeric.DEFAULT_T_END)
    step = _arg(args, kwargs, 4, "step", numeric.DEFAULT_STEP)
    points = _arg(args, kwargs, 5, "points", numeric.DEFAULT_POINTS)
    return points * int(round(t_end / step))


COUNTERS = {
    "expr.canonicalize": ("expr.canonicalize.terms_out", _terms_out),
    "parser.tokenize": ("parser.tokenize.tokens", _tokens),
    "ode.search_characteristics": ("ode.search.columns", _search_columns),
    "numeric.integrate_drift": ("numeric.rk4_steps", _rk4_steps),
}


class Tracer:
    """Spans and counters of the wrapped layer functions, kept in memory."""

    def __init__(self):
        self.names = []  # name id -> qualified name
        self.spans = []  # (name id, parent span, job, start ns, end ns)
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def install(self):
        """Wrap every target and rebind every imported alias of it."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "anchorcalc" or name.startswith("anchorcalc.")
        }
        for layer, targets in TARGETS.items():
            module = modules[f"anchorcalc.{layer}"]
            for cls_name, attr in targets:
                qualname = ".".join(filter(None, (layer, cls_name, attr)))
                owner = getattr(module, cls_name) if cls_name else module
                original = owner.__dict__[attr]
                wrapper = self._wrap(qualname, original)
                self._patch(owner, attr, wrapper)
                if cls_name is None:
                    for other in modules.values():
                        for alias, value in list(vars(other).items()):
                            if value is original:
                                self._patch(other, alias, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, qualname, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        counter_name, counter = COUNTERS.get(qualname, (None, None))
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = len(spans)
            spans.append(None)
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span] = (name_id, parent, tracer.job, start, end)
            if counter is not None:
                counts[counter_name] += counter(result, args, kwargs)
            return result

        return traced

    def summary(self):
        """Per qualified name: calls, inclusive ns and self ns; plus the
        inclusive ns of the root spans per job."""
        child_ns = [0] * len(self.spans)
        for name_id, parent, job, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, incl, self_ns = Counter(), Counter(), Counter()
        job_ns = defaultdict(int)
        for index, (name_id, parent, job, start, end) in enumerate(self.spans):
            name = self.names[name_id]
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[index]
            if parent < 0:
                job_ns[job] += end - start
        return calls, incl, self_ns, job_ns

    def write(self, path):
        """Write the names, then one JSON line per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for span in self.spans:
                handle.write("[%d,%d,%d,%d,%d]\n" % span)
