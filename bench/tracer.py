"""In-memory tracer for the traced benchmark run.

Tracer.install() wraps public functions of the laddergb modules from the
outside; nothing under src/ is changed.  Boundary functions get a span
(id, parent, name, start, end, instance); hot primitives (the monomial
kernel, the field methods, leading_term) only get a call counter, so
their time is charged to the span of their caller.  Spans stay in memory
until the sample ends; summary() turns them into the per-layer metrics
and write_spans() dumps them as JSON lines.
"""

import itertools
import json
import sys
import time
from collections import defaultdict

# module -> functions or Class.method names that get a span.  A span is
# named "<module>.<function>"; Chain.__init__ is "linkage.chain_build"
# and cli.main is "cli.<subcommand>".
SPANS = {
    "poly": [
        "buchberger_reduced",
        "is_reduced_groebner",
        "normal_form",
        "s_polynomial",
        "p_mul",
    ],
    "monomials": [
        "minimalize",
        "basic_double_link",
        "MonomialIdeal.hilbert_function",
        "MonomialIdeal.contains_ideal",
        "MonomialIdeal.colon",
    ],
    "complexes": [
        "check_shedding",
        "is_vertex_decomposable",
        "replay_certificate",
        "SimplicialComplex.from_squarefree",
    ],
    "ladders": [
        "ladder_from_json",
        "ensure_valid",
        "MaxMinors.split",
        "PfaffianLadder.split",
        "SymmetricLadder.split",
        "OneSidedLadder.split",
        "MaxMinors.validate",
        "PfaffianLadder.validate",
        "SymmetricLadder.validate",
        "OneSidedLadder.validate",
    ],
    "families": ["natural_generators", "conventional_order"],
    "matrices": ["minor", "pfaffian", "order_for"],
    "linkage": [
        "Chain.__init__",
        "Chain.oracle_basis",
        "verify_node_groebner",
        "verify_node_initial",
        "verify_step",
        "verify_family",
        "chain_certificate",
        "replay_chain",
        "localization_maps",
        "substitute",
        "localized_ideal_generators",
        "verify_localization",
    ],
    "cli": ["main"],
}

# counter name -> (module, functions or Class.method names)
COUNTS = {
    "mono.mul_calls": ("mono", ["mul"]),
    "poly.leading_term_calls": ("poly", ["leading_term"]),
    "fields.ops": (
        "fields",
        [
            "%s.%s" % (cls, op)
            for cls in ("Rationals", "PrimeField")
            for op in ("add", "sub", "mul", "neg", "inv", "div")
        ],
    ),
}

LAYERS = ("poly", "monomials", "complexes", "ladders", "families", "matrices", "linkage", "cli")

# per-layer metric -> span whose self time it reports
SELF_TIMES = {
    "poly.buchberger_s": "poly.buchberger_reduced",
    "poly.normal_form_s": "poly.normal_form",
    "poly.is_reduced_groebner_s": "poly.is_reduced_groebner",
    "monomials.hilbert_s": "monomials.hilbert_function",
    "monomials.minimalize_s": "monomials.minimalize",
    "complexes.from_squarefree_s": "complexes.from_squarefree",
    "complexes.check_shedding_s": "complexes.check_shedding",
    "complexes.vd_s": "complexes.is_vertex_decomposable",
    "complexes.replay_certificate_s": "complexes.replay_certificate",
    "ladders.split_s": "ladders.split",
    "families.natural_generators_s": "families.natural_generators",
    "linkage.chain_build_s": "linkage.chain_build",
    "linkage.verify_step_s": "linkage.verify_step",
    "linkage.verify_node_initial_s": "linkage.verify_node_initial",
    "linkage.verify_node_groebner_s": "linkage.verify_node_groebner",
    "linkage.replay_chain_s": "linkage.replay_chain",
    "linkage.verify_localization_s": "linkage.verify_localization",
    "cli.chain_s": "cli.chain",
    "cli.replay_s": "cli.replay",
}

# per-layer metric -> span whose number of calls it reports
CALLS = {
    "poly.spairs": "poly.s_polynomial",
    "monomials.hilbert_calls": "monomials.hilbert_function",
    "monomials.minimalize_calls": "monomials.minimalize",
    "complexes.check_shedding_calls": "complexes.check_shedding",
    "ladders.split_calls": "ladders.split",
    "families.natural_generators_calls": "families.natural_generators",
    "linkage.oracle_calls": "linkage.oracle_basis",
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, name, start, end, instance)
        self.stack = []
        self.ids = itertools.count(1)
        self.instance = None
        self.counters = defaultdict(int)
        self.divides = [0, 0]  # calls, hits
        self.last_spoly = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.monotonic

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.instance))
            if hook is not None:
                hook(args, out)
            return out

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters

        def wrapper(*args):
            counters[name] += 1
            return fn(*args)

        return wrapper

    def _divides(self, fn):
        cell = self.divides

        def wrapper(a, b):
            cell[0] += 1
            out = fn(a, b)
            if out:
                cell[1] += 1
            return out

        return wrapper

    def _cli_main(self, fn):
        def wrapper(argv=None):
            name = "cli." + (argv[0] if argv else "main")
            return self._span(name, fn)(argv)

        return wrapper

    # -- hooks ------------------------------------------------------------

    def _after_spoly(self, args, out):
        self.last_spoly = out

    def _after_normal_form(self, args, out):
        if args and args[0] is self.last_spoly:
            self.last_spoly = None
            if out:
                self.counters["poly.spairs_nonzero"] += 1

    def _after_chain(self, args, out):
        self.counters["linkage.chain_nodes"] += len(args[0].sequence)

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the functions in SPANS and COUNTS, replacing every
        reference to them held by a laddergb module."""
        mods = {
            name: mod
            for name, mod in list(sys.modules.items())
            if name == "laddergb" or name.startswith("laddergb.")
        }
        hooks = {
            "poly.s_polynomial": self._after_spoly,
            "poly.normal_form": self._after_normal_form,
            "linkage.chain_build": self._after_chain,
        }
        for modname, targets in SPANS.items():
            for target in targets:
                if target == "Chain.__init__":
                    name = "linkage.chain_build"
                else:
                    name = "%s.%s" % (modname, target.split(".")[-1])
                if modname == "cli":
                    make = self._cli_main
                else:

                    def make(fn, name=name):
                        return self._span(name, fn, hooks.get(name))

                self._replace(mods, modname, target, make)
        for counter, (modname, targets) in COUNTS.items():
            for target in targets:
                self._replace(
                    mods, modname, target, lambda fn, c=counter: self._counted(c, fn)
                )
        self._replace(mods, "mono", "divides", self._divides)

    def _replace(self, mods, modname, target, make):
        mod = mods["laddergb." + modname]
        if "." in target:
            clsname, attr = target.split(".")
            cls = getattr(mod, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(make(raw.__func__)))
            else:
                setattr(cls, attr, make(raw))
            return
        orig = getattr(mod, target)
        wrapped = make(orig)
        for other in mods.values():
            for key, value in list(vars(other).items()):
                if value is orig:
                    setattr(other, key, wrapped)

    # -- results ----------------------------------------------------------

    def summary(self, wall):
        """Per-layer metrics of the traced sample whose wall time is wall."""
        child = defaultdict(float)
        for sid, parent, name, start, end, _ in self.spans:
            if parent:
                child[parent] += end - start
        self_by_name = defaultdict(float)
        calls = defaultdict(int)
        rooted = 0.0
        for sid, parent, name, start, end, _ in self.spans:
            self_by_name[name] += end - start - child[sid]
            calls[name] += 1
            if not parent:
                rooted += end - start
        oracle_misses = {
            parent for _, parent, name, _, _, _ in self.spans if name == "poly.buchberger_reduced"
        }
        oracle_hits = sum(
            1
            for sid, _, name, _, _, _ in self.spans
            if name == "linkage.oracle_basis" and sid not in oracle_misses
        )
        c, divides = self.counters, self.divides
        out = {m: self_by_name[span] for m, span in SELF_TIMES.items()}
        out.update({m: calls[span] for m, span in CALLS.items()})
        out.update(
            {
                "poly.spairs_nonzero_ratio": _ratio(
                    c["poly.spairs_nonzero"], calls["poly.s_polynomial"]
                ),
                "poly.leading_term_calls": c["poly.leading_term_calls"],
                "mono.divides_calls": divides[0],
                "mono.divides_hit_ratio": _ratio(divides[1], divides[0]),
                "mono.mul_calls": c["mono.mul_calls"],
                "fields.ops": c["fields.ops"],
                "linkage.chain_nodes": c["linkage.chain_nodes"],
                "linkage.oracle_hit_ratio": _ratio(oracle_hits, calls["linkage.oracle_basis"]),
            }
        )
        layers = defaultdict(float)
        for name, value in self_by_name.items():
            layers[name.split(".")[0]] += value
        for layer in LAYERS:
            out["%s.self_s" % layer] = layers[layer]
        out["trace.wall_s"] = wall
        out["trace.harness_s"] = wall - rooted
        return out

    def write_spans(self, path):
        """One JSON list per line, in id order, after a header line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(["id", "parent", "name", "start", "end", "instance"]) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
