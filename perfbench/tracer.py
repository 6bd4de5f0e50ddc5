"""Spans around minorrel's layer functions, recorded from outside the package.

Most layers are reached through ``from .x import f``, so patching ``x.f``
alone misses every call.  Each target is therefore replaced in every loaded
``minorrel`` module that binds the same function object.  The defining
module's own binding is replaced only where its callers go through it:
``tasks`` calls ``bott.verify_lemma_4_4`` through the module object, and
``bott_projective`` is called only from inside ``bott``.  Calls that stay
inside ``polyring`` (building the generator bases) are not product work of
the measured layers and are left out.

A span is (name, start, end, parent, run id, attributes, outer).  ``outer``
is the wrapper's whole duration including its own bookkeeping; a parent's
self time subtracts its children's outer durations, so tracer overhead does
not land in any layer's self time.  Spans stay in memory until ``write``.
"""

import importlib
import json
import sys
import time


def _rows_attrs(rows, prime):
    return {"prime": prime, "rows": len(rows), "nnz": sum(map(len, rows))}


def _rank_attrs(args, result):
    # rank_mod(rows, p)
    return _rows_attrs(args[0], args[1])


def _nullspace_attrs(args, result):
    # nullspace_mod(rows, ncols, p)
    attrs = _rows_attrs(args[0], args[2])
    attrs["kernel"] = len(result)
    return attrs


def _mul_attrs(args, result):
    # poly_mul(ctx, f, g): term products formed
    return {"terms": len(args[1]) * len(args[2])}


def _engine_attrs(args, result):
    # ReesEngine methods: args[0] is the engine
    return {"prime": args[0].p}


# (owner module, attribute, whether calls through the owner's own binding are
# traced, attribute extractor or None).  Methods are patched on their class.
TARGETS = (
    ("polyring", "poly_mul", False, _mul_attrs),
    ("modlinalg", "rank_mod", False, _rank_attrs),
    ("modlinalg", "nullspace_mod", False, _nullspace_attrs),
    ("witness", "relation_dims", False, None),
    ("witness", "veronese_presentation_dims", False, None),
    ("witness", "subspace_variety_gens", False, None),
    ("witness", "koszul_h1_blocks", False, None),
    ("rees", "ReesEngine.kernel_block", True, _engine_attrs),
    ("rees", "ReesEngine.min_gens", True, _engine_attrs),
    ("bott", "verify_lemma_4_4", True, None),
    ("bott", "tor_geometric", True, None),
    ("bott", "bott_projective", True, None),
    ("symfunc", "schur_multiply", False, None),
    ("symfunc", "plethysm_schur", False, None),
    ("birep", "predicted_character", False, None),
    ("birep", "dim_at", False, None),
    ("tasks", "run", True, None),
)

NAMES = tuple(f"{owner}.{attr}" for owner, attr, _, _ in TARGETS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = -1
        self._stack = []
        self._patches = []  # (namespace, attribute, original)

    def _wrap(self, name, fn, attrs):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            entry = clock()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                extra = attrs(args, result) if attrs and ok else None
                spans[idx] = (name, start, end, parent, self.run_id, extra, clock() - entry)

        return traced

    def _patch(self, namespace, attr, value):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def install(self):
        """Wrap every target where its callers bind it; returns {name: [modules]}."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name.startswith("minorrel.") and mod is not None
        }
        where = {}
        for owner_name, attr, own_calls, attrs in TARGETS:
            name = f"{owner_name}.{attr}"
            owner = importlib.import_module("minorrel." + owner_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(name, cls.__dict__[method], attrs))
                where[name] = [f"{owner_name}.{cls_name}"]
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, attrs)
            bound = [
                mod_name
                for mod_name, mod in sorted(modules.items())
                if getattr(mod, attr, None) is original
                and (own_calls or mod is not owner)
            ]
            if not bound:
                raise RuntimeError(f"no loaded module binds {name}")
            for mod_name in bound:
                self._patch(modules[mod_name], attr, wrapper)
            where[name] = bound
        return where

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def layer_metrics(self):
        """Per-target calls, self time and summed attributes."""
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, start, end, parent, run_id, extra, outer in spans:
            if parent >= 0:
                covered[parent] += outer
        out = {
            name: {"calls": 0, "self_s": 0.0, "terms": 0, "rows": 0, "nnz": 0, "kernel_found": 0}
            for name in NAMES
        }
        for i, (name, start, end, parent, run_id, extra, outer) in enumerate(spans):
            agg = out[name]
            agg["calls"] += 1
            agg["self_s"] += (end - start) - covered[i]
            if extra:
                agg["terms"] += extra.get("terms", 0)
                agg["rows"] += extra.get("rows", 0)
                agg["nnz"] += extra.get("nnz", 0)
                agg["kernel_found"] += 1 if extra.get("kernel") else 0
        return out

    def write(self, path):
        """Write the spans as JSON lines, one span a line, in call order."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, run_id, extra, outer) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                if extra:
                    rec.update(extra)
                fh.write(json.dumps(rec) + "\n")
