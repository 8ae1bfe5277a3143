"""Span tracing of the mhs layers, installed from outside the package.

Every public function of the layer modules is replaced, in every mhs
module namespace that refers to it, by a wrapper that records a span:
name, start, end and parent.  The field evaluators of the surfaces that
``geometry.clifford`` and ``rotational.build_surface`` return are wrapped
as well, so chart points handed to the family can be counted.  Spans stay
in memory and are written out once, when the run ends.

``layer_metrics`` turns a span list into the per-layer metrics; it needs
nothing beyond the standard library, so the driver can call it without
loading numpy.
"""

import dataclasses
import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("rotational", "geometry", "fem", "spectral", "paperlab", "cli")
FAMILY_FIELDS = ("position", "normal", "asq", "sqrt_det_g", "tangents",
                 "shape_frame")


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, extra dict]
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, after=None):
        """Wrap fn in a span named name.

        after(span_extra, args, kwargs, result) may record counts in the
        span's extra dict and returns the value handed back to the caller.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, {}]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                result = after(span[4], args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace the public functions of each layer module by spans."""
        hooks = {
            "geometry.clifford": self._wrap_family,
            "rotational.build_surface": self._wrap_family,
            "fem.assemble": _count_nnz,
            "spectral.lowest_eigs": _count_eigpairs,
            "spectral.morse_index": _count_window,
            "paperlab.chain_sweep": _count_draws,
        }
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mhs.{layer}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, hooks.get(name))
        # rebind every reference, including names imported with
        # ``from .module import function`` into other mhs modules
        for modname, module in list(sys.modules.items()):
            if modname != "mhs" and not modname.startswith("mhs."):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    setattr(module, attr, wrappers[id(obj)])

    def _wrap_family(self, extra, args, kwargs, family):
        fields = {f: self.wrap(f"geometry.{f}", getattr(family, f),
                               _count_points)
                  for f in FAMILY_FIELDS}
        return dataclasses.replace(family, **fields)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _count_points(extra, args, kwargs, result):
    shape = getattr(args[0], "shape", None)
    extra["points"] = math.prod(shape[:-1]) if shape else 1
    return result


def _count_nnz(extra, args, kwargs, ops):
    extra["nnz"] = int(ops.K.nnz + ops.Mm.nnz + ops.W.nnz)
    return ops


def _count_eigpairs(extra, args, kwargs, report):
    extra["eigpairs"] = len(report.eigenvalues)
    return report


def _count_window(extra, args, kwargs, result):
    extra["window"] = len(result[1].eigenvalues)
    return result


def _count_draws(extra, args, kwargs, result):
    extra["draws"] = len(result[0])
    return result


# ----------------------------------------------------------------------
# span list -> per-layer metrics
# ----------------------------------------------------------------------

# name, unit: every per-layer metric, in report order
METRICS = (
    ("rotational.find_otsuki_s", "s"),
    ("rotational.rotation_number_calls", "count"),
    ("rotational.build_surface_s", "s"),
    ("rotational.self_s", "s"),
    ("geometry.points_evaluated", "count"),
    ("geometry.self_s", "s"),
    ("fem.mesh_s", "s"),
    ("fem.assemble_s", "s"),
    ("fem.assemble_calls", "count"),
    ("fem.nnz", "count"),
    ("fem.self_s", "s"),
    ("spectral.lowest_eigs_s", "s"),
    ("spectral.lowest_eigs_calls", "count"),
    ("spectral.eigpairs_computed", "count"),
    ("spectral.window_useful_ratio", "1"),
    ("spectral.inertia_below_s", "s"),
    ("spectral.morse_index_s", "s"),
    ("spectral.first_eigfunction_s", "s"),
    ("spectral.first_eigfunction_calls", "count"),
    ("spectral.self_s", "s"),
    ("paperlab.chain_sweep_s", "s"),
    ("paperlab.chain_draws", "count"),
    ("paperlab.chain_verify_calls", "count"),
    ("paperlab.chain_verify_s", "s"),
    ("paperlab.choose_v0_calls", "count"),
    ("paperlab.choose_v0_s", "s"),
    ("paperlab.v0_reuse_ratio", "1"),
    ("paperlab.theorem_check_self_s", "s"),
    ("paperlab.lemma_check_s", "s"),
    ("paperlab.conjecture_probe_s", "s"),
    ("paperlab.gauss_identities_s", "s"),
    ("paperlab.self_s", "s"),
    ("cli.self_s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "1"),
    ("trace.spans", "count"),
)


def layer_metrics(spans, wall_s, untraced_wall_s, report_bytes):
    """Per-layer metric values of one traced run.

    A span's self time is its duration minus the durations of its direct
    children; spans of one process are strictly nested, so children never
    overlap.  Names that never ran report 0.
    """
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    total, calls, self_by_name, layer_self = {}, {}, {}, {}
    for i, (name, _, _, _, _) in enumerate(spans):
        own = dur[i] - child_time[i]
        total[name] = total.get(name, 0.0) + dur[i]
        calls[name] = calls.get(name, 0) + 1
        self_by_name[name] = self_by_name.get(name, 0.0) + own
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    def extra_sum(key, parent_name=None):
        out = 0
        for _, _, _, parent, extra in spans:
            if key not in extra:
                continue
            if parent_name is not None and (
                    parent < 0 or spans[parent][0] != parent_name):
                continue
            out += extra[key]
        return out

    eig_in_morse = extra_sum("eigpairs", parent_name="spectral.morse_index")
    draws = extra_sum("draws")
    v0_in_sweep = sum(1 for name, _, _, parent, _ in spans
                      if name == "paperlab.choose_v0" and parent >= 0
                      and spans[parent][0] == "paperlab.chain_sweep")
    top_level = sum(d for d, span in zip(dur, spans) if span[3] < 0)

    values = {
        "rotational.find_otsuki_s": total.get("rotational.find_otsuki", 0.0),
        "rotational.rotation_number_calls":
            calls.get("rotational.rotation_number", 0),
        "rotational.build_surface_s":
            total.get("rotational.build_surface", 0.0),
        "geometry.points_evaluated": extra_sum("points"),
        "fem.mesh_s": (total.get("fem.mesh_torus", 0.0)
                       + total.get("fem.mesh_sphere", 0.0)),
        "fem.assemble_s": total.get("fem.assemble", 0.0),
        "fem.assemble_calls": calls.get("fem.assemble", 0),
        "fem.nnz": extra_sum("nnz"),
        "spectral.lowest_eigs_s": total.get("spectral.lowest_eigs", 0.0),
        "spectral.lowest_eigs_calls": calls.get("spectral.lowest_eigs", 0),
        "spectral.eigpairs_computed": extra_sum("eigpairs"),
        "spectral.window_useful_ratio":
            extra_sum("window") / eig_in_morse if eig_in_morse else 0.0,
        "spectral.inertia_below_s": total.get("spectral.inertia_below", 0.0),
        "spectral.morse_index_s": total.get("spectral.morse_index", 0.0),
        "spectral.first_eigfunction_s":
            total.get("spectral.first_eigfunction", 0.0),
        "spectral.first_eigfunction_calls":
            calls.get("spectral.first_eigfunction", 0),
        "paperlab.chain_sweep_s": total.get("paperlab.chain_sweep", 0.0),
        "paperlab.chain_draws": draws,
        "paperlab.chain_verify_calls": calls.get("paperlab.chain_verify", 0),
        "paperlab.chain_verify_s": total.get("paperlab.chain_verify", 0.0),
        "paperlab.choose_v0_calls": calls.get("paperlab.choose_v0", 0),
        "paperlab.choose_v0_s": total.get("paperlab.choose_v0", 0.0),
        "paperlab.v0_reuse_ratio": 1.0 - v0_in_sweep / draws if draws else 0.0,
        "paperlab.theorem_check_self_s":
            self_by_name.get("paperlab.theorem_check", 0.0),
        "paperlab.lemma_check_s": total.get("paperlab.lemma_check", 0.0),
        "paperlab.conjecture_probe_s":
            total.get("paperlab.conjecture_probe", 0.0),
        "paperlab.gauss_identities_s":
            total.get("paperlab.gauss_identities", 0.0),
        "cli.report_bytes": report_bytes,
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.coverage": top_level / wall_s,
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    return values
