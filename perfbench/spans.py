"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of ``dwropt`` from outside the package.
``from .x import y`` copies a binding into the importing module, so every
module attribute that refers to the original function is replaced, not only
the defining one.  Spans are kept in a list and reduced to per-layer metrics
once, when the run ends.

A span holds its name, start, end, parent index and optional attributes.  A
call into a layer that is already open (for example ``SumAdvection`` summing
two ``AdvectionField`` components) records no second span, so nothing is
counted twice.  Self time is a span's duration minus the durations of its
direct child spans.  The cost of tracing is the span count times the cost of
one span, measured in the same process by :func:`span_cost`.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# Bytes per stored LU entry: a float64 value and an int32 row index.  The
# figure is computed from the factor's nonzero count, not measured.
LU_ENTRY_BYTES = 12

FACTOR_KINDS = ("patch", "macro", "fine")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, attrs or None]
        self._stack = []
        self._open = Counter()

    def wrap(self, name, fn, attrs=None):
        """Return ``fn`` wrapped in a span called ``name``.  ``attrs(args,
        kwargs, result)`` returns a dict of counts stored on the span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            tracer._open[name] += 1
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
            if attrs is not None:
                span[4] = attrs(args, kwargs, out)
            return out

        return traced

    def patch_function(self, name, fn, attrs=None):
        """Replace every ``dwropt`` module binding of ``fn``."""
        wrapped = self.wrap(name, fn, attrs)
        hits = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "dwropt" or mod_name.startswith("dwropt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapped)
                    hits += 1
        if not hits:
            raise RuntimeError(f"no dwropt module binds {fn!r}")

    def patch_method(self, name, cls, attr, attrs=None):
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], attrs))

    def factor_kind(self, index):
        """Attribute a factorization to the nearest enclosing patch or
        reference span; everything else factors a macro operator."""
        parent = self.spans[index][3]
        while parent is not None:
            name = self.spans[parent][0]
            if name == "dwr.local_enhancement":
                return "patch"
            if name == "cli.reference":
                return "fine"
            parent = self.spans[parent][3]
        return "macro"


def span_cost(calls=2000, rounds=5):
    """Seconds that one span adds to a call: a no-op called through
    :meth:`Tracer.wrap` against the bare no-op, median over ``rounds``."""

    def noop():
        pass

    traced = Tracer().wrap("noop", noop)
    costs = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            traced()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        costs.append((mid - start) - (time.perf_counter() - mid))
    return statistics.median(costs) / calls


def _points(args, kwargs, out):
    return {"points": len(args[-1])}


def _dofs(args, kwargs, out):
    return {"dofs": args[0].n_dofs}


def _io_bytes(path_index):
    def attrs(args, kwargs, out):
        return {"bytes": os.path.getsize(args[path_index])}

    return attrs


def install(tracer):
    """Wrap the layer boundaries of an imported ``dwropt``."""
    from dwropt import cli, dwr, fem, field, mesh, optim, upscale

    t = tracer
    t.patch_method(
        "mesh.micro_grid", mesh.MeshHierarchy, "micro_grid",
        lambda a, k, out: {"nodes": out.n_nodes},
    )

    t.patch_method("field.coefficient", field.CoefficientField, "tensors_at", _points)
    t.patch_method("field.advection", field.AdvectionField, "values_at", _points)
    t.patch_method("field.advection", field.SumAdvection, "values_at", _points)
    for fn in (field.gen_gaussian_raster, field.correlated_noise, field.stream_advection):
        t.patch_function("field.build", fn)
    t.patch_method("field.build", field.AdvectionField, "max_magnitude")
    t.patch_method("field.build", field.SumAdvection, "max_magnitude")

    t.patch_function("fem.assemble.diffusion", fem.assemble_diffusion, _dofs)
    t.patch_function("fem.assemble.advection", fem.assemble_advection, _dofs)
    fem.splu = t.wrap(
        "fem.factor", fem.splu,
        lambda a, k, out: {"dofs": a[0].shape[0], "lu_nnz": int(out.nnz)},
    )
    t.patch_method("fem.solve", fem.SparseOperator, "solve_constrained")
    t.patch_function("fem.evaluate", fem.evaluate, _points)
    for fn in (fem.diffusion_form_stack, fem.diffusion_form_percell, fem.advection_form_percell):
        t.patch_function("fem.forms", fn)

    for fn in (
        upscale.constant_model,
        upscale.arithmetic_mean_model,
        upscale.geometric_mean_model,
        upscale.homogenized_effective_model,
    ):
        t.patch_function("upscale.initial_model", fn)

    t.patch_function("dwr.local_enhancement", dwr.local_enhancement)
    t.patch_function("dwr.error_identity", dwr.error_identity)

    t.patch_function("optim.assemble_system", optim.assemble_system)
    t.patch_function("optim.response_U", optim.response_U)
    t.patch_function(
        "optim.build_jacobian", optim.build_jacobian,
        lambda a, k, out: {"nnz": int(out.nnz)},
    )
    t.patch_function("optim.lm_step", optim.lm_step)

    t.patch_function("cli.reference", cli.oracle_reference)
    t.patch_method("cli.io", optim.GaussNewtonState, "write_history", _io_bytes(1))
    t.patch_method("cli.io", upscale.EffectiveModel, "to_csv", _io_bytes(1))
    t.patch_method("cli.io", fem.DiscreteField, "to_csv", _io_bytes(1))
    t.patch_method("cli.io", fem.DiscreteField, "to_vtk", _io_bytes(1))
    t.patch_method("cli.io", field.RasterField, "to_pgm", _io_bytes(1))
    t.patch_method("cli.io", dwr.ErrorBreakdown, "to_csv", _io_bytes(1))
    t.patch_function("cli.io", cli._write_b_delta, _io_bytes(0))


def layer_metrics(tracer):
    """Reduce the recorded spans to the per-layer metrics, all keys present
    (zero where a layer was not entered)."""
    child_time = defaultdict(float)
    for name, start, end, parent, _ in tracer.spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    calls = Counter()
    attrs = defaultdict(Counter)
    for index, (name, start, end, _, extra) in enumerate(tracer.spans):
        if name == "fem.factor":
            name = f"fem.factor.{tracer.factor_kind(index)}"
        total[name] += end - start
        self_time[name] += end - start - child_time[index]
        calls[name] += 1
        if extra:
            attrs[name].update(extra)

    m = {
        "mesh.micro_grid.calls": calls["mesh.micro_grid"],
        "mesh.micro_grid.nodes": attrs["mesh.micro_grid"]["nodes"],
        "field.coefficient.s": total["field.coefficient"],
        "field.coefficient.points": attrs["field.coefficient"]["points"],
        "field.advection.s": total["field.advection"],
        "field.advection.points": attrs["field.advection"]["points"],
        "field.build.s": total["field.build"],
    }
    for kind in ("diffusion", "advection"):
        name = f"fem.assemble.{kind}"
        m[f"{name}.s"] = total[name]
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.dofs"] = attrs[name]["dofs"]
    for kind in FACTOR_KINDS:
        name = f"fem.factor.{kind}"
        m[f"{name}.s"] = total[name]
        m[f"{name}.count"] = calls[name]
        m[f"{name}.dofs"] = attrs[name]["dofs"]
        m[f"{name}.lu_nnz"] = attrs[name]["lu_nnz"]
    m["fem.factor.lu_bytes"] = LU_ENTRY_BYTES * sum(
        attrs[f"fem.factor.{kind}"]["lu_nnz"] for kind in FACTOR_KINDS
    )
    m.update({
        "fem.solve.s": self_time["fem.solve"],
        "fem.solve.count": calls["fem.solve"],
        "fem.evaluate.s": total["fem.evaluate"],
        "fem.evaluate.points": attrs["fem.evaluate"]["points"],
        "fem.forms.s": total["fem.forms"],
        "fem.forms.calls": calls["fem.forms"],
        "upscale.initial_model.s": total["upscale.initial_model"],
        "dwr.local_enhancement.s": total["dwr.local_enhancement"],
        "dwr.local_enhancement.self_s": self_time["dwr.local_enhancement"],
        "dwr.local_enhancement.calls": calls["dwr.local_enhancement"],
        "dwr.error_identity.s": total["dwr.error_identity"],
        "optim.assemble_system.s": total["optim.assemble_system"],
        "optim.assemble_system.self_s": self_time["optim.assemble_system"],
        "optim.assemble_system.calls": calls["optim.assemble_system"],
        "optim.response_U.s": total["optim.response_U"],
        "optim.response_U.calls": calls["optim.response_U"],
        "optim.build_jacobian.s": total["optim.build_jacobian"],
        "optim.jacobian.nnz": attrs["optim.build_jacobian"]["nnz"],
        "optim.lm_step.s": total["optim.lm_step"],
        "optim.lm_step.calls": calls["optim.lm_step"],
        "cli.reference.s": total["cli.reference"],
        "cli.io.s": total["cli.io"],
        "cli.io.bytes": attrs["cli.io"]["bytes"],
        "trace.spans": len(tracer.spans),
        "trace.overhead_s": len(tracer.spans) * span_cost(),
    })
    return m
