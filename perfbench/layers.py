"""Which hopfsim functions the traced run wraps, and the per-layer metrics.

Spans are taken around the public function of each layer that does the
work; a function listed as count-only gets no span, so its time stays in
the self time of the function that called it (``chern_number`` inside
``chern_numbers``, ``gauss_linking_sum`` inside ``linking_number_t3``).
The counts in ``COMPUTED`` are computed by the benchmark from argument and
result shapes; the other ``.calls`` are observed calls.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from spans import Span, rebind_everywhere, summarize, traced

# (metric name, unit); the order is the order of the report
PER_LAYER = (
    ("model.bloch_ground.self_s", "s"),
    ("model.bloch_ground.points", "count"),
    ("model.ground_state.self_s", "s"),
    ("model.u_of_k.points", "count"),
    ("bzgrid.sample_state_field.self_s", "s"),
    ("bzgrid.StateField.pure_states.self_s", "s"),
    ("bzgrid.field_to_dict.self_s", "s"),
    ("invariants.eigh.matrices", "count"),
    ("invariants.berry_curvature.self_s", "s"),
    ("invariants.berry_connection.self_s", "s"),
    ("invariants.hopf_index.self_s", "s"),
    ("invariants.fft.calls", "count"),
    ("invariants.fft.points", "count"),
    ("invariants.chern_numbers.self_s", "s"),
    ("invariants.chern_number.calls", "count"),
    ("preimage.preimage_contours.self_s", "s"),
    ("preimage.preimage_contours.calls", "count"),
    ("preimage.loops", "count"),
    ("preimage.vertices", "count"),
    ("preimage.linking_number_t3.self_s", "s"),
    ("preimage.gauss_linking_sum.calls", "count"),
    ("preimage.gauss.segment_pairs", "count"),
    ("preimage.errors.typed", "count"),
    ("preimage.errors.untyped", "count"),
    ("adiabatic.build_schedule.self_s", "s"),
    ("adiabatic.evolve.self_s", "s"),
    ("adiabatic.propagator.self_s", "s"),
    ("adiabatic.evolve.steps", "count"),
    ("adiabatic.simulate_measurements.self_s", "s"),
    ("adiabatic.mle_tomography.self_s", "s"),
    ("adiabatic.mle.iterations", "count"),
    ("adiabatic.mle.nonconverged", "count"),
    ("adiabatic.run_campaign.self_s", "s"),
    ("cli.parse_config.self_s", "s"),
    ("cli.dispatch.self_s", "s"),
    ("cli.write_atomic.self_s", "s"),
    ("cli.bytes_written", "count"),
    ("trace.overhead_s", "s"),
)

# counts the benchmark computes from argument and result shapes, or counts of
# numpy calls attributed to the layer that makes them
COMPUTED = (
    "model.bloch_ground.points", "model.u_of_k.points", "invariants.eigh.matrices",
    "invariants.fft.calls", "invariants.fft.points", "preimage.loops",
    "preimage.vertices", "preimage.gauss.segment_pairs", "adiabatic.evolve.steps",
    "cli.bytes_written",
)


def _points(k):
    k = np.asarray(k)
    return k.size // k.shape[-1] if k.ndim else 1


def install(tracer, patches):
    """Wrap the layer functions of hopfsim and numpy's fftn/ifftn/eigh."""
    from hopfsim import adiabatic, bzgrid, cli, invariants, model, preimage
    from hopfsim.errors import NonConvergence

    count = tracer.count

    def wrap(module, attr, **kw):
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr)
        rebind_everywhere(patches, "hopfsim", original, traced(tracer, name, original, **kw))

    def points(name):
        return lambda args, kwargs: count(name, _points(args[0]))

    def contours(result, args, kwargs):
        if isinstance(result, list):
            count("preimage.loops", len(result))
            count("preimage.vertices", sum(len(c) for c in result))

    def gauss(args, kwargs):
        count("preimage.gauss_linking_sum.calls")
        count("preimage.gauss.segment_pairs", len(args[0]) * len(args[1]))

    def steps(args, kwargs):
        schedule = args[0]
        dt = kwargs.get("dt", args[2] if len(args) > 2 else None) or schedule.sample_dt
        if schedule.duration:
            count("adiabatic.evolve.steps", int(round(schedule.duration / dt)))

    def mle(result, args, kwargs):
        if isinstance(result, NonConvergence):
            count("adiabatic.mle.nonconverged")
            result = result.best
        if result is not None and not isinstance(result, Exception):
            count("adiabatic.mle.iterations", result.iterations)

    def written(args, kwargs):
        count("cli.bytes_written", len(args[1].encode()))

    wrap(model, "u_of_k", span=False, before=points("model.u_of_k.points"))
    wrap(model, "ground_state")
    wrap(model, "bloch_ground", before=points("model.bloch_ground.points"))
    wrap(bzgrid, "sample_state_field")
    wrap(bzgrid, "field_to_dict")
    patches.set(bzgrid.StateField, "pure_states",
                traced(tracer, "bzgrid.StateField.pure_states", bzgrid.StateField.pure_states))
    for attr in ("berry_curvature", "berry_connection", "hopf_index", "chern_numbers"):
        wrap(invariants, attr)
    wrap(invariants, "chern_number", span=False,
         before=lambda args, kwargs: count("invariants.chern_number.calls"))
    wrap(preimage, "preimage_contours", after=contours)
    wrap(preimage, "linking_number_t3")
    wrap(preimage, "gauss_linking_sum", span=False, before=gauss)
    for attr in ("build_schedule", "propagator", "simulate_measurements"):
        wrap(adiabatic, attr)
    wrap(adiabatic, "evolve", before=steps)
    wrap(adiabatic, "mle_tomography", after=mle)
    wrap(adiabatic, "run_campaign", adopt_threads=True)
    wrap(cli, "parse_config")
    wrap(cli, "dispatch")
    wrap(cli, "write_atomic", before=written)

    def fft_count(args, kwargs):
        count("invariants.fft.calls")
        count("invariants.fft.points", np.asarray(args[0]).size)

    for attr in ("fftn", "ifftn"):
        patches.set(np.fft, attr, traced(tracer, attr, getattr(np.fft, attr), span=False,
                                         before=fft_count))

    def eigh_count(args, kwargs):
        a = np.asarray(args[0])
        count("invariants.eigh.matrices", a.size // (a.shape[-1] * a.shape[-2]))

    patches.set(np.linalg, "eigh", traced(tracer, "eigh", np.linalg.eigh, span=False,
                                          before=eigh_count))


def per_layer_metrics(tracer):
    """{metric: value} for every PER_LAYER name except trace.overhead_s;
    layers the run never reached read 0."""
    summary = summarize(tracer.spans)
    out = {}
    for name, unit in PER_LAYER:
        if name == "trace.overhead_s":
            continue
        if name.endswith(".self_s"):
            out[name] = summary.get(name[: -len(".self_s")], (0.0, 0))[0]
        elif name.endswith(".calls") and name[: -len(".calls")] in summary:
            out[name] = summary[name[: -len(".calls")]][1]
        else:
            out[name] = tracer.counts.get(name, 0)
    return out


def dump(tracer):
    """Spans and counts as a JSON-ready dict (from a traced CLI subprocess)."""
    return {"spans": [dataclasses.astuple(s) for s in tracer.spans],
            "counts": dict(tracer.counts)}


def merge(tracer, doc):
    """Merge a subprocess's ``dump`` into ``tracer``."""
    tracer.merge([Span(*s) for s in doc["spans"]], doc["counts"])
