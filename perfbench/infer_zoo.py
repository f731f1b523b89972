"""Workload ``infer_zoo``: steady-state forwards of compiled artifacts.

Set-up builds four artifacts: ``fx.compile`` ResNet-50,
``to_backend("trt")`` ResNet-50 (the Fig. 8 model), ``to_backend("trt")``
LearningToPaint and ``fx.compile`` of the transformer.  The measured
loop then calls each artifact, and the eager model on the same input as
its reference, round-robin until time is up.  Compilation does no work
here; the runtime layers (generated-code dispatch, fused kernels, VM,
``repro.functional`` kernels) do all of it.
"""

from __future__ import annotations

import time

import numpy as np

import layers
import repro.fx as fx
from common import (SETUP_REPEATS, Run, geomean, median, peak_rss_mb,
                    percentile)
from zoo import ZOO, build, digest, make_input

#: artifact name -> (zoo model, how it is built)
ARTIFACTS = {
    "resnet50": ("resnet50", "compile"),
    "resnet50_trt": ("resnet50", "trt"),
    "ltp_trt": ("ltp", "trt"),
    "transformer": ("transformer", "compile"),
}
EAGER = ("resnet50", "ltp", "transformer")
#: Percentile of the forward times that ``op_ms`` reports.  On a shared
#: host a forward runs in a fast and a slow mode in stretches of seconds,
#: and the median falls between them, moving with the share of fast
#: stretches in a run (quartile spread 0.19-0.22 of the median over ten
#: runs); p85 sits in the slow mode (0.08-0.09) and, at ~90 forwards per
#: artifact, still has over ten samples above it.
OP_PERCENTILE = 85
#: Calls per round: the transformer is ~30x faster than ResNet-50, so it
#: runs more often to give its percentiles as many samples.
REPEATS = {"transformer": 10}
TRACED_ROUNDS = 20


def _setup(seed: int, tracer) -> dict:
    """Models, inputs, eager references and the built artifacts, with
    each artifact's time from model to first answer."""
    rng = np.random.default_rng(seed)
    models, inputs, refs = {}, {}, {}
    for i, name in enumerate(EAGER):
        spec = ZOO[name]
        models[name] = build(spec, seed * 1000 + i)
        inputs[name] = make_input(spec, rng)
        with layers.kernels(tracer):
            refs[name] = models[name](inputs[name])
    arts, cold = {}, {}
    for art, (name, how) in ARTIFACTS.items():
        m, x = models[name], inputs[name]
        t0 = time.perf_counter()
        arts[art] = fx.compile(m, (x,)) if how == "compile" \
            else fx.to_backend(m, "trt")
        cold[art] = time.perf_counter() - t0
        # First call (arena buffers, lazy state); the kernel wrappers go in
        # outside the timed region.
        with layers.kernels(tracer, [arts[art]]):
            t0 = time.perf_counter()
            arts[art](x)
            cold[art] += time.perf_counter() - t0
    return {"models": models, "inputs": inputs, "refs": refs, "arts": arts,
            "cold": cold}


def run(r: Run, seconds: float, tracer) -> None:
    if tracer is not None:
        patches, before = layers.start(r, tracer)
    setups, colds = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous artifacts before rebuilding
        r.clear_compile_caches()
        t0 = time.perf_counter()
        state = _setup(r.seed, tracer)
        setups.append(time.perf_counter() - t0)
        colds.append(state["cold"])
    r.metric("setup_s", median(setups), "s")
    inputs, refs = state["inputs"], state["refs"]
    r.detail["input_digest"] = digest(*inputs.values())

    # (sample key, callable, zoo model, bit-exact?)
    calls = []
    for art, (name, how) in ARTIFACTS.items():
        exact = ZOO[name].exact and how == "compile"
        calls += [(art, state["arts"][art], name, exact)] * \
            REPEATS.get(name, 1)
    for name in EAGER:
        calls += [(f"eager.{name}", state["models"][name], name, True)] * \
            REPEATS.get(name, 1)

    samples = {key: [] for key, *_ in calls}
    with layers.kernels(tracer, state["arts"].values()):
        rounds = _measure(r, seconds, tracer, calls, inputs, refs, samples)
    r.detail["rounds"] = rounds
    r.detail["samples"] = {k: len(v) for k, v in samples.items()}

    if not all(samples.values()):
        raise RuntimeError("an artifact produced no timing; see failures")
    for art in ARTIFACTS:
        r.metric(f"infer_{art}_ms", 1e3 * median(samples[art]), "ms")
        r.layer_metric(f"infer.{art}.p90_ms",
                       1e3 * percentile(samples[art], 90), "ms")
    for name in EAGER:
        r.layer_metric(f"eager.{name}.p50_ms",
                       1e3 * median(samples[f"eager.{name}"]), "ms")
    # The workload's share of the common end-to-end metrics: its repeated
    # operations are the artifact forwards, its cold ones each artifact's
    # build plus first call (median over the set-ups).
    r.metric("op_ms", geomean(
        [1e3 * percentile(samples[art], OP_PERCENTILE) for art in ARTIFACTS]),
        "ms")
    r.metric("cold_op_ms", geomean(
        [1e3 * median([c[art] for c in colds]) for art in ARTIFACTS]), "ms")
    r.metric("peak_rss_mb", peak_rss_mb(), "MB")

    if tracer is not None:
        layers.finish(r, tracer, patches, before)


def _measure(r: Run, seconds: float, tracer, calls, inputs, refs,
             samples) -> int:
    """Round-robin forwards until time is up; returns the rounds run."""
    t_start = time.perf_counter()
    rounds = 0
    while True:
        if tracer is not None or r.tiny:
            if rounds >= (TRACED_ROUNDS if tracer is not None else 2):
                break
        elif rounds >= 2 and time.perf_counter() - t_start >= seconds:
            break
        for key, fn, name, exact in calls:
            x = inputs[name]
            if tracer is not None:
                # Artifact forwards are "forward.*": dispatch is their
                # self time.  Eager forwards keep their "eager.*" key.
                span = key if key.startswith("eager.") else f"forward.{key}"
                with tracer.span(span):
                    t0 = time.perf_counter()
                    y = r.attempt(f"forward {key}", "repro.fx", fn, x)
                    dt = time.perf_counter() - t0
            else:
                t0 = time.perf_counter()
                y = r.attempt(f"forward {key}", "repro.fx", fn, x)
                dt = time.perf_counter() - t0
            if y is not None:
                samples[key].append(dt)
                r.check(f"forward {key}", y, refs[name], exact=exact,
                        layer="repro.fx" if key in ARTIFACTS else "eager")
        rounds += 1
    return rounds
