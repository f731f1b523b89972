"""Workload ``compile_zoo``: what capture and compile cost a user.

One process compiles the zoo and runs each artifact once, only to check
it against eager.  The work runs in rounds; each round starts with every
compile cache empty (the first round is also the process's first
compile) and does, per model:

* cold: ``fx.compile`` plus the first call;
* warm: ``fx.compile`` of the same object again, twice (the caches hit);
* reweight: ``fx.compile`` of a fresh instance with new weights (every
  weight-keyed cache misses and is written); the two light models, whose
  single compiles are short and so noisier, do it three times;
* trt: ``fx.to_backend(m, "trt")`` plus first call, for ResNet-50 and
  LearningToPaint, on instances whose weights no other compile sees.

Each metric is the median over rounds, so its samples span the whole run
rather than one stretch of it.  The compile caches are unbounded: what a
round's reweighted compiles leave resident is reported as
``compile_rss_growth_mb``.  Emptying the caches at the start of each
round keeps the peak near one round's growth, and a round that would pass
half the host's memory is not started.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import nullcontext

import numpy as np

import layers
import repro.fx as fx
from common import (SETUP_REPEATS, Run, geomean, median, mem_total_mb,
                    peak_rss_mb, settled_rss_mb)
from zoo import TRT_MODELS, ZOO, build, digest, make_input

MIN_ROUNDS = 3
#: The traced run does fixed work, so per-layer totals compare across runs.
TRACED_ROUNDS = 3
WARM_PER_ROUND = 2
REWEIGHT_PER_ROUND = {"resnet50": 1, "ltp": 1, "transformer": 3,
                      "deeprec": 3}


def _setup(seed: int, tracer) -> dict:
    rng = np.random.default_rng(seed)
    state: dict = {"models": {}, "inputs": {}, "refs": {}, "trt": {}}
    for i, (name, spec) in enumerate(ZOO.items()):
        m = build(spec, seed * 1000 + i)
        x = make_input(spec, rng)
        state["models"][name], state["inputs"][name] = m, x
        with layers.kernels(tracer):
            state["refs"][name] = m(x)
    for i, name in enumerate(TRT_MODELS):
        m = build(ZOO[name], seed * 1000 + 500 + i)
        with layers.kernels(tracer):
            state["trt"][name] = (m, m(state["inputs"][name]))
    return state


def run(r: Run, seconds: float, tracer) -> None:
    if tracer is not None:
        patches, before = layers.start(r, tracer)
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        state = None  # drop the previous models before rebuilding
        gc.collect()
        t0 = time.perf_counter()
        state = _setup(r.seed, tracer)
        setups.append(time.perf_counter() - t0)
    r.metric("setup_s", median(setups), "s")
    models, inputs, refs = state["models"], state["inputs"], state["refs"]
    r.detail["input_digest"] = digest(*inputs.values())

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    def first_call(what: str, layer: str, art, x):
        """Time the first call of a new artifact.  In the traced run the
        kernel wrappers go in around it, outside the timed region."""
        with layers.kernels(tracer, [art]), span(f"forward.{what}"):
            t0 = time.perf_counter()
            y = r.attempt(f"run {what}", layer, art, x)
            return y, time.perf_counter() - t0

    def compile_once(phase: str, name: str, m, ref) -> None:
        """Time one compile (plus first call, when cold) into *phase*."""
        x = inputs[name]
        with span(f"compile.{name}.{phase}"):
            t0 = time.perf_counter()
            art = r.attempt(f"{phase} compile {name}", "repro.fx.compile",
                            fx.compile, m, (x,))
            dt = time.perf_counter() - t0
        if art is None:
            return
        if phase == "cold":
            y, dt_call = first_call(f"cold.{name}", "repro.fx.graph_module",
                                    art, x)
            dt += dt_call
        else:
            y = r.attempt(f"{phase} run {name}", "repro.fx.graph_module",
                          art, x)
        if y is not None:
            times[phase][name].append(dt)
            r.check(f"{phase} {name}", y, ref, exact=ZOO[name].exact,
                    layer="repro.fx.compile")

    def lower_trt(name: str) -> None:
        m, ref = state["trt"][name]
        x = inputs[name]
        with span(f"lower_trt.{name}"):
            t0 = time.perf_counter()
            eng = r.attempt(f"lower trt {name}", "repro.fx.backends",
                            fx.to_backend, m, "trt")
            dt = time.perf_counter() - t0
        if eng is None:
            return
        y, dt_call = first_call(f"trt.{name}", "repro.trt", eng, x)
        if y is not None:
            times["trt"][name].append(dt + dt_call)
            r.check(f"trt {name}", y, ref, exact=False, layer="repro.trt")

    times: dict = defaultdict(lambda: defaultdict(list))
    growth: list[float] = []
    budget_mb = mem_total_mb() / 2
    n_rounds = 1 if r.tiny else (TRACED_ROUNDS if tracer is not None
                                 else MIN_ROUNDS)
    t_start = time.perf_counter()
    k = 0
    while k < n_rounds or (tracer is None and not r.tiny
                           and time.perf_counter() - t_start < seconds):
        if k and settled_rss_mb() + max(growth) > budget_mb:
            r.notes.append(f"stopped after {k} rounds: another would pass "
                           f"{budget_mb:.0f} MB RSS")
            break
        if k:
            r.clear_compile_caches()
        for name, m in models.items():
            compile_once("cold", name, m, refs[name])
        for _ in range(WARM_PER_ROUND):
            for name, m in models.items():
                compile_once("warm", name, m, refs[name])
        rss0 = settled_rss_mb()
        for i, (name, spec) in enumerate(ZOO.items()):
            for j in range(REWEIGHT_PER_ROUND[name]):
                m = build(spec, r.seed * 1000 + 100 * (10 * k + j + 1) + i)
                compile_once("reweight", name, m, m(inputs[name]))
        growth.append(settled_rss_mb() - rss0)
        for name in TRT_MODELS:
            lower_trt(name)
        k += 1
    r.detail["rounds"] = k
    r.detail["measure_s"] = time.perf_counter() - t_start

    cold, warm, reweight, trt = (times[p] for p in
                                 ("cold", "warm", "reweight", "trt"))
    if not (all(cold[n] and warm[n] and reweight[n] for n in ZOO)
            and all(trt[n] for n in TRT_MODELS)):
        raise RuntimeError("a compile phase produced no timing; see failures")
    r.metric("compile_cold_s", geomean([median(cold[n]) for n in ZOO]), "s")
    r.metric("compile_warm_s", geomean([median(warm[n]) for n in ZOO]), "s")
    r.metric("compile_reweight_s",
             geomean([median(reweight[n]) for n in ZOO]), "s")
    r.metric("lower_trt_s", geomean([median(trt[n]) for n in TRT_MODELS]),
             "s")
    r.metric("compile_rss_growth_mb", median(growth), "MB")
    # The workload's share of the common end-to-end metrics: its repeated
    # operations are warm and reweighted compiles, its cold ones the
    # cache-cold compiles and lowerings, each up to the first answer.
    r.metric("op_ms", 1e3 * geomean(
        [median(warm[n]) for n in ZOO] + [median(reweight[n]) for n in ZOO]),
        "ms")
    r.metric("cold_op_ms", 1e3 * geomean(
        [median(cold[n]) for n in ZOO] + [median(trt[n]) for n in TRT_MODELS]),
        "ms")
    r.metric("peak_rss_mb", peak_rss_mb(), "MB")
    for name in ZOO:
        for phase in ("cold", "warm", "reweight"):
            r.layer_metric(f"compile.{name}.{phase}_s",
                           median(times[phase][name]), "s")
    for name in TRT_MODELS:
        r.layer_metric(f"lower_trt.{name}_s", median(trt[name]), "s")

    if tracer is not None:
        layers.finish(r, tracer, patches, before)
