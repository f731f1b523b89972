"""Workload ``serve_mixed``: an ``InferenceServer`` under open-loop load.

One asyncio process runs the server (default config, ``workers`` = usable
cores, a disk ``cache_dir``) and the load generator.  Arrivals are
seeded Poisson; the traffic is 3:1 between ``ChainModel`` 1x256 and
``SimpleCNN`` 1x3x28x28, all 1-row requests.  Phases:

* ``sparse`` (100 req/s): requests arrive alone, so latency is the batch
  window plus one forward;
* ``burst`` (1000 req/s): batches hold several rows;
* ``restart``: a new server on the same ``cache_dir``, timed from
  construction to the first correct answer from chain, CNN and the
  LearningToPaint engine built in set-up (the disk tier's heavy entry);
* coupled probe: simultaneous 1-row requests to ``x - x.mean(0)``, which
  batching silently breaks; each wrong answer is a failed operation.

Sparse and burst alternate in short chunks, with RESTARTS restarts after
each pair, so every phase samples the whole run; a phase's p50/p90 is the
median over its chunks, which a stall of the host confined to one chunk
cannot move.  Latency is timed from each request's due time, so
generator lateness counts against the server, and lateness is reported
per phase.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import tempfile
import threading
import time

import numpy as np

import layers
import repro
from common import (SETUP_REPEATS, Run, geomean, median, mismatch,
                    peak_rss_mb, percentile)
from repro.serve import InferenceServer, ServeConfig
from zoo import SERVE, CoupledModel, build, digest

RATES = {"sparse": 100.0, "burst": 1000.0}
#: Share of ``--seconds`` each load phase lasts, split over CYCLES chunks.
SHARES = {"sparse": 2 / 3, "burst": 1 / 3}
CYCLES = 5
#: Restarts per cycle: each is short, and its median needs the samples.
RESTARTS = 3
MIX = {"chain": 0.75, "cnn": 0.25}
POOL = 64
PROBE_ROWS = 8
#: A phase whose achieved send rate is this far below schedule is invalid.
OFF_SCHEDULE = 0.05
OUT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), ".bench_out")


def _config(cache_dir: str) -> ServeConfig:
    return ServeConfig(workers=len(os.sched_getaffinity(0)),
                       cache_dir=cache_dir)


async def _setup(seed: int, tracer) -> dict:
    rng = np.random.default_rng(seed)
    models = {name: build(spec, seed * 1000 + i)
              for i, (name, spec) in enumerate(SERVE.items())}
    pools = {name: [SERVE[name].make_input(rng) for _ in range(POOL)]
             for name in MIX}
    ltp_x = SERVE["ltp"].make_input(rng)
    with layers.kernels(tracer):
        refs = {name: [models[name](repro.tensor(x)).data
                       for x in pools[name]] for name in MIX}
        ltp_ref = models["ltp"](repro.tensor(ltp_x)).data
    first = {name: (pools[name][0], refs[name][0]) for name in MIX}
    first["ltp"] = (ltp_x, ltp_ref)
    cache_dir = tempfile.mkdtemp(prefix="serve-cache-", dir=OUT)
    server = InferenceServer(_config(cache_dir))
    for name, m in models.items():
        server.register(name, m)
    # One request per model builds its engine and writes it to disk.
    warm = {name: (await server.infer(name, repro.tensor(x))).data
            for name, (x, _) in first.items()}
    return {"models": models, "pools": pools, "refs": refs, "first": first,
            "cache_dir": cache_dir, "server": server, "warm": warm,
            "rng": rng}


def _schedule(rng: np.random.Generator, rate: float, seconds: float):
    """Seeded Poisson arrivals: (offset_s, model, pool index)."""
    out, t = [], 0.0
    names, weights = list(MIX), list(MIX.values())
    while True:
        t += rng.exponential(1.0 / rate)
        if t > seconds:
            return out
        out.append((t, names[rng.choice(len(names), p=weights)],
                    int(rng.integers(POOL))))


async def _load(server, schedule, pools) -> dict:
    """Open loop: send each request at its due time, never waiting for
    replies; time every reply from the due time."""
    loop = asyncio.get_running_loop()
    n = len(schedule)
    lat, outs, errs, lags = [None] * n, [None] * n, [None] * n, []

    async def one(i, model, x, due):
        try:
            outs[i] = (await server.infer(model, x)).data
            lat[i] = time.perf_counter() - due
        except Exception as exc:  # counted, checked after the phase
            errs[i] = exc

    tasks = []
    t0 = time.perf_counter() + 0.005
    for i, (offset, model, idx) in enumerate(schedule):
        due = t0 + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(time.perf_counter() - due)
        tasks.append(loop.create_task(
            one(i, model, repro.tensor(pools[model][idx]), due)))
    sent = time.perf_counter() - t0
    await asyncio.gather(*tasks)
    return {"lat": lat, "outs": outs, "errs": errs, "lags": lags,
            "start": t0, "end": time.perf_counter(),
            "achieved_rate": n / sent, "scheduled_rate": n / schedule[-1][0]}


def _check_phase(r: Run, phase: str, schedule, res: dict, refs) -> None:
    for i, (_, model, idx) in enumerate(schedule):
        r.attempted += 1
        if res["errs"][i] is not None:
            exc = res["errs"][i]
            r.fail(f"{phase} request {i} ({model})",
                   f"{type(exc).__name__}: {exc}", "repro.serve")
            continue
        why = mismatch(res["outs"][i], refs[model][idx], SERVE[model].exact)
        if why is not None:
            r.fail(f"{phase} request {i} ({model})", why, "repro.serve")


async def _restart(r: Run, state: dict) -> dict:
    t0 = time.perf_counter()
    server = InferenceServer(_config(state["cache_dir"]))
    t_reg = time.perf_counter()
    for name, m in state["models"].items():
        server.register(name, m)
    register_s = time.perf_counter() - t_reg
    outs = await asyncio.gather(
        *(server.infer(name, repro.tensor(x))
          for name, (x, _) in state["first"].items()),
        return_exceptions=True)
    dt = time.perf_counter() - t0
    info = server.stats()["engine_cache"]
    await server.close()
    for (name, (_, ref)), y in zip(state["first"].items(), outs):
        if isinstance(y, Exception):
            r.attempted += 1
            r.fail(f"restart {name}", f"{type(y).__name__}: {y}",
                   "repro.serve.engine_cache")
        else:
            r.check(f"restart {name}", y, ref, exact=SERVE[name].exact,
                    layer="repro.serve.engine_cache")
    return {"s": dt, "register_s": register_s, "cache": info,
            "start": t0, "end": t0 + dt}


async def _coupled_probe(r: Run, server, rng) -> int:
    model = CoupledModel()
    server.register("coupled", model)
    xs = [rng.standard_normal((1, 16)).astype(np.float32)
          for _ in range(PROBE_ROWS)]
    outs = await asyncio.gather(
        *(server.infer("coupled", repro.tensor(x)) for x in xs),
        return_exceptions=True)
    wrong = 0
    for x, y in zip(xs, outs):
        r.attempted += 1
        ref = model(repro.tensor(x))
        why = (f"{type(y).__name__}: {y}" if isinstance(y, Exception)
               else mismatch(y, ref, exact=True))
        if why is not None:
            wrong += 1
            r.fail("coupled probe request",
                   f"rows coalesced into one batch changed the answer "
                   f"({why})", "repro.serve.batching", known_defect=True)
    return wrong


async def _main(r: Run, seconds: float, tracer) -> None:
    if tracer is not None:
        patches, before = layers.start(r, tracer)
    setups, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            await state["server"].close()
            shutil.rmtree(state["cache_dir"], ignore_errors=True)
            state = None
        r.clear_compile_caches()
        t0 = time.perf_counter()
        state = await _setup(r.seed, tracer)
        setups.append(time.perf_counter() - t0)
    r.metric("setup_s", median(setups), "s")
    for name, (_, ref) in state["first"].items():
        r.check(f"warm-up {name}", state["warm"][name], ref,
                exact=SERVE[name].exact, layer="repro.serve")
    server, rng = state["server"], state["rng"]
    r.detail["input_digest"] = digest(*state["pools"]["chain"])

    if tracer is not None:
        install_serve(patches)

    cycles = 1 if r.tiny else CYCLES
    scale = (0.1 if r.tiny else 1.0) * seconds / cycles
    chunks: dict[str, list] = {phase: [] for phase in RATES}
    restarts = []
    try:
        for _ in range(cycles):
            for phase, rate in RATES.items():
                schedule = _schedule(rng, rate, SHARES[phase] * scale)
                res = await _load(server, schedule, state["pools"])
                _check_phase(r, phase, schedule, res, state["refs"])
                chunks[phase].append(res)
            for _ in range(RESTARTS):
                restarts.append(await _restart(r, state))
        wrong = await _coupled_probe(r, server, rng)
        stats = server.stats()
    finally:
        await server.close()
        shutil.rmtree(state["cache_dir"], ignore_errors=True)

    for phase, results in chunks.items():
        per_chunk = [[v for v in res["lat"] if v is not None]
                     for res in results]
        pooled = [v for lat in per_chunk for v in lat]
        r.metric(f"serve_{phase}_p50_ms",
                 1e3 * median([median(lat) for lat in per_chunk]), "ms")
        # The tail moves with this host's own stalls far more than any
        # usable regression bound (README), so it is reported per layer.
        r.layer_metric(f"serve.{phase}.p90_ms", 1e3 * median(
            [percentile(lat, 90) for lat in per_chunk]), "ms")
        r.layer_metric(f"serve.{phase}.p99_ms", 1e3 * percentile(pooled, 99),
                       "ms")
        r.layer_metric(f"loadgen.{phase}.lag_p99_ms", 1e3 * percentile(
            [v for res in results for v in res["lags"]], 99), "ms")
        r.detail[f"{phase}_requests"] = len(pooled)
        r.detail[f"{phase}_chunk_p50_ms"] = [1e3 * median(lat)
                                             for lat in per_chunk]
        late = [res["achieved_rate"] for res in results
                if res["achieved_rate"]
                < (1 - OFF_SCHEDULE) * res["scheduled_rate"]]
        if late:
            r.detail[f"{phase}_off_schedule"] = True
            r.notes.append(
                f"{phase}: OFF-SCHEDULE, {len(late)} of {len(results)} "
                f"chunks sent under {1 - OFF_SCHEDULE:.0%} of their "
                f"scheduled rate ({RATES[phase]:.0f} req/s); the phase's "
                f"latencies are not valid")
    r.metric("serve_restart_s", median([x["s"] for x in restarts]), "s")
    # The workload's share of the common end-to-end metrics: its repeated
    # operations are served requests, its cold one a restart up to the
    # first answer from every model.
    r.metric("op_ms", geomean(
        [r.e2e[f"serve_{phase}_p50_ms"]["value"] for phase in RATES]), "ms")
    r.metric("cold_op_ms", 1e3 * r.e2e["serve_restart_s"]["value"], "ms")
    r.metric("peak_rss_mb", peak_rss_mb(), "MB")
    r.layer_metric("serve.register_ms",
                   1e3 * median([x["register_s"] for x in restarts]), "ms")
    r.layer_metric("serve.coupled_wrong", wrong, "count")
    cache = stats["engine_cache"]
    lookups = cache["hits"] + cache["disk_hits"] + cache["builds"]
    r.layer_metric("engine_cache.lookups", lookups, "count")
    r.layer_metric("engine_cache.hit_ratio",
                   cache["hits"] / lookups if lookups else 0.0, "ratio")
    r.layer_metric("engine_cache.builds", cache["builds"], "count")
    r.layer_metric("guards.hits", stats["guard_hits"], "count")
    r.layer_metric("guards.violations", stats["guard_violations"], "count")
    r.detail["restart_disk_hits"] = [x["cache"]["disk_hits"]
                                     for x in restarts]
    if tracer is not None:
        derive_serve(r, tracer, chunks, restarts)
        layers.finish(r, tracer, patches, before)


def run(r: Run, seconds: float, tracer) -> None:
    asyncio.run(_main(r, seconds, tracer))


# -- per-layer instrumentation ------------------------------------------------


def install_serve(p) -> None:
    """Serve-layer wrappers, on top of ``layers.install`` (which already
    times ``VMProgram.run``, ``derive_guards`` and ``compile_to_vm``)."""
    from repro.serve import EngineCache

    p.method(InferenceServer, "infer", "serve.infer",
             lambda a, k, out: {"rid": id(a[2])})
    p.method(InferenceServer, "register", "serve.register")
    p.method(InferenceServer, "stats", "serve.stats")
    p.function("repro.serve.batching", "coalesce", "serve.coalesce",
               lambda a, k, out: {"rids": [id(t[0]) for t in a[0]]})
    p.function("repro.serve.batching", "split_results", "serve.split")
    p.method(EngineCache, "get_or_build", "engine_cache.get_or_build")


def derive_serve(r: Run, tracer, chunks: dict, restarts: list) -> None:
    m = r.layer_metric
    main_tid = threading.get_ident()
    # Worker-thread spans are roots; a forward serves the requests of the
    # coalesce just before it on the same thread, else its own input.
    served: dict[int, list] = {}
    by_thread: dict[int, list] = {}
    for s in tracer.spans:
        if s.parent is None and s.tid != main_tid:
            by_thread.setdefault(s.tid, []).append(s)
    runs = []
    for spans in by_thread.values():
        pending = None
        for s in sorted(spans, key=lambda s: s.start):
            if s.name == "serve.coalesce":
                pending = s.attrs["rids"]
            elif s.name == "vm.run":
                runs.append(s)
                for rid in pending if pending is not None \
                        else [s.attrs["rid"]]:
                    served.setdefault(rid, []).append(s)
                pending = None
    execute = []
    for phase, results in chunks.items():
        waits, phase_runs = [], []
        for res in results:
            for inf in tracer.named("serve.infer", since=res["start"],
                                    until=res["end"]):
                starts = [e.start for e in served.get(inf.attrs["rid"], ())
                          if inf.start <= e.start <= inf.end]
                if starts:
                    waits.append(min(starts) - inf.start)
            phase_runs += [s for s in runs
                           if res["start"] <= s.start < res["end"]]
        execute += [s.dur for s in phase_runs]
        m(f"serve.{phase}.queue_wait_p50_ms", 1e3 * median(waits), "ms")
        m(f"serve.{phase}.queue_wait_p99_ms",
          1e3 * percentile(waits, 99), "ms")
        m(f"serve.{phase}.rows_per_batch",
          float(np.mean([s.attrs["rows"] for s in phase_runs])), "rows")
    m("serve.execute_p50_ms", 1e3 * median(execute), "ms")
    for name in ("coalesce", "split"):
        durs = [s.dur for s in tracer.named(f"serve.{name}")]
        m(f"serve.{name}_ms", 1e3 * median(durs) if durs else 0.0, "ms")
    m("engine_cache.disk_load_ms", 1e3 * median([
        sum(s.dur for s in tracer.named("engine_cache.get_or_build",
                                        since=x["start"], until=x["end"]))
        for x in restarts]), "ms")
