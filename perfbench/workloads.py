"""The benchmark workloads.

Each workload drives the system only through a public surface, checks
every output against a reference computed by another path, and returns
its end-to-end metrics (untraced) or per-layer metrics (traced).

* ``http-window`` — the ``repro gateway`` CLI (1 shard, default config)
  serving a CMarkov syscall model of proftpd over HTTP; window observes.
* ``fleet-batch`` — in-process ``api.open_service`` with its threaded
  pump serving four libcall CMarkov detectors (sed and gzip, two
  training seeds each); thousands of window sessions.

Both also train their models from the program (``train_s``: traces,
segments, static analysis + initialization, Baum-Welch) and batch-score
their request windows with ``Detector.score`` (``score_windows_per_s``),
so a traced run covers the offline layers as well as the serving ones.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import select
import signal
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import config
import fixtures
import loadgen
import stats
import tracer
from repro import api, program
from repro.core.metrics import auc_score
from repro.hmm.forward import log_likelihood
from repro.hmm.serialize import save_model
from repro.service.outcomes import Overloaded, Scored

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Windows per timed ``Detector.score`` call.
SCORE_BATCH = 1024
#: Timed passes over every input window per sampling round (a pass takes
#: ~30 ms on http-window, ~0.7 s on fleet-batch).
SCORE_PASSES = {"http-window": 8, "fleet-batch": 1}
PAUSE_S = 0.3
#: Chunks of an untraced light phase, with a sampling round after each.
LIGHT_CHUNKS = 11
#: Requests in each chunk of an untraced light phase, at least.
MIN_LIGHT_CHUNK = 10
#: Held-out test cases per program: enough windows that the duplicate and
#: attack shares of the input (which set the batch-scoring cost and the
#: AUC) barely move from one seed to the next.
HELD_OUT_CASES = {"http-window": 120, "fleet-batch": 40}
#: No search step starts after this long, so a traced run on a host
#: that stalls every step still ends within its time limit.
SEARCH_BUDGET_S = 60.0


@dataclass
class Result:
    """What one run reports: metrics plus the request census."""

    metrics: dict[str, float]
    attempted: int
    failed: int
    correct: bool
    info: dict = field(default_factory=dict)


class Stream:
    """Cycles through a request list (the seeded input of a workload)."""

    def __init__(self, requests: list) -> None:
        self.requests = requests
        self._next = 0

    def take(self, n: int) -> tuple[list, list[int]]:
        idx = [(self._next + k) % len(self.requests) for k in range(n)]
        self._next += n
        return [self.requests[i] for i in idx], idx


# ----------------------------------------------------------------------
# Shared serving phases
# ----------------------------------------------------------------------
@dataclass
class Served:
    """The phases of one serving run and which requests each one sent.

    ``phases`` holds ``(label, phase, request indices)`` with labels
    ``light``, ``busy`` and ``search``.
    """

    phases: list[tuple[str, loadgen.Phase, list[int]]]
    search: stats.SearchResult | None

    def of(self, label: str) -> list[loadgen.Phase]:
        return [phase for name, phase, _ in self.phases if name == label]

    def indices(self, label: str) -> list[int]:
        return [i for name, _, idx in self.phases if name == label for i in idx]

    def latency_ms(self, label: str) -> np.ndarray:
        return np.concatenate([p.latency_s for p in self.of(label)]) * 1e3


def _phase_size(rate: float, seconds: float, share: float) -> int:
    return max(stats.required_samples(config.TAIL_Q), round(rate * seconds * share))


def _freeze_heap() -> None:
    """Move everything built so far (models, request lists) out of the
    cyclic collector's reach, so collections triggered by the generator's
    own allocations do not rescan it mid-phase."""
    gc.collect()
    gc.freeze()


def _measure(phases: list, run_phase, stream: Stream, label: str, n: int, rate: float,
             phase_rng, limit_s: float, stop_early: bool = False) -> loadgen.Phase:
    time.sleep(PAUSE_S)
    requests, idx = stream.take(n)
    phase = run_phase(label, requests, rate, phase_rng, limit_s, stop_early)
    phases.append((label, phase, idx))
    return phase


def serve_light(launch, stream: Stream, rates: config.Rates, seconds: float,
                between) -> Served:
    """The light phase of an untraced run (evenly spaced, so requests are
    scored alone), in ``LIGHT_CHUNKS`` chunks.

    ``launch()`` starts the system under test and returns its phase
    runner and a stop function.  Each chunk is served by a fresh launch,
    stopped before ``between()`` takes the round's samples, so no idle
    pump or server polls beside the timed training and scoring.
    """
    _freeze_heap()
    limit_s = rates.limit_ms / 1e3
    phases: list[tuple[str, loadgen.Phase, list[int]]] = []
    chunk = max(MIN_LIGHT_CHUNK,
                round(rates.light * seconds * config.LIGHT_SHARE / LIGHT_CHUNKS))
    for _ in range(LIGHT_CHUNKS):
        run_phase, stop = launch()
        try:
            _measure(phases, run_phase, stream, "light", chunk, rates.light, None, limit_s)
        finally:
            stop()
        between()
    return Served(phases, None)


def serve_phases(run_phase, stream: Stream, rates: config.Rates, seconds: float,
                 rng: np.random.Generator) -> Served:
    """The open-loop phases of a traced run: a light phase long enough
    for its p99, the busy phase (Poisson) and the max-rate search."""
    _freeze_heap()
    limit_s = rates.limit_ms / 1e3
    phases: list[tuple[str, loadgen.Phase, list[int]]] = []

    def measure(label, n, rate, phase_rng, stop_early=False) -> loadgen.Phase:
        return _measure(phases, run_phase, stream, label, n, rate, phase_rng, limit_s,
                        stop_early)

    measure("light", stats.required_samples(config.TAIL_Q), rates.light, None)
    measure("busy", _phase_size(rates.busy, seconds, config.BUSY_SHARE), rates.busy, rng)

    def attempt(rate: float) -> bool:
        n = _phase_size(rate, seconds, config.STEP_SHARE)
        return measure("search", n, rate, rng, stop_early=True).passes(limit_s)

    def probe(rate: float) -> bool:
        # A step fails only if a second attempt fails too: one burst of
        # host noise must not end the search.
        return attempt(rate) or attempt(rate)

    search = stats.search_max_rate(
        probe, rates.search_start, rates.ratio, rates.max_steps, SEARCH_BUDGET_S
    )
    return Served(phases, search)


def load_metrics(served: Served) -> dict[str, float]:
    """Latencies and max rate of a traced run."""
    return {
        "latency_p50_ms.light": stats.median(served.latency_ms("light")),
        "latency_p99_ms.light": stats.tail_percentile(served.latency_ms("light"), config.TAIL_Q),
        "latency_p50_ms.busy": stats.median(served.latency_ms("busy")),
        "latency_p99_ms.busy": stats.tail_percentile(served.latency_ms("busy"), config.TAIL_Q),
        "max_rate_rps": served.search.max_rate,
    }


def check_values(served: Served, expected: list) -> tuple[int, int, int]:
    """Compare every answered request with its reference value.

    Returns ``(attempted, failed, mismatched)``.  Failed counts requests
    that errored anywhere, and every non-OK answer (shed included) in
    the fixed-rate phases; sheds in search steps above capacity are the
    search's signal, not failures.
    """
    attempted = failed = mismatched = 0
    for label, phase, idx in served.phases:
        attempted += phase.issued
        failed += phase.failed
        if label != "search":
            failed += phase.shed
        for k, value in enumerate(phase.value):
            if phase.ok[k] and value != expected[idx[k]]:
                mismatched += 1
    return attempted, failed + mismatched, mismatched


def _fixed(served: Served) -> list[loadgen.Phase]:
    return served.of("light") + served.of("busy")


def phase_census(served: Served) -> dict:
    lag = np.concatenate([p.lag_s for p in _fixed(served)]) * 1e3
    census = {
        "requests": {label: sum(p.issued for p in served.of(label))
                     for label in ("light", "busy", "search")},
        "lag_ms_max": float(lag.max()),
    }
    if served.search is not None:
        census["search_steps"] = [[round(r, 1), ok] for r, ok in served.search.steps]
        census["search_shed"] = sum(p.shed for p in served.of("search"))
    return census


def serving_layer_extras(served: Served) -> dict[str, float]:
    """Per-layer numbers the generator sees directly (traced run)."""
    fixed = _fixed(served)
    queued = np.concatenate([p.queued_s[p.ok] for p in fixed]) * 1e3
    queued = queued[~np.isnan(queued)]
    lag = np.concatenate([p.lag_s for p in fixed]) * 1e3
    return {
        "service.queue_wait_ms.p50": stats.median(queued) if queued.size else 0.0,
        "service.queue_wait_ms.p99": (
            stats.tail_percentile(queued, config.TAIL_Q) if queued.size else 0.0
        ),
        "service.shed": float(sum(p.shed for p in fixed)),
        "service.failed": float(sum(p.failed for p in fixed)),
        "loadgen.lag_ms.p99": stats.tail_percentile(lag, config.TAIL_Q),
    }


def score_batches(jobs: list) -> list:
    """Split ``(detector, windows)`` jobs into the timed scoring units:
    ``Detector.score`` calls on ``SCORE_BATCH`` consecutive windows."""
    return [(detector, windows[i:i + SCORE_BATCH])
            for detector, windows in jobs
            for i in range(0, len(windows), SCORE_BATCH)]


class Samples:
    """Set-up, training and batch-scoring samples of one run.

    They are taken in rounds spread over the run — before the light
    phase and after each of its chunks.  The host is shared: other
    tenants slow the CPU in bursts lasting from tens of milliseconds to
    minutes, and a sample stretches by the share of its time spent in
    them.  The shorter the timed unit, the likelier some of its samples
    fall between bursts, so training and scoring are timed in short
    units — each test case of a fit's trace run, each Baum-Welch
    iteration and each other stage of each model's fit, each
    ``SCORE_BATCH``-window
    ``Detector.score`` call — and each metric sums the fastest sample of
    every unit: the cost of the work itself.  Set-up, which includes
    process start and socket polling, reports the median of its samples.
    """

    def __init__(self) -> None:
        self.setup_s: list[float] = []
        #: one row per fit of the workload's models: every unit of every model
        self.fit_rows: list[tuple[float, ...]] = []
        #: one row per pass over the scoring units: a time per unit
        self.score_rows: list[list[float]] = []
        self.refits_identical = True

    def add_fits(self, fitted: list) -> None:
        self.fit_rows.append(tuple(t for f in fitted for t in f.units))

    def time_scoring(self, batches: list, passes: int) -> None:
        gc.collect()  # every round starts from the same collector state
        for _ in range(passes):
            row = []
            for detector, windows in batches:
                started = time.perf_counter()
                detector.score(windows)
                row.append(time.perf_counter() - started)
            self.score_rows.append(row)

    def train_s(self) -> float:
        return sum(min(unit) for unit in zip(*self.fit_rows))

    def score_s(self) -> float:
        return sum(min(unit) for unit in zip(*self.score_rows))

    def census(self) -> dict:
        return {
            "setup_samples": len(self.setup_s),
            "fit_s": [round(sum(row), 4) for row in self.fit_rows],
            "score_passes": len(self.score_rows),
            "score_pass_s_median": stats.median([sum(row) for row in self.score_rows]),
        }


def _rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_peak_rss_mb(pid: int) -> float:
    """Sum of peak RSS (VmHWM) over a process and its descendants."""
    total_kb = 0
    stack = [pid]
    while stack:
        current = stack.pop()
        try:
            with open(f"/proc/{current}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children") as children:
                    stack.extend(int(c) for c in children.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


# ----------------------------------------------------------------------
# Gateway subprocess
# ----------------------------------------------------------------------
def _subprocess_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Gateway:
    """A ``repro gateway`` process, plain or under the tracing launcher."""

    #: Gateways not yet stopped, so a terminated run can kill them.
    live: set = set()

    def __init__(self, model_path: Path, spans_path: Path | None = None) -> None:
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "gateway", str(model_path)]
        else:
            command = [sys.executable, str(HERE / "gateway_launcher.py"),
                       str(spans_path), "gateway", str(model_path)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=_subprocess_env(),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        Gateway.live.add(self.proc)
        self.port = self._read_port(deadline=self.started + 120)
        self._wait_healthy(deadline=self.started + 120)
        self.setup_s = time.perf_counter() - self.started

    def _read_port(self, deadline: float) -> int:
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if not line:
                    break
                if "listening on" in line:
                    return int(line.strip().rsplit(":", 1)[1])
        self.stop()
        raise RuntimeError("gateway did not start")

    def _wait_healthy(self, deadline: float) -> None:
        url = f"http://127.0.0.1:{self.port}/health"
        while time.perf_counter() < deadline:
            try:
                with urllib.request.urlopen(url, timeout=5) as response:
                    if response.status == 200:
                        return
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise RuntimeError("gateway never became healthy")

    def peak_rss_mb(self) -> float:
        return _tree_peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        Gateway.live.discard(self.proc)


def _http_parse(status: int, payload: dict):
    if status == 200 and payload.get("kind") == "scored":
        return True, payload["score"], payload["queued_s"], "ok"
    if status in (429, 503):
        return False, None, float("nan"), "shed"
    return False, None, float("nan"), "failed"


def _attack_count(n_normal: int) -> int:
    return max(1, round(n_normal * config.ATTACK_SHARE / (1 - config.ATTACK_SHARE)))


def oracle_mismatches(detector, windows: list, scores: np.ndarray) -> int:
    """Batch ``Detector.score`` results that differ from the forward
    module's plain ``log_likelihood`` per symbol."""
    model = detector.model
    oracle = log_likelihood(model, model.encode(windows)) / fixtures.WINDOW
    return int(np.count_nonzero(scores != oracle))


def _same_model(a, b) -> bool:
    return all(
        np.array_equal(getattr(a, k), getattr(b, k))
        for k in ("transition", "emission", "initial")
    )


def _finish(served, expected, is_attack, info, checks_failed, samples, trace_spans,
            probe, peak_rss_mb, windows_per_pass, pool_scores, pool_attack) -> Result:
    attempted, failed, mismatched = check_values(served, expected)
    mismatched += checks_failed
    failed += checks_failed
    info.update(phase_census(served))
    info["latency_p50_ms.light"] = stats.median(served.latency_ms("light"))
    info["attack_share"] = float(np.mean(is_attack[served.indices("light")]))
    info["mismatched"] = mismatched
    info["refits_identical"] = samples.refits_identical
    info["samples"] = samples.census()
    if trace_spans is not None:
        metrics = tracer.layer_metrics(trace_spans)
        metrics.update(serving_layer_extras(served))
        metrics.update(load_metrics(served))
        # traced light-phase median latency over the untraced one, minus 1
        metrics["bench.trace_overhead_frac"] = (
            stats.median(served.latency_ms("light")) / stats.median(probe.latency_s * 1e3)
            - 1.0
        )
        info["self_s"] = tracer.layer_self_seconds(trace_spans)
    else:
        metrics = {
            "setup_s": stats.median(samples.setup_s),
            "train_s": samples.train_s(),
            "score_windows_per_s": windows_per_pass / samples.score_s(),
            "detection_auc": auc_score(pool_scores[~pool_attack], pool_scores[pool_attack]),
            "peak_rss_mb": peak_rss_mb,
        }
    correct = mismatched == 0 and failed == 0 and samples.refits_identical
    return Result(metrics, attempted, failed, correct, info)


# ----------------------------------------------------------------------
# http-window
# ----------------------------------------------------------------------
def _fit_proftpd() -> fixtures.Fitted:
    gc.collect()
    return fixtures.fit_cmarkov("proftpd", "syscall", 30, fixtures.serving_config(0))


def http_window(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    rates = config.RATES["http-window"]
    rng = np.random.default_rng(seed)
    samples = Samples()
    recorder = tracer.Recorder() if trace else None
    uninstall = tracer.install(recorder) if trace else None
    try:
        fitted = _fit_proftpd()
        samples.add_fits([fitted])
        normal = fixtures.held_out_windows(
            "proftpd", program.CallKind.SYSCALL, HELD_OUT_CASES["http-window"], seed
        )
        attack = fixtures.code_reuse_windows("proftpd", normal, _attack_count(len(normal)), seed)
        windows, is_attack = fixtures.mix(normal, attack, rng)
        reference = fitted.detector.score(windows)
        batches = score_batches([(fitted.detector, windows)])
        samples.time_scoring(batches, SCORE_PASSES["http-window"])
    finally:
        if uninstall is not None:
            uninstall()
    checks_failed = oracle_mismatches(fitted.detector, windows, reference)
    model_path = work / "proftpd-syscall.npz"
    save_model(fitted.detector.model, model_path)
    expected = reference.tolist()
    bodies = [
        (f"/v1/sessions/served/c{k % 2}/observe", json.dumps({"window": list(w)}).encode())
        for k, w in enumerate(windows)
    ]
    info = {"windows": len(windows), "duplicate_share": fixtures.duplicate_share(windows),
            "detector_shapes": [list(fitted.shape)], "fused_pairs": 0, "shards": 1,
            "fit_iterations": fitted.iterations}

    def sample_round() -> None:
        refit = _fit_proftpd()
        samples.add_fits([refit])
        samples.refits_identical &= _same_model(refit.detector.model, fitted.detector.model)
        samples.time_scoring(batches, SCORE_PASSES["http-window"])

    def runner(gateway: Gateway):
        def run(name, requests, rate, phase_rng, limit_s, stop_early):
            return loadgen.http_phase(name, gateway.port, requests, rate, phase_rng,
                                      _http_parse, limit_s, stop_early)
        return run

    if not trace:
        peaks: list[float] = []

        def launch():
            gateway = Gateway(model_path)
            samples.setup_s.append(gateway.setup_s)

            def stop() -> None:
                peaks.append(gateway.peak_rss_mb())
                gateway.stop()
            return runner(gateway), stop

        served = serve_light(launch, Stream(bodies), rates, seconds, sample_round)
        return _finish(served, expected, is_attack, info, checks_failed, samples, None,
                       None, max(peaks), len(windows), reference, is_attack)

    plain = Gateway(model_path)
    try:
        probe = loadgen.http_phase("light", plain.port, bodies[-300:], rates.light,
                                   None, _http_parse)
    finally:
        plain.stop()
    spans_path = work / "gateway-spans.jsonl"
    gateway = Gateway(model_path, spans_path)
    try:
        served = serve_phases(runner(gateway), Stream(bodies), rates, seconds, rng)
    finally:
        gateway.stop()
    spans = recorder.spans + tracer.Recorder.read(spans_path)
    return _finish(served, expected, is_attack, info, checks_failed, samples, spans,
                   probe, None, len(windows), reference, is_attack)


# ----------------------------------------------------------------------
# fleet-batch
# ----------------------------------------------------------------------
FLEET = (("sed", 0), ("sed", 1), ("gzip", 0), ("gzip", 1))


def _fit_fleet() -> list[fixtures.Fitted]:
    fitted = []
    for name, s in FLEET:
        gc.collect()
        fitted.append(fixtures.fit_cmarkov(name, "libcall", 40, fixtures.serving_config(s),
                                           label=f"{name}-{s}"))
    return fitted


def _open_fleet(fitted: list, window: tuple) -> tuple[object, float]:
    """Open the service, register the fleet, start the pump and wait for
    the first drain; returns the service and how long that took."""
    started = time.perf_counter()
    service = api.open_service()
    for f in fitted:
        service.register(f.name, f.detector)
    service.start()
    service.submit(fitted[0].name, "setup", window=window).result(60)
    return service, time.perf_counter() - started


def _fleet_parse(outcome):
    if isinstance(outcome, Scored):
        return True, outcome.score, outcome.queued_s, "ok"
    if isinstance(outcome, Overloaded):
        return False, None, outcome.queued_s, "shed"
    return False, None, float("nan"), "failed"


def fleet_batch(seed: int, seconds: float, trace: bool, work: Path) -> Result:
    rates = config.RATES["fleet-batch"]
    rng = np.random.default_rng(seed)
    samples = Samples()
    recorder = tracer.Recorder() if trace else None
    uninstall = tracer.install(recorder) if trace else None
    try:
        fitted = _fit_fleet()
        samples.add_fits(fitted)
        pools, attack_masks = {}, {}
        for name in sorted({name for name, _ in FLEET}):
            normal = fixtures.held_out_windows(
                name, program.CallKind.LIBCALL, HELD_OUT_CASES["fleet-batch"], seed
            )
            attack = fixtures.abnormal_windows(normal, _attack_count(len(normal)), seed)
            pools[name], attack_masks[name] = fixtures.mix(normal, attack, rng)
        program_of = {f.name: f.name.split("-")[0] for f in fitted}
        ref = {f.name: f.detector.score(pools[program_of[f.name]]) for f in fitted}
        batches = score_batches([(f.detector, pools[program_of[f.name]]) for f in fitted])
        samples.time_scoring(batches, SCORE_PASSES["fleet-batch"])
    finally:
        if uninstall is not None:
            uninstall()
    checks_failed = sum(
        oracle_mismatches(f.detector, pools[program_of[f.name]], ref[f.name]) for f in fitted
    )
    n_scored = sum(len(pools[program_of[f.name]]) for f in fitted)

    total = 60_000
    det_idx = rng.integers(len(fitted), size=total)
    sessions = rng.integers(config.FLEET_SESSIONS, size=total)
    requests, expected, is_attack = [], [], np.zeros(total, dtype=bool)
    for k in range(total):
        f = fitted[det_idx[k]]
        pool = pools[program_of[f.name]]
        w = int(rng.integers(len(pool)))
        requests.append((f.name, f"s{sessions[k]}", pool[w]))
        expected.append(float(ref[f.name][w]))
        is_attack[k] = attack_masks[program_of[f.name]][w]
    shapes = [f.shape for f in fitted]
    info = {"requests_pool": total,
            "duplicate_share": fixtures.duplicate_share([r[2] for r in requests[:20000]]),
            "detector_shapes": [list(s) for s in shapes],
            "fused_pairs": sum(shapes.count(s) * (shapes.count(s) - 1) // 2
                               for s in set(shapes)),
            "fit_iterations": [f.iterations for f in fitted]}

    def runner(service):
        def run(name, reqs, rate, phase_rng, limit_s, stop_early):
            return loadgen.service_phase(name, service, reqs, rate, phase_rng,
                                         _fleet_parse, limit_s, stop_early)
        return run

    def open_fleet():
        service, setup_s = _open_fleet(fitted, requests[0][2])
        samples.setup_s.append(setup_s)
        return service

    def sample_round() -> None:
        refit = _fit_fleet()
        samples.add_fits(refit)
        samples.refits_identical &= all(
            _same_model(a.detector.model, b.detector.model) for a, b in zip(refit, fitted)
        )
        samples.time_scoring(batches, SCORE_PASSES["fleet-batch"])

    pool_scores = np.concatenate([ref[f.name] for f in fitted])
    pool_attack = np.concatenate([attack_masks[program_of[f.name]] for f in fitted])
    if not trace:
        peaks: list[float] = []

        def launch():
            service = open_fleet()

            def stop() -> None:
                peaks.append(_rss_mb_self())
                service.close(drain=False)
            return runner(service), stop

        served = serve_light(launch, Stream(requests), rates, seconds, sample_round)
        # The peak up to the end of the first chunk: every later round
        # refits a second fleet beside the served one, which is the
        # benchmark's memory, not the service's.
        return _finish(served, expected, is_attack, info, checks_failed, samples, None,
                       None, peaks[0], n_scored, pool_scores, pool_attack)

    service = open_fleet()
    try:
        probe = runner(service)("light", requests[-300:], rates.light, None, None, False)
        uninstall = tracer.install(recorder)
        try:
            served = serve_phases(runner(service), Stream(requests), rates, seconds, rng)
        finally:
            uninstall()
    finally:
        service.close(drain=False)
    return _finish(served, expected, is_attack, info, checks_failed, samples,
                   recorder.spans, probe, _rss_mb_self(), n_scored, pool_scores,
                   pool_attack)

WORKLOADS = {
    "http-window": http_window,
    "fleet-batch": fleet_batch,
}
