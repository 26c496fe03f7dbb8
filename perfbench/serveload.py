"""serve-mixed: one ``repro serve`` process under an open-loop request stream.

The client is this single process on one thread, so the server has one
request in flight at a time.  In the open loop every request has a due
time on a fixed-rate schedule; while the client is still waiting on an
answer the next request goes out late, and it is timed from its due
time, so a stall is charged to every request queued behind it.

Requests are never concurrent because the failure count must repeat
from run to run: with two client threads, two handler threads saving
the same warm job race on ``JobStore._save``'s fixed ``<id>.json.tmp``
and one request answers 500, a few times in thousands and a different
number each run.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import re
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path

from .checks import Verdict, check_case, check_http
from .layers import case_layers, case_targets
from .metrics import median, percentile, tail

CASE = "taylor-green"
STEPS = 20
WARM_VARIANTS = 16
COLD_SHARE = 0.1
#: Offered rate of the fixed-rate phase (requests per second).
FIXED_RATE = 100.0
#: Request rate the closed-loop phase is sized for: about what the client
#: sustained on a 2-vCPU host, so the phase lasts about 0.45 x
#: ``--seconds`` there.
SERIAL_RATE = 300
#: Latency limit on the tail percentile at saturation (ms).
TAIL_LIMIT_MS = 100.0
#: Cold requests use a ``u0`` no warm variant has (warm ones are
#: multiples of 1e-4), so they can never hit the cache by accident.
COLD_U0 = 0.00125
#: Server starts ``setup_s`` is the median of.
SERVER_STARTS = 5
TRACEBACK = "Traceback (most recent call last)"


class Server:
    """A ``python -m repro serve`` child on a free port."""

    def __init__(self, env, cache_dir: Path, log: Path) -> None:
        self.log = log
        self._log = log.open("w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--cache-dir", str(cache_dir), "--port", "0"],
            env=env.child(),
            cwd=env.work,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        try:
            line = self.proc.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            if match is None:
                raise RuntimeError(f"repro serve did not report its address: {line!r}")
            self.host, self.port = match.group(1), int(match.group(2))
            self._wait_healthy(deadline=start + 60)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError("repro serve exited during start-up")
            # Read the whole answer before closing: closing with unread
            # bytes resets the connection, and the server logs the reset
            # as a traceback.
            conn = http.client.HTTPConnection(self.host, self.port, timeout=5)
            try:
                conn.request("GET", "/v1/health", headers={"Connection": "close"})
                response = conn.getresponse()
                response.read()
                if response.status == 200:
                    return
            except (OSError, http.client.HTTPException):
                pass
            finally:
                conn.close()
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer /v1/health within 60 s")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()
        self._log.close()

    def log_text(self) -> str:
        return self.log.read_text()


class Record:
    __slots__ = ("due", "sent", "done", "status", "verdict")

    def __init__(self, due, sent, done, status, verdict):
        self.due, self.sent, self.done = due, sent, done
        self.status, self.verdict = status, verdict

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3

    @property
    def late_ms(self) -> float:
        return (self.sent - self.due) * 1e3


class Stream:
    """The seeded request mix: warm repeats of prewarmed variants and
    cold submissions of variants nobody has run."""

    def __init__(self, rng, warm: list[tuple[bytes, bytes]]) -> None:
        self.rng = rng
        self.warm = warm
        self._cold_taus: set[int] = set()

    def take(self, n: int) -> list[tuple[bytes, bytes | None]]:
        """The next ``n`` ``(request body, expected answer)`` pairs; the
        answer is ``None`` for a cold submission."""
        return [self._next() for _ in range(n)]

    def _next(self) -> tuple[bytes, bytes | None]:
        if self.rng.random() < COLD_SHARE:
            tau = self.rng.randrange(600000, 900000)
            while tau in self._cold_taus:
                tau = self.rng.randrange(600000, 900000)
            self._cold_taus.add(tau)
            body = {"case": CASE, "steps": STEPS, "overrides": {"tau": tau / 1e6, "u0": COLD_U0}}
            return json.dumps(body).encode(), None
        return self.rng.choice(self.warm)


def post(server: Server, body: bytes) -> tuple[int, bytes]:
    """One ``POST /v1/case`` on its own connection, as ``urllib`` sends
    it (``Connection: close``).  A request that fails on the wire is
    recorded as status 0 and is not retried.

    A kept-alive connection is not used: the server writes headers and
    body in separate sends, so on a reused connection every answer waits
    out the client's delayed ACK (about 40 ms).
    """
    conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        conn.request(
            "POST", "/v1/case", body=body,
            headers={"Content-Type": "application/json", "Connection": "close"},
        )
        response = conn.getresponse()
        return response.status, response.read()
    except (OSError, http.client.HTTPException):
        return 0, b""
    finally:
        conn.close()


def _drive(server, requests, *, dues=None, tracer=None) -> list[Record]:
    """Send ``requests`` one after another.  Open loop: request ``i``
    waits for its due time ``dues[i]``.  Closed loop (no ``dues``): each
    goes as soon as the previous answer is in."""
    records: list[Record] = []
    for i, (body, expected) in enumerate(requests):
        if dues is not None:
            delay = dues[i] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        sent = time.perf_counter()
        with tracer.operation("serve.request") if tracer else contextlib.nullcontext():
            status, data = post(server, body)
        done = time.perf_counter()
        due = sent if dues is None else dues[i]
        records.append(Record(due, sent, done, status, check_http(status, data, expected)))
    return records


def open_loop(server, stream: Stream, rate: float, seconds: float, tracer=None) -> list[Record]:
    """``rate`` requests per second for ``seconds``, each sent at its due
    time or as soon after it as the previous answer is in."""
    n = max(1, int(rate * seconds))
    requests = stream.take(n)
    start = time.perf_counter() + 0.05
    return _drive(server, requests, dues=[start + i / rate for i in range(n)], tracer=tracer)


def closed_loop(server, stream: Stream, n: int) -> tuple[list[Record], float]:
    """``n`` requests back to back: the records (timed from sending) and
    the request rate sustained.

    A fixed count, not a fixed time: each cold submission makes the queue
    longer and every later one slower, so a timed phase would give faster
    runs more work.
    """
    start = time.perf_counter()
    records = _drive(server, stream.take(n))
    return records, len(records) / (time.perf_counter() - start)


def prewarm(ctx, out, cache_dir: Path, n: int, sims: list) -> list[tuple[bytes, bytes]]:
    """Run ``n`` seeded variants into the cache; return each one's request
    body and the exact answer a warm ``POST /v1/case`` must give:
    ``render_response`` of the ``api.run_case`` payload."""
    from repro import api
    from repro.core.io import render_response

    pairs = []
    tracer = ctx.tracer
    for _ in range(n):
        overrides = {
            "tau": ctx.rng.randrange(6000, 9000) / 10000,
            "u0": ctx.rng.randrange(5, 21) / 10000,
        }
        with tracer.operation("serve.prewarm"), tracer.span("api.run_case"):
            outcome = api.run_case(CASE, steps=STEPS, overrides=overrides, cache_dir=cache_dir)
        out.tally.add(check_case(outcome.passed))
        sims.append(outcome.result.simulation)
        body = json.dumps({"case": CASE, "steps": STEPS, "overrides": overrides}).encode()
        pairs.append((body, (render_response("case", outcome.payload) + "\n").encode()))
    return pairs


def job_store_layers(ctx, out, cache_dir: Path, warm, n: int) -> dict[str, float]:
    """Time ``JobStore.submit_case`` in-process, warm and cold, with the
    cache lookups of the warm submissions traced."""
    from repro.scenarios.cache import ResultCache
    from repro.serve.jobs import JobStore

    tracer = ctx.tracer
    store = JobStore(cache_dir)
    warm_ms, cold_ms = [], []
    with tracer.wrap((ResultCache, "lookup", "scenarios.cache.lookup")):
        for body, _ in warm[:n]:
            request = json.loads(body)
            start = time.perf_counter()
            with tracer.operation("serve.jobs.submit_warm"):
                _, payload = store.submit_case(
                    case=request["case"], overrides=request["overrides"], steps=request["steps"]
                )
            warm_ms.append((time.perf_counter() - start) * 1e3)
            if payload is None:
                out.notes.append("in-process warm submission missed the cache")
                out.tally.wrong += 1
        for _ in range(n):
            tau = ctx.rng.randrange(600000, 900000) / 1e6
            start = time.perf_counter()
            store.submit_case(case=CASE, overrides={"tau": tau, "u0": COLD_U0}, steps=STEPS)
            cold_ms.append((time.perf_counter() - start) * 1e3)
    lookups = [
        s.duration
        for op in tracer.named("serve.jobs.submit_warm")
        for s in tracer.under(op, "scenarios.cache.lookup")
    ]
    return {
        "serve.jobs.submit_warm_ms": median(warm_ms),
        "serve.jobs.submit_cold_ms": median(cold_ms),
        "serve.jobs.queue_items": float(store.queue_depth()),
        "scenarios.cache.lookup_s": median(lookups),
    }


def run(ctx, out):
    """The serve-mixed workload (see the module docstring)."""
    sims: list = []
    cache_dir = ctx.fresh_dir("serve-cache")
    n_warm = 4 if ctx.probe else WARM_VARIANTS
    with case_targets(ctx.tracer) if ctx.trace else contextlib.nullcontext():
        warm = prewarm(ctx, out, cache_dir, n_warm, sims)
    stream = Stream(ctx.rng, warm)

    starts = 1 if ctx.trace else SERVER_STARTS
    servers = []
    for i in range(starts):
        server = Server(ctx.env, cache_dir, ctx.env.work / f"serve-{i}.log")
        servers.append(server)
        if i < starts - 1:
            server.stop()
    traced: list[Record] = []
    serial: list[Record] = []
    try:
        if ctx.trace:
            span = 2.0 if ctx.probe else 0.3 * ctx.seconds
            fixed = [] if ctx.probe else open_loop(server, stream, FIXED_RATE, span)
            traced = open_loop(server, stream, FIXED_RATE, span, tracer=ctx.tracer)
        else:
            seconds = ctx.seconds
            fixed = open_loop(server, stream, FIXED_RATE, 0.5 * seconds)
            serial, rps = closed_loop(server, stream, int(SERIAL_RATE * 0.45 * seconds))
    finally:
        server.stop()
    for record in (*fixed, *traced, *serial):
        out.tally.add(record.verdict)
    for each in servers:
        out.tally.add(Verdict(TRACEBACK not in each.log_text(), "repro serve printed a traceback"))
    setup = [each.setup_s for each in servers]
    fixed = fixed or traced
    latencies = [r.latency_ms for r in fixed]
    out.samples["http_p50_ms"] = latencies
    if not ctx.trace:
        out.samples["http_max_rps"] = [rps]
        found = tail([r.latency_ms for r in serial], "lower")
        if found is not None and found[1] > TAIL_LIMIT_MS:
            out.notes.append(
                f"closed loop: {found[0]} = {found[1]:.1f} ms, above the {TAIL_LIMIT_MS:g} ms limit"
            )
        out.samples["setup_s"] = setup
        out.e2e = {
            "setup_s": median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            # The closed loop, like the other workloads' serial operations.
            # At the fixed rate the p50 is dominated by the client's wake-ups
            # and moved 1.5-2x between runs on a 2-vCPU host.
            "op_latency_ms": median([r.latency_ms for r in serial]),
            "work_rate": rps,
        }
        return out

    layers = case_layers(ctx.tracer, sims, "serve.prewarm")
    layers.update(job_store_layers(ctx, out, cache_dir, warm, n_warm))
    layers.update(
        {
            "serve.http.wire_ms": median(latencies) - layers["serve.jobs.submit_warm_ms"],
            "serve.http.shed": float(sum(1 for r in fixed if r.status == 503)),
            "serve.http.late_ms": percentile([r.late_ms for r in fixed], 99),
        }
    )
    if not ctx.probe:
        layers["trace.overhead_ratio"] = median([r.latency_ms for r in traced]) / median(latencies)
    out.layers = layers
    return out
