"""``serve``: spec JSON in, verdict out over HTTP, in an open loop.

``VerificationService(workers=1)`` runs behind ``serve_http`` on
127.0.0.1.  One client thread submits fig2-scale threshold queries at the
fixed rate :data:`RATE`, whatever the service's progress.  A share of the
jobs exactly repeats earlier ones and is answered from the verdict cache.

Latency runs from each job's *due* time to its record's ``finished_at``,
read back with ``GET /jobs/{id}`` after the schedule ends -- never from
when a poll noticed the job, so the service's wait backoff cannot leak
into the numbers.
"""

from __future__ import annotations

import threading
import time

import harness

#: Offered jobs per second.  The process (service, HTTP and client threads)
#: is then busy for 0.34 to 0.45 of the wall time on a 2-vCPU host
#: (``detail.process_cpu_ratio``); its one worker executes jobs for about a
#: fifth of it (``serve.busy_ratio``).
RATE = 50.0
#: Self times are reported per schedule (a fixed set of jobs), not per pass.
PER_PASS = None
#: The traced half replays the same schedule on a fresh service.
FRESH_SYSTEM = True
#: The latency tail is the median of the tails (11th-largest, so p87) of
#: consecutive slices of this many jobs.  The in-process server's whole-run
#: p99 follows single stalls of the shared host (9.5 to 14.8 ms over ten
#: seeds, 25 % between same-seed runs minutes apart); the median of slice
#: tails follows the service.
TAIL_WINDOW_JOBS = 75
#: Fresh jobs re-solved directly and compared with the served decision
#: (every repeat is compared too).
DIRECT_EVERY = 8
DRAIN_TIMEOUT_S = 60.0


class Server:
    """A started service behind a started HTTP server."""

    def __init__(self, warmup):
        from repro.api import VerificationEngine, VerifyConfig
        from repro.serve import VerificationService, serve_http

        import gen

        self.service = VerificationService(workers=1).start()
        self.http = serve_http(self.service, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self.http.serve_forever,
                                       kwargs={"poll_interval": 0.05},
                                       daemon=True)
        self.thread.start()
        VerificationEngine(VerifyConfig(workers=1)).verify(
            gen.payload_spec(warmup))

    @property
    def url(self) -> str:
        return self.http.url

    def close(self) -> None:
        self.http.shutdown()
        self.http.server_close()
        self.thread.join()
        self.service.close()


def make_inputs(seed: int, seconds: float):
    """``(set-up payload, schedule)``."""
    import gen

    return gen.serve_warmup(), gen.serve_schedule(seed, int(RATE * seconds))


def setup(payload):
    return Server(payload)


def close(server) -> None:
    server.close()


def run(server, jobs, seconds: float, reference: dict, seed: int,
        tracer=None, start: int = 0) -> harness.Run:
    """Offer the schedule at :data:`RATE`, drain, read every record back
    and check it.  Tracing (if any) stops before the checks."""
    from repro.errors import ReproError
    from repro.exact.encoding import encoding_cache_stats
    from repro.serve import ServeClient

    client = ServeClient(server.url, timeout=30.0)
    before = encoding_cache_stats()
    sent, late_ms, http_ms = [], [], []
    cpu0 = harness.cpu_s()
    t0_wall, t0 = time.time(), time.perf_counter()
    for i, job in enumerate(jobs):
        spec = job.spec()  # built ahead of its due time
        due = t0 + i / RATE
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        send = time.perf_counter()
        late_ms.append((send - due) * 1e3)
        try:
            record = client.submit(spec)
        except (ReproError, OSError) as exc:
            sent.append((i, None, type(exc).__name__))
            continue
        http_ms.append((time.perf_counter() - send) * 1e3)
        sent.append((i, record["job_id"], None))
    _drain(client)
    # Process CPU (service, HTTP server and client threads) over the
    # schedule and its drain, as a share of that wall time.
    cpu_ratio = (harness.cpu_s() - cpu0) / (time.perf_counter() - t0)
    after = encoding_cache_stats()
    if tracer is not None:
        tracer.uninstall()  # the checks below are not the service's work
    records = {i: client.job(job_id) for i, job_id, _ in sent
               if job_id is not None}
    tally, wall, counts = _score(jobs, sent, records,
                                 reference.get("serve", {}), t0_wall)
    stats = client.stats()
    counts.update({
        "exact.encoding_hit_ratio": harness.hit_ratio(before, after),
        "serve.http_submit_ms": harness.p50(http_ms),
        "serve.cache_hit_ratio": stats["cache_hits"] / len(jobs),
        "serve.retries": stats["resilience"]["retries"],
        "serve.worker_errors": stats["worker_errors"],
        "harness.late_p50_ms": harness.p50(late_ms),
        "harness.late_max_ms": max(late_ms),
    })
    return harness.Run(tally, wall, counts,
                       tail_windows=len(jobs) // TAIL_WINDOW_JOBS,
                       detail={"process_cpu_ratio": cpu_ratio})


def _drain(client) -> None:
    """Wait (untimed) until no job is queued or running."""
    deadline = time.monotonic() + DRAIN_TIMEOUT_S
    while time.monotonic() < deadline:
        if not client.jobs(state="queued") and \
                not client.jobs(state="running"):
            return
        time.sleep(0.05)


def _score(jobs, sent, records, expected, t0_wall):
    """Latency from due time to ``finished_at`` and the correctness checks
    of every job; returns ``(tally, wall span, record-derived counts)``."""
    from repro.api import (FailedVerdict, VerificationEngine, VerifyConfig,
                           verdict_decision_json, verdict_from_dict)

    engine = VerificationEngine(VerifyConfig(workers=1))
    tally = harness.Tally()
    queue_ms, execute_ms = [], []
    last_finish = t0_wall
    for i, job_id, error in sent:
        job = jobs[i]
        if job_id is None:
            tally.fail(error)
            continue
        record = records[i]
        if record["state"] != "done" or record["verdict"] is None:
            tally.fail(f"job_{record['state']}")
            continue
        latency = (record["finished_at"] - (t0_wall + i / RATE)) * 1e3
        last_finish = max(last_finish, record["finished_at"])
        if record["started_at"] is not None:
            queue_ms.append(
                (record["started_at"] - record["submitted_at"]) * 1e3)
            execute_ms.append(
                (record["finished_at"] - record["started_at"]) * 1e3)
        verdict = verdict_from_dict(record["verdict"])
        if isinstance(verdict, FailedVerdict):
            tally.fail("failed_verdict", latency)
            continue
        reason = harness.check_decision(
            tally, harness.decision_of(verdict.holds), expected.get(job.key))
        spec = job.spec()
        if not reason and verdict.holds is False and \
                not harness.witness_violates(
                    spec.network, spec.objective, spec.threshold,
                    verdict.result.witness):
            reason = "bad_counterexample"
        if not reason and (job.repeat_of is not None
                           or i % DIRECT_EVERY == 0):
            direct = engine.verify(spec)
            if verdict_decision_json(direct) != verdict_decision_json(verdict):
                reason = "served_differs_from_direct"
        tally.record(reason, latency)
    wall = last_finish - t0_wall
    counts = {
        "serve.queue_wait_p50_ms": harness.p50(queue_ms),
        "serve.queue_wait_tail_ms": harness.tail(queue_ms)[0],
        "serve.execute_ms": harness.p50(execute_ms),
        "serve.busy_ratio": sum(execute_ms) / 1e3 / wall if wall > 0 else 0.0,
        "serve.mean_execute_ms": (sum(execute_ms) / len(execute_ms)
                                  if execute_ms else 0.0),
    }
    return tally, wall, counts


def service_rate(run: harness.Run) -> float:
    """Jobs per second of worker time: an open loop delivers the offered
    rate either way, so tracing overhead shows in the service time."""
    mean = run.counts["serve.mean_execute_ms"]
    return 1e3 / mean if mean else 0.0
