"""Tests for the serve subsystem: wire format, artifact store, rate
limiter, scheduler behaviour over real HTTP, the 64-client load shape
from the acceptance criteria, and the concurrent cache-write stress."""

import dataclasses
import json
import multiprocessing
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fuzz.oracles import fuzz_configs
from repro.serve import (
    ArtifactStore,
    BadRequest,
    JobFailed,
    RateLimiter,
    ServeClient,
    ServeError,
    TokenBucket,
    job_fingerprint,
    machine_from_payload,
    machine_to_payload,
    start_in_thread,
    validate_payload,
)
from repro.sim import paper_machine, unlimited_machine

SUM_LOOP = """
    li r1, 0
    li r2, 0
loop:
    add r1, r1, r2
    add r2, r2, 1
    blt r2, 10 -> loop [taken]
    li r9, 2048
    store r1, 0(r9)
    halt
"""


# -- wire format ---------------------------------------------------------------

class TestWire:
    def test_machine_round_trip(self):
        for config in [paper_machine(), unlimited_machine(issue_width=1),
                       *fuzz_configs(True)]:
            assert machine_from_payload(machine_to_payload(config)) == config

    def test_empty_payload_is_default_machine(self):
        assert machine_from_payload(None) == paper_machine(
            issue_width=4, int_core=64, fp_core=64)

    def test_bad_machine_fields_rejected(self):
        with pytest.raises(BadRequest):
            machine_from_payload({"bogus": 1})
        with pytest.raises(BadRequest):
            machine_from_payload({"latency": {"bogus": 1}})
        with pytest.raises(BadRequest):
            machine_from_payload({"model": 99})
        with pytest.raises(BadRequest):
            machine_from_payload({"int": {"core": 0}})

    def test_validate_rejects_bad_shapes(self):
        with pytest.raises(BadRequest):
            validate_payload("bogus", {})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {})  # neither asm nor benchmark
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"asm": "halt", "benchmark": "cmp"})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"benchmark": "nope"})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"benchmark": "cmp",
                                          "engine": "turbo"})
        with pytest.raises(BadRequest):
            validate_payload("sweep", {"figure": "nope"})
        with pytest.raises(BadRequest):
            validate_payload("simulate", {"benchmark": "cmp",
                                          "max_cycles": 0})

    def test_fingerprint_sensitivity(self):
        base = validate_payload("simulate", {"benchmark": "cmp"})
        key = job_fingerprint("simulate", base)
        assert key == job_fingerprint("simulate", dict(base))
        # Every knob that changes the computation changes the key.
        for variant in [
            {**base, "max_cycles": 100},
            {**base, "engine": "reference"},
            {**base, "scale": 2},
            {**base, "benchmark": "grep"},
            {**base, "machine": {"issue": 1}},
            {**base, "options": {"opt": "scalar"}},
        ]:
            assert job_fingerprint("simulate", variant) != key
        assert job_fingerprint("compile", base) != key


# -- artifact store ------------------------------------------------------------

class TestArtifactStore:
    def test_round_trip_and_counters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("ab" * 16) is None
        store.put("ab" * 16, {"cycles": 1})
        assert store.get("ab" * 16) == {"cycles": 1}
        assert store.counters() == {"hits": 1, "misses": 1, "puts": 1}

    def test_corrupt_artifact_evicted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("cd" * 16, {"ok": True})
        path = store._path("cd" * 16)
        path.write_text("{truncated")
        assert store.get("cd" * 16) is None
        assert not path.exists()

    def test_concurrent_writers_never_tear(self, tmp_path):
        """Satellite: two processes storing the same fingerprint must not
        corrupt the store — readers always see one complete document."""
        key = "ef" * 16
        procs = [multiprocessing.Process(target=_hammer_store,
                                         args=(str(tmp_path), key, pid))
                 for pid in range(2)]
        for p in procs:
            p.start()
        store = ArtifactStore(tmp_path)
        deadline = time.monotonic() + 30
        reads = 0
        while any(p.is_alive() for p in procs):
            assert time.monotonic() < deadline, "writers stuck"
            artifact = store.get(key)
            if artifact is not None:
                # Complete document from one writer or the other.
                assert artifact["payload"] == "x" * 4096
                assert artifact["writer"] in (0, 1)
                reads += 1
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert reads > 0
        final = store.get(key)
        assert final["payload"] == "x" * 4096

    def test_concurrent_runner_caches_share_one_dir(self, tmp_path):
        """Two processes compiling the same fingerprint into one record
        cache (the same tmp+rename discipline the artifact store reuses)
        both succeed and agree."""
        queue = multiprocessing.Queue()
        procs = [multiprocessing.Process(target=_runner_job,
                                         args=(str(tmp_path), queue))
                 for _ in range(2)]
        for p in procs:
            p.start()
        cycles = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join()
            assert p.exitcode == 0
        assert cycles[0] == cycles[1]
        # The shared record is loadable afterwards (not torn).
        from repro.experiments import ExperimentRunner

        runner = ExperimentRunner(scale=1, cache_dir=tmp_path)
        record = runner.cached("cmp", paper_machine())
        assert record is not None and record.cycles == cycles[0]


def _hammer_store(root: str, key: str, writer: int) -> None:
    store = ArtifactStore(root)
    for _ in range(200):
        store.put(key, {"writer": writer, "payload": "x" * 4096})


def _runner_job(cache_dir: str, queue) -> None:
    from repro.experiments import ExperimentRunner

    runner = ExperimentRunner(scale=1, cache_dir=cache_dir)
    record = runner.run("cmp", paper_machine())
    queue.put(record.cycles)


# -- rate limiter --------------------------------------------------------------

class TestRateLimiter:
    def test_bucket_refills(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.take(0.0) and bucket.take(0.0)
        assert not bucket.take(0.0)
        assert bucket.take(1.0)  # one second -> one token back

    def test_per_client_buckets(self):
        clock = [0.0]
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert limiter.allow("a")
        assert not limiter.allow("a")
        assert limiter.allow("b")  # independent bucket
        clock[0] = 2.0
        assert limiter.allow("a")
        assert limiter.rejected == 1

    def test_disabled_by_default(self):
        limiter = RateLimiter()
        assert all(limiter.allow("a") for _ in range(1000))


# -- the service over real HTTP ------------------------------------------------

@pytest.fixture(scope="module")
def server(tmp_path_factory):
    handle = start_in_thread(
        jobs=2, artifact_dir=str(tmp_path_factory.mktemp("artifacts")),
        max_cycles_cap=5_000_000)
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    return ServeClient(server.url, client_id="pytest")


class TestService:
    def test_health_and_stats(self, client):
        assert client.healthy()
        stats = client.stats()
        assert stats["workers"] == 2 and not stats["draining"]

    def test_submit_each_kind(self, client):
        result = client.run("simulate", {"asm": SUM_LOOP, "dump": [2048]})
        assert result["memory"]["2048"] == 45
        result = client.run("simulate", {"benchmark": "cmp"})
        assert result["record"]["cycles"] > 0
        assert result["record"]["checksum_ok"]
        result = client.run("compile", {"benchmark": "cmp"})
        assert result["static"]["total"] > 0
        result = client.run("check", {"asm": SUM_LOOP})
        assert result["clean"]
        result = client.run("trace", {"benchmark": "cmp",
                                      "format": "jsonl", "limit": 100})
        assert len(result["content"].splitlines()) == 100
        result = client.run("sweep", {"figure": "figure10",
                                      "benchmarks": ["cmp"]})
        assert result["figure"] == "Figure 10" and result["rows"]

    def test_artifact_hit_on_resubmission(self, client):
        payload = {"asm": SUM_LOOP, "machine": {"issue": 2}}
        first = client.wait(client.submit("simulate", payload))
        again = client.submit("simulate", payload)
        assert again["status"] == "done" and again["from_cache"]
        assert again["artifact"] == first["artifact"]
        assert client.artifact(first["artifact"])["cycles"] \
            == first["result"]["cycles"]

    def test_bad_requests_are_400(self, client):
        for kind, payload in [("bogus", {}), ("simulate", {}),
                              ("simulate", {"benchmark": "nope"}),
                              ("sweep", {"figure": "nope"}),
                              ("sweep", {"figure": "figure12",
                                         "engine": "batched"})]:
            with pytest.raises(ServeError) as err:
                client.submit(kind, payload)
            assert err.value.status == 400

    def test_unknown_routes_and_ids(self, client):
        with pytest.raises(ServeError) as err:
            client.get("doesnotexist")
        assert err.value.status == 404
        with pytest.raises(ServeError) as err:
            client.artifact("doesnotexist")
        assert err.value.status == 404

    def test_asm_parse_error_is_structured(self, client):
        with pytest.raises(JobFailed) as err:
            client.run("simulate", {"asm": "frobnicate r1, r2\nhalt\n"})
        assert err.value.error_type == "compile-error"

    def test_budget_exceeded_while_others_finish(self, client):
        """Acceptance: a budget-exceeded job comes back as a structured
        error while other in-flight jobs run to completion."""
        jobs = [client.submit("simulate", {"benchmark": "compress"}),
                client.submit("simulate", {"benchmark": "cmp",
                                           "max_cycles": 50}),
                client.submit("simulate", {"asm": SUM_LOOP})]
        done = [client.wait(j) for j in jobs]
        assert done[0]["status"] == "done"
        assert done[2]["status"] == "done"
        assert done[1]["status"] == "error"
        assert done[1]["error"]["type"] == "budget-exceeded"
        assert "exceeded 50 cycles" in done[1]["error"]["message"]

    def test_budget_cap_clamps_requests(self, client):
        """A request above the server's --max-cycles-cap is clamped, so
        a run needing more cycles than the cap fails structurally."""
        with pytest.raises(JobFailed) as err:
            client.run("simulate",
                       {"asm": "loop:\n    jmp -> loop [taken]\n    halt\n",
                        "max_cycles": 10_000_000_000})
        assert err.value.error_type == "budget-exceeded"
        assert "exceeded 5000000 cycles" in str(err.value)

    def test_coalescing_identical_inflight(self, client):
        payload = {"benchmark": "eqn",
                   "machine": {"issue": 2, "max_cycles": 4_999_999}}
        first = client.submit("simulate", payload)
        second = client.submit("simulate", payload)
        d1, d2 = client.wait(first), client.wait(second)
        assert d1["status"] == d2["status"] == "done"
        if not first["from_cache"]:
            assert d2.get("coalesced_with") == first["id"] \
                or d2["from_cache"]
        assert d1["result"]["record"]["cycles"] \
            == d2["result"]["record"]["cycles"]

    def test_event_stream_ndjson(self, client):
        job = client.submit("simulate", {"benchmark": "grep",
                                         "observe": True})
        events = list(client.events(job["id"]))
        types = [e.get("type") for e in events]
        assert "started" in types and "finished" in types
        assert any(e.get("stream") == "observe" for e in events)
        assert events[-1]["type"] == "job"
        assert events[-1]["status"] == "done"

    def test_sweep_progress_events(self, client):
        job = client.submit("sweep", {"figure": "figure7",
                                      "benchmarks": ["cmp"]})
        events = list(client.events(job["id"]))
        progress = [e for e in events if e.get("stream") == "sweep"]
        assert progress and progress[-1]["done"] == len(progress)

    def test_long_poll_wait(self, client):
        job = client.submit("simulate", {"benchmark": "lex"})
        done = client.get(job["id"], wait=120)
        assert done["status"] in ("done", "error")
        assert done["status"] == "done"

    def test_mixed_load_64_clients_zero_failures(self, client, server):
        """Acceptance: 64 concurrent clients submitting a mixed workload
        complete with zero failed jobs."""
        benchmarks = ("cmp", "grep", "compress", "lex")

        def one_client(index: int) -> list:
            c = ServeClient(server.url, client_id=f"load-{index}")
            jobs = []
            jobs.append(c.submit("simulate",
                                 {"benchmark": benchmarks[index % 4]}))
            jobs.append(c.submit("simulate",
                                 {"asm": SUM_LOOP,
                                  "machine": {"issue": 1 << (index % 3)}}))
            jobs.append(c.submit("check", {"asm": SUM_LOOP}))
            return [c.wait(j, timeout=300) for j in jobs]

        with ThreadPoolExecutor(max_workers=64) as pool:
            outcomes = [job for jobs in pool.map(one_client, range(64))
                        for job in jobs]
        assert len(outcomes) == 64 * 3
        failed = [j for j in outcomes if j["status"] != "done"]
        assert failed == []
        stats = client.stats()
        # The mixed load must exercise the sharing machinery: identical
        # submissions either hit the artifact store or coalesce.
        assert stats["jobs"]["artifact_hits"] \
            + stats["jobs"]["coalesced"] > 100

    def test_stats_aggregate_worker_counters(self, client):
        stats = client.stats()
        cache = stats["runner_cache"]
        assert cache.get("cache_misses", 0) > 0
        assert cache.get("compile_misses", 0) > 0


class TestServiceLifecycle:
    def test_rate_limited_submission(self, tmp_path):
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path),
                                 rate=0.001, burst=1.0)
        try:
            c = ServeClient(handle.url, client_id="throttled")
            c.submit("simulate", {"asm": SUM_LOOP})
            with pytest.raises(ServeError) as err:
                c.submit("simulate", {"asm": SUM_LOOP,
                                      "machine": {"issue": 1}})
            assert err.value.status == 429
            # An independent client is not throttled.
            other = ServeClient(handle.url, client_id="fresh")
            other.submit("check", {"asm": SUM_LOOP})
        finally:
            handle.stop()

    def test_graceful_stop_finishes_inflight(self, tmp_path):
        handle = start_in_thread(jobs=1, artifact_dir=str(tmp_path))
        c = ServeClient(handle.url)
        job = c.submit("simulate", {"benchmark": "cmp"})
        done = {}

        def finish():
            # One long-poll connection, established before the stop:
            # drain must complete the job and flush this response.
            done.update(c.get(job["id"], wait=120))

        waiter = threading.Thread(target=finish)
        waiter.start()
        time.sleep(0.3)  # let the long-poll connection establish
        handle.stop()
        waiter.join(timeout=120)
        assert done.get("status") == "done"
        assert not c.healthy()


class TestServeReplay:
    def test_fuzz_replay_smoke(self, server):
        """Satellite: the fuzz --serve path, at the CI smoke budget."""
        from repro.fuzz.serve_replay import run_serve_replay

        report = run_serve_replay(server.url, budget=2, seed=0)
        assert report.clean, [d.to_dict() for d in report.divergences]
        assert report.seeds == 2
        assert report.jobs > 0
        payload = report.to_dict()
        json.dumps(payload)  # report must be JSON-serializable
        assert payload["clean"]


class TestCycleBudgetPlumbing:
    def test_machine_config_budget_flows_to_both_engines(self):
        from repro.errors import CycleBudgetError
        from repro.isa.asmparse import parse_program
        from repro.sim import simulate

        program = parse_program("loop:\n    jmp -> loop [taken]\n"
                                "    halt\n")
        config = dataclasses.replace(paper_machine(), max_cycles=75)
        messages = set()
        for engine in ("fast", "reference"):
            with pytest.raises(CycleBudgetError) as err:
                simulate(program, config, engine=engine)
            messages.add(str(err.value))
        assert len(messages) == 1  # identical message from both engines
        assert "exceeded 75 cycles" in messages.pop()
