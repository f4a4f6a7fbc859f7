"""serve_mix: ``repro serve`` under a closed-loop zipf replay.

One round starts ``python -m repro.cli serve --jobs 1 --port 0`` on a
fresh cache directory, pre-fills the hot half of a zipf population of
single-point ``mult16`` queries (set-up), then times a closed loop of
:data:`CLIENTS` clients that each walk the same seeded schedule (the
``cold`` pass). Both clients ask for each cold key at about the same
time, so single-flight dedup is exercised, and the tail misses are
computed on the server's one-worker ``WorkerPool``. The ``warm`` pass
walks the schedule :data:`WARM_REPEATS` times more, now answered from
the memory tier. A round runs on one CPU (see :func:`run_round`).

Population: precisions 16..9, each at :data:`LIFETIMES` seeded
worst-case lifetimes in the hot half and as many other lifetimes in the
tail half. Pre-filling the hot half synthesizes every precision once on
the worker, so each tail miss costs the same aged timing analysis
whatever the seed, and tail misses make up several percent of the
requests, which puts the p99 latency inside the miss group. The seed
picks the lifetimes and the order; the request counts per rank are the
fixed zipf shares, so the work of a round does not depend on it.
"""

import asyncio
import os
import re
import subprocess
import sys
import time

import numpy as np

from tracing import ROOT_LAYER

COMPONENT = "mult16"
EFFORT = "high"
PRECISIONS = tuple(range(16, 8, -1))
LIFETIMES = 8
CLIENTS = 2
REQUESTS_PER_CLIENT = 1000
#: The warm pass walks the schedule this many times (all memory-tier
#: hits), so that it is long enough to time steadily.
WARM_REPEATS = 3
SKEW = 1.1
READY = re.compile(r"serving characterization on http://([^:]+):(\d+)")
STARTUP_TIMEOUT_S = 60.0


def population(seed):
    """The ranked queries: hot half first, then the tail half."""
    rng = np.random.default_rng([seed, 16])
    years = 1.0 + 0.25 * rng.permutation(200)[:2 * LIFETIMES]
    hot = [(p, y) for p in PRECISIONS for y in years[:LIFETIMES]]
    tail = [(p, y) for p in PRECISIONS for y in years[LIFETIMES:]]
    ranked = ([hot[i] for i in rng.permutation(len(hot))]
              + [tail[i] for i in rng.permutation(len(tail))])
    return [{"component": COMPONENT, "precisions": [int(p)],
             "scenarios": ["worst%gy" % y], "effort": EFFORT}
            for p, y in ranked]


def schedule(seed, size):
    """Rank indices: zipf(:data:`SKEW`) shares of the requests, each rank
    at least once, in seeded order."""
    weights = np.arange(1, size + 1, dtype=float) ** -SKEW
    counts = np.maximum(1, np.floor(weights / weights.sum()
                                    * REQUESTS_PER_CLIENT)).astype(int)
    order = np.repeat(np.arange(size), counts)
    np.random.default_rng([seed, 17]).shuffle(order)
    return [int(i) for i in order]


def canonical(reply):
    """A reply without its tier provenance (``source``)."""
    return [{k: v for k, v in point.items() if k != "source"}
            for point in reply["points"]]


def _peak_rss_mb(pid):
    """VmHWM of *pid* plus that of its direct children, in MB."""
    pids = [pid]
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            pids.append(int(entry))
    total_kb = 0
    for each in pids:
        try:
            with open("/proc/%d/status" % each) as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


class Server:
    """The ``repro serve`` subprocess of one round."""

    def __init__(self, root, workdir, env):
        self.log_path = os.path.join(workdir, "server.log")
        cache_dir = os.path.join(workdir, "cache")
        os.makedirs(cache_dir)
        self._log = open(self.log_path, "w")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--jobs", "1",
             "--port", "0", "--cache-dir", cache_dir],
            cwd=root, env=env, stdout=self._log, stderr=subprocess.STDOUT)
        self.host = self.port = None

    def wait_ready(self):
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                match = READY.search(handle.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
            if self.proc.poll() is not None:
                break
            time.sleep(0.02)
        raise RuntimeError("repro serve did not become ready:\n"
                           + open(self.log_path).read()[-2000:])

    def stop(self):
        """Ask the server to shut down; kill it if it does not."""
        if self.proc.poll() is None and self.port is not None:
            from repro.serve.client import http_request
            try:
                http_request(self.host, self.port, "POST", "/v1/shutdown",
                             timeout=10.0)
            except OSError:
                pass
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._log.close()


async def _replay(server, queries, order, label, tracer):
    """Closed loop: every client walks *order*; one op per request."""
    from repro.serve.client import ServeClient

    ops, records = [], []
    root = (tracer.record(label, ROOT_LAYER, time.perf_counter(), None,
                          None) if tracer is not None else None)

    async def client_loop(slot):
        async with ServeClient(server.host, server.port) as client:
            for rank in order:
                start = time.perf_counter()
                error = reply = None
                try:
                    reply = await client.characterize(queries[rank])
                except Exception as exc:  # refused or failed request
                    error = "%s: %s" % (type(exc).__name__, exc)
                end = time.perf_counter()
                source = (reply["points"][0].get("source")
                          if reply and reply.get("points") else None)
                ops.append({"name": "q%d" % rank, "seconds": end - start,
                            "error": error, "source": source})
                records.append((rank, reply))
                if tracer is not None:
                    tracer.record("serve.request", "serve", start, end,
                                  root, {"rank": rank, "client": slot,
                                         "source": source})

    start = time.perf_counter()
    await asyncio.gather(*[client_loop(slot) for slot in range(CLIENTS)])
    wall = time.perf_counter() - start
    if tracer is not None:
        tracer.spans[root]["start"] = start
        tracer.spans[root]["end"] = start + wall
    return wall, ops, records


def _stats(server):
    from repro.serve.client import http_request
    status, stats = http_request(server.host, server.port, "GET",
                                 "/v1/stats")
    if status != 200:
        raise RuntimeError("/v1/stats answered %d" % status)
    return stats


STAT_FIELDS = ("computes", "dedup_hits", "errors")


def _stat_delta(after, before):
    delta = {name: after[name] - before[name] for name in STAT_FIELDS}
    for tier in ("mem", "disk"):
        delta["tier_hits_" + tier] = (after["tier_hits"][tier]
                                      - before["tier_hits"][tier])
    return delta


def _check_replies(ops, records, outputs):
    """Mark ops whose reply differs from the first reply for its rank;
    fill *outputs* with one canonical reply per rank."""
    for op, (rank, reply) in zip(ops, records):
        if reply is None:
            continue
        key = "q%d" % rank
        answer = canonical(reply)
        if key not in outputs:
            outputs[key] = answer
        elif outputs[key] != answer and op["error"] is None:
            op["error"] = "reply differs from an earlier reply"


def run_round(root, workdir, seed, env, tracer=None):
    """One server life: set-up, cold replay, warm replay, shutdown.

    The round runs on one CPU: the load generator pins itself to the
    lowest CPU it may use, and the server and its pool worker inherit
    that. Request/response latency between processes on different
    virtual CPUs drifted by up to 2x while the host was busy, against
    about 1.25x on one CPU. Returns an iteration dict in the same layout
    as the child-process workloads (see ``run.py``).
    """
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _round(root, workdir, seed, env, tracer)
    finally:
        os.sched_setaffinity(0, allowed)


def _round(root, workdir, seed, env, tracer):
    queries = population(seed)
    order = schedule(seed, len(queries))
    spawned = time.monotonic()
    server = Server(root, workdir, env)
    try:
        server.wait_ready()
        from repro.serve.client import http_request
        prefill_errors = 0
        for query in queries[:len(queries) // 2]:
            status, __ = http_request(server.host, server.port, "POST",
                                      "/v1/characterize", query)
            prefill_errors += status != 200
        setup_s = time.monotonic() - spawned
        passes = []
        before = _stats(server)
        outputs = {}
        for label, walk in (("cold", order),
                            ("warm", order * WARM_REPEATS)):
            wall, ops, records = asyncio.run(
                _replay(server, queries, walk, label, tracer))
            after = _stats(server)
            _check_replies(ops, records, outputs)
            passes.append({"label": label, "wall_s": wall, "ops": ops,
                           "outputs": dict(outputs),
                           "counters": _stat_delta(after, before)})
            before = after
        peak = _peak_rss_mb(server.proc.pid)
    finally:
        server.stop()
    if prefill_errors:
        passes[0]["ops"].append({"name": "prefill", "seconds": 0.0,
                                 "error": "%d prefill requests failed"
                                 % prefill_errors, "source": None})
    return {"setups": [setup_s], "passes": passes, "peak_rss_mb": peak,
            "queries": queries}


def check_direct(outputs, queries):
    """Served replies equal direct ``characterize()`` calls.

    Checks the most popular hot rank and the most popular tail rank;
    returns the output keys whose reply disagrees.
    """
    from repro.aging import worst_case
    from repro.cells import default_library
    from repro.core import characterize
    from repro.core.specs import parse_component

    lib = default_library()
    bad = []
    for rank in (0, len(queries) // 2):
        key = "q%d" % rank
        query = queries[rank]
        years = float(query["scenarios"][0][len("worst"):-1])
        scenario = worst_case(years)
        precision = query["precisions"][0]
        table = characterize(parse_component(query["component"]), lib,
                             scenarios=[scenario], precisions=[precision],
                             effort=query["effort"], cache=None, jobs=1)
        points = outputs.get(key)
        point = points[0] if points else None
        if (point is None
                or point["metrics"]["delay_ps"] != table.fresh_ps[precision]
                or point["metrics"]["area_um2"] != table.area_um2[precision]
                or point["metrics"]["gates"] != table.gates[precision]
                or point["aged"].get(scenario.label)
                != table.aged_ps[(precision, scenario.label)]):
            bad.append(key)
    return bad
