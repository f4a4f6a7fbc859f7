"""serve_mix: refused and failed requests count as failed operations
(``failed_ops_frac`` is failed over attempted operations)."""

import asyncio

import run
import serve_mix

GOOD = {"component": "mult4", "precisions": [4], "scenarios": ["worst1y"],
        "effort": "high"}
REFUSED = {"component": "mult4", "precisions": [99],
           "scenarios": ["worst1y"], "effort": "high"}


def _pass(label, ops, outputs):
    return {"label": label, "wall_s": 1.0, "ops": ops, "outputs": outputs,
            "counters": {}}


def test_refused_and_failed_requests_are_counted(tmp_path):
    server = serve_mix.Server(run.ROOT, str(tmp_path),
                              run.child_env(str(tmp_path)))
    try:
        server.wait_ready()
        __, refused_ops, records = asyncio.run(serve_mix._replay(
            server, [GOOD, REFUSED], [0, 1], "cold", None))
    finally:
        server.stop()
    # The server is gone: every request of this replay fails.
    __, failed_ops, __ = asyncio.run(serve_mix._replay(
        server, [GOOD], [0], "warm", None))

    outputs = {}
    serve_mix._check_replies(refused_ops, records, outputs)
    assert sorted(op["name"] for op in refused_ops if op["error"]) \
        == ["q1"] * serve_mix.CLIENTS
    assert all(op["error"] for op in failed_ops)

    iteration = {"setups": [1.0], "peak_rss_mb": 1.0,
                 "passes": [_pass("cold", refused_ops, outputs),
                            _pass("warm", failed_ops, {})]}
    attempted, failed, __ = run.apply_gate("serve_mix", 5, [iteration],
                                           golden=None)
    assert attempted == 3 * serve_mix.CLIENTS
    assert failed == 2 * serve_mix.CLIENTS


def test_a_reply_that_changes_between_requests_is_flagged():
    ops = [{"name": "q0", "seconds": 0.1, "error": None},
           {"name": "q0", "seconds": 0.1, "error": None}]
    first = {"points": [{"precision": 4, "aged": {"1y_worst": 1.0},
                         "source": "computed"}]}
    second = {"points": [{"precision": 4, "aged": {"1y_worst": 2.0},
                          "source": "mem"}]}
    outputs = {}
    serve_mix._check_replies(ops, [(0, first), (0, second)], outputs)
    assert ops[0]["error"] is None
    assert "differs" in ops[1]["error"]
    assert outputs["q0"] == [{"precision": 4, "aged": {"1y_worst": 1.0}}]


def test_population_and_schedule_depend_only_on_the_seed():
    assert serve_mix.population(3) == serve_mix.population(3)
    assert serve_mix.population(3) != serve_mix.population(4)
    size = len(serve_mix.population(3))
    first, second = serve_mix.schedule(3, size), serve_mix.schedule(4, size)
    # Same zipf shares (so the same work), different order.
    assert sorted(first) == sorted(second) and first != second
    assert set(first) == set(range(size))
