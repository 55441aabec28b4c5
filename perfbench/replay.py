"""Replay one workload's request list inside a single process.

Usage, with the package's ``src`` directory on PYTHONPATH:

    python3 perfbench/replay.py REQUESTS.json WORKLOAD TRACED SPANS.json

CLI requests go through ``motzkin.cli.main(argv)`` with stdout and
stderr captured; lookup calls go through ``words.rank`` / ``words.unrank``.
Every result is checked by the oracle. With TRACED = 1 the tracer wraps
the package first and its spans are written to SPANS.json. The last line
printed is a JSON object with the replay time, the attempted and failed
counts and, when traced, the per-layer values.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

from lookup_worker import perform
from oracle import Oracle
from tracer import Tracer
from workloads import check_cli, check_lookup, inverse_calls


def replay_cli(requests: list[dict], oracle: Oracle, tracer: Tracer | None) -> dict:
    from motzkin import cli

    seconds, failed, output_bytes = 0.0, 0, 0
    for request_id, request in enumerate(requests):
        if tracer:
            tracer.request_id = request_id
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(request["argv"]))
        seconds += time.perf_counter() - start
        text = out.getvalue()
        output_bytes += len(text.encode())
        failed += not check_cli(oracle, request["expect"], code, text, err.getvalue())
    return {"replay_s": seconds, "attempted": len(requests), "failed": failed, "output_bytes": output_bytes}


def replay_lookup(calls: list[dict], oracle: Oracle, tracer: Tracer | None) -> dict:
    start = time.perf_counter()
    results = perform(calls)
    seconds = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    verdicts = check_lookup(oracle, calls, results, perform(inverse_calls(calls, results)))
    return {"replay_s": seconds, "attempted": len(calls), "failed": verdicts.count(False), "output_bytes": 0}


def main(requests_path: str, workload: str, traced: bool, spans_path: str) -> dict:
    with open(requests_path) as handle:
        requests = json.load(handle)
    oracle = Oracle()
    import motzkin  # noqa: F401  (imported before timing, as in a warm library)

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    replay = replay_lookup if workload == "lookup" else replay_cli
    try:
        summary = replay(requests, oracle, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    if tracer:
        summary["layers"] = tracer.layer_values()
        tracer.write(spans_path)
    return summary


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4])))
