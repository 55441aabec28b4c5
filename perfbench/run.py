"""Benchmark for the motzkin package.

Run from the root of a checkout that holds the package under ``src/``:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 45 --trace 0

The workload's request list is drawn from the seed (see workloads.py).
With ``--trace 0`` the list is replayed by a single closed-loop client,
one program process per CLI request (``python -m motzkin.cli ...``) or
one library process per lookup pass, in a fixed number of rounds sized
so that a run takes about ``--seconds`` (see ``ROUND_SECONDS``). A slow
machine makes the run longer, not its samples fewer, up to ``OVERRUN``
times ``--seconds`` of rounds. The first CLI round runs every request
and checks its output against the independent oracle; later rounds run
each request every ``stride`` rounds, where the stride grows with the
request's cost, so cheap requests are timed often and costly ones less
often. A later output must match the checked one byte for byte. Each
lookup pass is checked against the oracle. With ``--trace 1`` the list
is replayed untraced and traced, twice each, each replay in a fresh
process, to give the per-layer metrics; spans go to ``.perfbench_out/``.
The last line printed is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from oracle import Oracle
from tracer import LAYER_METRICS
from workloads import WORKLOADS, build, check_cli, check_lookup, input_report, inverse_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Typical time of one round on a 2-CPU Xeon VM at 2.1 GHz; a run makes
# round(seconds / ROUND_SECONDS) rounds, at least MIN_ROUNDS.
ROUND_SECONDS = {"cli": 7.5, "lookup": 2.5}
MIN_ROUNDS = 2
OVERRUN = 1.2  # rounds stop early only once they would pass this many times --seconds
STRIDE_QUANTUM_S = 0.25  # a request costing k quanta runs every k-th round
MAX_STRIDE = 8
SETUP_LAUNCHES = 5  # import launches before the passes, and as many after
PROC_LAUNCHES = 9
REQUEST_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # the run must end well inside 180 s
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
TRACE_REPLAYS = 2  # untraced and traced replays each, in a traced run

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Launch:
    code: int
    out: bytes  # empty unless the launch kept its output
    err: bytes
    digest: str
    wall: float
    cpu: float
    maxrss_mb: float
    timed_out: bool


class Launcher:
    """Runs program processes through launcher.py, one at a time."""

    def __init__(self, env: dict, tag: str) -> None:
        self.out_path = OUT / f"stdout-{tag}"
        self.err_path = OUT / f"stderr-{tag}"
        argv = [sys.executable, "-S", str(HERE / "launcher.py")]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)

    def run(self, argv: list[str], keep: bool, timeout: float = REQUEST_TIMEOUT_S) -> Launch:
        request = {"argv": argv, "out": str(self.out_path), "err": str(self.err_path), "keep": keep, "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        reply = json.loads(line)
        return Launch(
            code=reply["code"],
            out=self.out_path.read_bytes() if keep else b"",
            err=self.err_path.read_bytes(),
            digest=reply["digest"],
            wall=reply["wall"],
            cpu=reply["cpu"],
            maxrss_mb=reply["maxrss_kb"] / 1024,
            timed_out=reply["timed_out"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out_path.unlink(missing_ok=True)
        self.err_path.unlink(missing_ok=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def launch_times(launcher: Launcher, code: str, count: int) -> list[float]:
    """Wall times of ``count`` fresh interpreters running ``code``, after one warm-up."""
    times = []
    for _ in range(count + 1):
        result = launcher.run([sys.executable, "-c", code], keep=False)
        if result.code != 0:
            raise RuntimeError(f"python -c {code!r} failed: {result.err.decode(errors='replace')}")
        times.append(result.wall)
    return times[1:]


def tail_percentile(samples: int) -> int:
    """Highest multiple of 5 percent with at least TAIL_BEYOND samples beyond it."""
    return max(5, 5 * math.floor(20 * (1 - TAIL_BEYOND / samples)))


def percentile(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Passes:
    """Timed samples of each request, with the stop rule.

    ``latencies[i]`` and ``request_cpus[i]`` hold request i's samples.
    The machine's speed swings from one fraction of a second to the
    next, so each request's figure is its fastest sample, which depends
    far less on when the run happened than a median over samples does.
    """

    def __init__(self, seconds: int, rounds: int, started: float, requests: int) -> None:
        self.seconds = seconds
        self.rounds = rounds
        self.started = started
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.latencies: list[list[float]] = [[] for _ in range(requests)]
        self.request_cpus: list[list[float]] = [[] for _ in range(requests)]
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failed = 0

    def another(self, cost: float) -> bool:
        """Whether another round, expected to take ``cost`` seconds, runs:
        until the run has made its rounds, unless the rounds would pass
        OVERRUN times the run's seconds or the run would overrun RUN_BUDGET_S."""
        if len(self.walls) >= self.rounds or sum(self.walls) + cost > OVERRUN * self.seconds:
            return False
        return time.perf_counter() - self.started + cost <= RUN_BUDGET_S


def fastest(samples: list[list[float]]) -> list[float]:
    """Each request's smallest sample."""
    return [min(values) for values in samples if values] or [0.0]


def _cli(launcher: Launcher, request: dict, keep: bool) -> Launch:
    return launcher.run([sys.executable, "-m", "motzkin.cli", *request["argv"]], keep)


def cli_passes(requests: list[dict], oracle: Oracle, launcher: Launcher, passes: Passes) -> None:
    def record(position: int, result: Launch, ok: bool) -> None:
        passes.latencies[position].append(result.wall)
        passes.request_cpus[position].append(result.cpu)
        passes.peak_rss_mb = max(passes.peak_rss_mb, result.maxrss_mb)
        passes.attempted += 1
        passes.failed += not ok

    # Round 0 keeps every output and checks it against the oracle.
    checked: list[tuple[tuple, bool]] = []
    start = time.perf_counter()
    for position, request in enumerate(requests):
        result = _cli(launcher, request, keep=True)
        out, err = result.out.decode(errors="replace"), result.err.decode(errors="replace")
        ok = not result.timed_out and check_cli(oracle, request["expect"], result.code, out, err)
        if not ok:
            print(f"FAILED {' '.join(request['argv'])}: exit {result.code}, stderr {err[-300:]!r}", file=sys.stderr)
        checked.append(((result.code, result.digest, result.err, result.timed_out), ok))
        record(position, result, ok)
    passes.walls.append(time.perf_counter() - start)

    # Later rounds compare each output with the checked one.
    strides = [max(1, min(MAX_STRIDE, round(min(samples) / STRIDE_QUANTUM_S))) for samples in passes.latencies]
    round_ = 1
    while True:
        due = [i for i, stride in enumerate(strides) if (round_ + i) % stride == 0]
        if not passes.another(sum(min(passes.latencies[i]) for i in due)):
            break
        start = time.perf_counter()
        for position in due:
            result = _cli(launcher, requests[position], keep=False)
            same = (result.code, result.digest, result.err, result.timed_out) == checked[position][0]
            if not same:
                print(f"FAILED {' '.join(requests[position]['argv'])}: output differs from the checked round", file=sys.stderr)
            record(position, result, same and checked[position][1])
        passes.walls.append(time.perf_counter() - start)
        round_ += 1


def _worker(launcher: Launcher, calls_path: Path) -> tuple[Launch, list | None]:
    result = launcher.run([sys.executable, str(HERE / "lookup_worker.py"), str(calls_path)], True, 2 * REQUEST_TIMEOUT_S)
    if result.code != 0 or result.timed_out:
        print(f"FAILED lookup worker: exit {result.code}, stderr {result.err[-300:]!r}", file=sys.stderr)
        return result, None
    return result, json.loads(result.out)


def lookup_passes(calls: list[dict], oracle: Oracle, launcher: Launcher, passes: Passes, tag: str) -> None:
    calls_path = OUT / f"lookup-calls-{tag}.json"
    inverse_path = OUT / f"lookup-inverse-{tag}.json"
    calls_path.write_text(json.dumps(calls))
    checked: tuple[list, list[bool]] | None = None
    while passes.another(passes.walls[-1] if passes.walls else 0.0):
        result, results = _worker(launcher, calls_path)
        passes.walls.append(result.wall)
        passes.cpus.append(result.cpu)
        passes.peak_rss_mb = max(passes.peak_rss_mb, result.maxrss_mb)
        passes.attempted += len(calls)
        if results is None or len(results) != len(calls):
            passes.failed += len(calls)
            continue
        for samples, (_, _, seconds) in zip(passes.latencies, results):
            samples.append(seconds)
        answers = [[status, value] for status, value, _ in results]
        if checked is None or checked[0] != answers:
            inverse_path.write_text(json.dumps(inverse_calls(calls, results)))
            _, inverse_results = _worker(launcher, inverse_path)
            checked = (answers, check_lookup(oracle, calls, results, inverse_results or []))
        passes.failed += checked[1].count(False)
    calls_path.unlink()
    inverse_path.unlink(missing_ok=True)


def measured_run(workload: str, requests: list[dict], oracle: Oracle, seconds: int, launcher: Launcher, tag: str) -> dict:
    started = time.perf_counter()
    setup = launch_times(launcher, "import motzkin", SETUP_LAUNCHES)
    passes = Passes(seconds, max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload])), started, len(requests))
    if workload == "lookup":
        lookup_passes(requests, oracle, launcher, passes, tag)
        wall, cpu = min(passes.walls), min(passes.cpus)
    else:
        cli_passes(requests, oracle, launcher, passes)
        wall, cpu = sum(fastest(passes.latencies)), sum(fastest(passes.request_cpus))
    setup += launch_times(launcher, "import motzkin", SETUP_LAUNCHES)
    latencies = fastest(passes.latencies)
    pct = tail_percentile(len(latencies))
    print(
        f"rounds={len(passes.walls)} samples={sum(map(len, passes.latencies))} requests={len(requests)} "
        f"tail=p{pct} over {len(latencies)} per-request "
        f"latencies ({sum(v > percentile(latencies, pct) for v in latencies)} beyond); "
        f"fail_frac={passes.failed / max(passes.attempted, 1)} ratio (base {passes.attempted} attempted)"
    )
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "cpu_s": cpu,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": percentile(latencies, pct),
        "peak_rss_mb": passes.peak_rss_mb,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    return {"attempted": passes.attempted, "failed": passes.failed, "metrics": metrics}


def _replay(launcher: Launcher, requests_path: Path, workload: str, traced: bool, spans_path: Path) -> dict:
    argv = [sys.executable, str(HERE / "replay.py"), str(requests_path), workload, "1" if traced else "0", str(spans_path)]
    result = launcher.run(argv, True, RUN_BUDGET_S / 2)
    if result.code != 0 or result.timed_out:
        print(f"FAILED replay: exit {result.code}, stderr {result.err[-500:]!r}", file=sys.stderr)
        return {}
    return json.loads(result.out.decode().strip().splitlines()[-1])


def traced_run(workload: str, requests: list[dict], launcher: Launcher, tag: str) -> dict:
    python_start = statistics.median(launch_times(launcher, "pass", PROC_LAUNCHES))
    with_import = statistics.median(launch_times(launcher, "import motzkin", PROC_LAUNCHES))
    requests_path = OUT / f"requests-{tag}.json"
    requests_path.write_text(json.dumps(requests))
    spans_path = OUT / f"spans-{tag}.json"
    # Untraced and traced replays alternate, and each side keeps its
    # fastest, so that the overhead is not one replay's noise.
    replays = [
        _replay(launcher, requests_path, workload, traced, OUT / f"spans-{tag}-{round_}.json")
        for round_ in range(TRACE_REPLAYS)
        for traced in (False, True)
    ]
    requests_path.unlink()
    if not all(replays):
        metrics = {name: {"value": 0, "unit": unit} for name, unit, _ in LAYER_METRICS}
        return {"attempted": len(replays) * len(requests), "failed": len(replays) * len(requests), "metrics": metrics}
    plain = min(replays[0::2], key=lambda replay: replay["replay_s"])
    fastest_round = min(range(TRACE_REPLAYS), key=lambda round_: replays[2 * round_ + 1]["replay_s"])
    traced = replays[2 * fastest_round + 1]
    for round_ in range(TRACE_REPLAYS):
        round_spans = OUT / f"spans-{tag}-{round_}.json"
        if round_ == fastest_round:
            round_spans.replace(spans_path)
        else:
            round_spans.unlink()
    values = dict(traced["layers"])
    values["proc.python_start_s"] = python_start
    values["proc.import_s"] = with_import - python_start
    values["cli.output_bytes"] = traced["output_bytes"]
    values["trace.overhead_s"] = traced["replay_s"] - plain["replay_s"]
    print(f"spans written to {spans_path.relative_to(ROOT)}; fastest replay {plain['replay_s']:.3f} s untraced, {traced['replay_s']:.3f} s traced")
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in LAYER_METRICS}
    return {
        "attempted": sum(replay["attempted"] for replay in replays),
        "failed": sum(replay["failed"] for replay in replays),
        "metrics": metrics,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "motzkin" / "cli.py").is_file():
        print(f"error: no motzkin package under {SRC}; run from the root of a full checkout", file=sys.stderr)
        return 2
    oracle = Oracle()
    if not oracle.self_check():
        print("error: oracle self-check against the hard-coded prefixes failed", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    launcher = Launcher(child_env(), tag)
    try:
        requests = build(args.workload, args.seed, oracle)
        print(f"workload={args.workload} seed={args.seed} trace={args.trace} python={sys.version.split()[0]} nproc={os.cpu_count()}")
        print("inputs " + json.dumps(input_report(args.workload, requests, oracle)))
        if args.trace:
            result = traced_run(args.workload, requests, launcher, tag)
        else:
            result = measured_run(args.workload, requests, oracle, args.seconds, launcher, tag)
    finally:
        launcher.close()
    for name, metric in result["metrics"].items():
        print(f"  {name:44s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
