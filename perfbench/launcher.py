"""Small process that starts the benchmark's program processes.

A child's peak RSS from ``wait4`` includes the peak of the process that
spawned it, because the spawn shares that process's memory until exec.
The benchmark itself holds large outputs while it checks them, so it
hands every launch to this process, which stays at a few MB.

Protocol: one JSON object per line on stdin,
``{"argv": [...], "out": path, "err": path, "keep": bool, "timeout": seconds}``;
one JSON reply per line on stdout,
``{"code": int, "wall": s, "cpu": s, "maxrss_kb": int, "timed_out": bool,
"digest": hex, "out_bytes": int}``.
The child's stdout goes to a pipe that this process drains, hashing it
as it reads; with ``keep`` it is also copied to the ``out`` file. The
child's stderr goes to the ``err`` file. EOF on stdin ends the launcher.

On a shared machine each CPU slows down for seconds at a time when other
tenants load it, independently of the other CPUs. Before each launch the
launcher times a short probe loop on every CPU it may use and pins the
child to the fastest one, which removes much of that noise. While the
child runs, the launcher moves to the other CPUs, so that draining the
pipe does not take the child's CPU.
"""

import hashlib
import json
import os
import select
import signal
import sys
import time

CPUS = sorted(os.sched_getaffinity(0))
PROBES = 3
CHUNK = 1 << 16


def _probe_seconds(cpu: int) -> float:
    os.sched_setaffinity(0, {cpu})
    best = float("inf")
    for _ in range(PROBES):
        start = time.perf_counter()
        total = 0
        for i in range(10000):
            total += i
        best = min(best, time.perf_counter() - start)
    return best


def pin_to_fastest_cpu() -> int:
    """Pin this process, and so the next child it spawns, to the CPU
    that runs the probe loop fastest right now; return that CPU."""
    cpu = min(CPUS, key=_probe_seconds)
    os.sched_setaffinity(0, {cpu})
    return cpu


def _drain(pipe_fd: int, pidfd: int, out: str, keep: bool, timeout: float) -> tuple[str, int, bool]:
    """Read the child's stdout to EOF; kill the child if it outlives ``timeout``."""
    digest, size = hashlib.blake2b(), 0
    copy = open(out, "wb") if keep else None
    deadline = time.monotonic() + timeout
    timed_out = False
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
                timed_out = True
                break
            if not select.select([pipe_fd], [], [], left)[0]:
                continue
            chunk = os.read(pipe_fd, CHUNK)
            if not chunk:
                break
            digest.update(chunk)
            size += len(chunk)
            if copy:
                copy.write(chunk)
    finally:
        if copy:
            copy.close()
    return digest.hexdigest(), size, timed_out


def run(argv: list, out: str, err: str, keep: bool, timeout: float) -> dict:
    read_fd, write_fd = os.pipe()
    err_fd = os.open(err, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    null_fd = os.open(os.devnull, os.O_RDONLY)
    actions = [(os.POSIX_SPAWN_DUP2, null_fd, 0), (os.POSIX_SPAWN_DUP2, write_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)]
    cpu = pin_to_fastest_cpu()
    start = time.perf_counter()
    try:
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finally:
        for fd in (write_fd, err_fd, null_fd):
            os.close(fd)
    os.sched_setaffinity(0, set(CPUS) - {cpu} or set(CPUS))
    pidfd = os.pidfd_open(pid)
    try:
        digest, size, timed_out = _drain(read_fd, pidfd, out, keep, timeout)
        if not timed_out and not select.select([pidfd], [], [], max(0.0, timeout - (time.perf_counter() - start)))[0]:
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            timed_out = True
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
        os.close(read_fd)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "wall": time.perf_counter() - start,
        "cpu": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "timed_out": timed_out,
        "digest": digest,
        "out_bytes": size,
    }


if __name__ == "__main__":
    for line in sys.stdin:
        request = json.loads(line)
        reply = run(request["argv"], request["out"], request["err"], request["keep"], request["timeout"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
