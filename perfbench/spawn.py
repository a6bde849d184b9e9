"""Run one command at a time; report its wall time, its own peak RSS, and
the reference loop's times around and during it.

On Linux a process inherits, at exec, the peak RSS of the address space it
was spawned from, so a child spawned by a large parent reports at least the
parent's peak as its own. The benchmark holds its inputs and oracle data in
memory, so it spawns every measured command through this small process
instead.

This process pins itself, and so its children, to one CPU. It runs the
reference loop (refloop.py) just before each child starts, every
SAMPLE_EVERY_S while the child runs, and just after the child ends.

Protocol: one JSON request per line on stdin,
  {"argv": [...], "env": {...}, "stdout": path, "stderr": path, "timeout": s}
and one JSON reply per line on stdout,
  {"start": t, "end": t, "samples": [[t, t, s], ...], "maxrss_kb": int, "exit": int}
with times from time.perf_counter (a system-wide monotonic clock): the
child's spawn and exit, and each loop's start, end and CPU time. A child still
running after `timeout` seconds is killed; its exit is then negative (minus
the signal number).
"""

import json
import os
import select
import signal
import sys
import time

from refloop import SAMPLE_EVERY_S, pin_to_one_cpu, reference_seconds


def sample(samples: list) -> None:
    start = time.perf_counter()
    cpu = reference_seconds()
    samples.append((start, time.perf_counter(), cpu))


def main() -> int:
    pin_to_one_cpu()
    reference_seconds()  # warm-up
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write, 0o644),
        ]
        samples: list = []
        sample(samples)
        start = time.perf_counter()
        pid = os.posix_spawn(req["argv"][0], req["argv"], req["env"], file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            while not select.select([pidfd], [], [], SAMPLE_EVERY_S)[0]:
                if time.perf_counter() - start > req["timeout"]:
                    os.kill(pid, signal.SIGKILL)
                sample(samples)
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(pid, 0)
        end = time.perf_counter()
        sample(samples)
        reply = {
            "start": start,
            "end": end,
            "samples": samples,
            "maxrss_kb": usage.ru_maxrss,
            "exit": os.waitstatus_to_exitcode(status),
        }
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
