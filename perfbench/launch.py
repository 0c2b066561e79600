"""Run a command as a child of this bare interpreter and report the child's
own wall time, peak RSS and CPU time.

    python3 launch.py FD PROGRAM [ARG ...]

The report is one JSON object written to the inherited file descriptor FD;
the command's stdout and stderr are this process's.  The exit code is the
command's (128 + signal number if a signal ended it).

Linux starts a new process's peak RSS at the RSS of the process that
spawned it, so a job spawned straight from the benchmark (which holds numpy
and the gate's references) would report at least the benchmark's own RSS.
This launcher imports nothing heavy, so the peak it reports is the job's.
"""

import json
import os
import sys
import time


def main() -> int:
    fd, argv = int(sys.argv[1]), sys.argv[2:]
    os.set_inheritable(fd, False)
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with os.fdopen(fd, "w") as out:
        json.dump({"wall_s": wall, "peak_rss_mib": usage.ru_maxrss / 1024.0,
                   "cpu_s": usage.ru_utime + usage.ru_stime}, out)
    code = os.waitstatus_to_exitcode(status)
    return code if code >= 0 else 128 - code


if __name__ == "__main__":
    sys.exit(main())
