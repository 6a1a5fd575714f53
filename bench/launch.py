"""Run one command to completion and print its exit code, wall time, CPU
time and peak resident set as one JSON line.

    python3 bench/launch.py <stderr log> <command> [args...]

The benchmark starts every program step through this small process: the
peak RSS that wait4 reports for a child starts from the memory of the
process that spawned it, so a step spawned by the benchmark itself would
report the benchmark's own peak instead of its own.
"""

import json
import os
import subprocess
import sys
import time


def main():
    log_path, argv = sys.argv[1], sys.argv[2:]
    with open(log_path, "w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({
        "exit": proc.returncode,
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }))


if __name__ == "__main__":
    main()
