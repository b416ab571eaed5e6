"""Starts the benchmark's ``ectarget`` subprocesses from a small process.

Linux carries a parent's peak resident memory at fork into the child's
``ru_maxrss``, so a child of the benchmark process would report the
benchmark's own memory whenever that is larger than the program's. This
process stays small. It reads one request per line on stdin, a JSON list
``[argv, stdout_path]``, runs ``argv`` with stdout to that path and stderr to
``stdout_path + ".err"``, and answers with one JSON line
``[exit code, wall seconds, ru_maxrss in KiB]``. It exits at end of input.
Children inherit its environment and working directory.

    python3 -S bench/launcher.py
"""

import json
import os
import sys
import time


def run(argv, stdout_path):
    out = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err = os.open(stdout_path + ".err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        actions = [(os.POSIX_SPAWN_DUP2, out, 1), (os.POSIX_SPAWN_DUP2, err, 2)]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        elapsed = time.perf_counter() - start
    finally:
        os.close(out)
        os.close(err)
    return [os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss]


def main():
    for line in sys.stdin:
        print(json.dumps(run(*json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
