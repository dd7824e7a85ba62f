"""Host-speed probe, run beside the measured passes by ``run.py``.

On a shared host the instruction throughput the benchmark gets drifts by
20-30% over seconds to minutes, and every pass time moves with it.  This
process samples that throughput while the passes run.  It prints ``ready``
once it is warm; then, every ``PERIOD_S`` seconds until it is terminated, it
runs a fixed loop and appends one line to the file named by its argument:
``<time.monotonic() at the start> <thread CPU seconds of the loop>``.
CPU time, not wall time, is written, so a sample does not count time spent
waiting for a core the passes hold.

The loop mixes interpreted arithmetic with 3x3 numpy products, as the
program's hot paths do, and calls nothing in ambiflow, so no change to the
program can move it.  It sleeps most of the time: about 5% of one core.
"""

from __future__ import annotations

import sys
import time

import numpy as np

PERIOD_S = 0.2


def loop() -> None:
    total = 0
    for i in range(30000):
        total += (i * i) % 7
    a, eye = np.full((3, 3), 0.1), np.eye(3)
    for _ in range(750):
        a = a @ a * 0.5 + eye * 0.1


def main(path: str) -> None:
    loop()
    with open(path, "w", encoding="utf-8") as out:
        print("ready", flush=True)
        while True:
            start, cpu = time.monotonic(), time.thread_time()
            loop()
            out.write(f"{start!r} {time.thread_time() - cpu!r}\n")
            out.flush()
            time.sleep(PERIOD_S)


if __name__ == "__main__":
    main(sys.argv[1])
