"""Fixed reference task: how fast is this machine right now?

run.py runs it in a fresh interpreter just before each workload pass and
divides the pass's wall time by this task's, so that stretches in which a
shared host runs every process slower do not read as a slower program.
Its mix follows the program's: interpreter and numpy start-up, allocation
churn through np.roll on 8 MiB vectors, complex exponentials, and a plain
Python loop.  It uses nothing from the repository, so it is the same task
at every commit.  Changing it rescales wall_s and setup_s.
"""

import numpy as np

N = 1 << 20
probs = np.zeros(N)
probs[0] = 1.0
for _ in range(3):
    out = np.zeros(N)
    for shift in range(1, 13):
        out += np.roll(probs, shift * 7919) / 12
    probs = out

ks = np.arange(1 << 18, dtype=np.int64)
acc = np.zeros(len(ks), dtype=np.complex128)
for g in (3, 9, 27, 81):
    acc += np.exp((2j * np.pi / 1_000_003) * ((ks * g) % 1_000_003))

total = 0
for i in range(200_000):
    total += i * i
