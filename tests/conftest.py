"""Set-up for a pytest run, made before any test module imports numpy.

numpy's OpenBLAS starts one worker thread per CPU when it is imported,
and ``monte_carlo`` forks only a process that runs one OS thread. With
one BLAS thread, the default the CLI sets, every Monte Carlo batch of two
or more blocks in the suite runs in one process per CPU.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
