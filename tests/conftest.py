"""Pin BLAS and OpenMP to one thread before numpy loads.

Outputs are reproducible byte for byte only under a fixed BLAS setting, and
one thread is the setting the benchmark runs under (``bench/worker.py``).
An explicit setting in the environment wins.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
