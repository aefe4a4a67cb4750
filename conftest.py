"""Settings shared by the test suites under ``tests`` and ``benchmark``.

The dense path makes many small matrix products.  A multi-threaded BLAS on
a machine whose other cores are busy slows them many times over, so the
suites run with one BLAS thread unless the environment sets another count.
The variables are read when numpy is first imported, which is after this
file runs.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
