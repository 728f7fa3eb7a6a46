"""Session set-up for every test under the repository, ``tests/`` and
``perfbench/tests/`` alike, however pytest is started."""

import os

# The suite runs at one BLAS thread, as ``perfbench`` does (its
# ``BLAS_ENV``): the configuration whose bits are the same on any core
# count.  Set before anything imports NumPy; a user's own setting wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
