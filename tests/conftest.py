"""Test-session setup, loaded by pytest before any test module.

OpenBLAS runs single-threaded for the whole session. Threaded OpenBLAS on
a 2-vCPU machine sometimes stalls ~150 ms per call in the first few
``np.linalg.solve`` calls of a process, which is enough to push the dense
oracle inside the timed C1 gate past its bound. OpenBLAS reads the
variable once, when numpy first loads it, so it is set here, before any
test module imports numpy.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
