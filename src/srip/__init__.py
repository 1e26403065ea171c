"""Incoherent dictionaries over prime fields and their Gram-spectrum statistics.

Besides ``__version__``, importing the package sets one default: OpenBLAS
runs on one thread unless ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` is already set. It takes effect only when ``srip`` is
imported before numpy, because OpenBLAS reads these variables once, when
numpy loads it.
"""

import os

# srip's products are small (blocks of at most linalg.CHUNK_ENTRIES = 2**15
# entries, operators of at most 101 x 101): after each threaded one the extra
# OpenBLAS workers busy-wait for about 0.1 s, which doubles CPU time and
# barely moves wall time.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
