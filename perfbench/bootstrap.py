"""Pin BLAS/OpenMP threads and put the checkout's ``src`` on the import path.

``prepare()`` must run before anything imports numpy: the thread counts are
read once, when the BLAS library loads.  With one BLAS thread the solver's
own worker threads are the only parallelism a run uses.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREADS = "1"


def prepare():
    """Pin thread counts and import orthomg from this checkout only.

    Exits with status 2 when the checkout holds no ``src/orthomg``, so the
    benchmark never measures an installed copy of the library by mistake.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    if not (SRC / "orthomg" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no orthomg sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
