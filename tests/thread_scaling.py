"""Why a second thread cannot speed up a solve on this host: four measurements.

0. Whether the host gave a second CPU: two workers, each making as many
   calls of a solve kernel (the CSR product and SuperLU's ``gstrs``, on
   W1's problem as in 2.) as one worker makes alone in about half a
   second, first on two threads and then in two processes.  The line
   gives their speed-up over making both workers' calls in turn: 2.00x
   where both ran at once, 1.00x where they took turns on one CPU.  On a
   shared host the answer changes from run to run, so print it beside any
   parallel timing.
1. ``hashlib.sha256`` over 8 MiB, 100 times: on one thread, on each of two
   threads at once, and in each of two processes at once; then
   ``zlib.crc32`` over the same bytes on one thread and on two.  Two
   workers take the time of one only where the host runs them on two
   cores at once and neither holds the interpreter lock.
2. How far a 0.5 ms ``time.sleep`` overshoots while another thread loops
   on one kernel of a solve, on W1's problem (``perfbench/workloads.py``,
   65536 unknowns, 39 basis vectors): scipy's ``dgemv`` (the minimizer's
   proposal and Gram-Schmidt update), numpy's ``@`` on the basis panel
   (Gram-Schmidt's coefficients), ``np.dot`` of two vectors, the CSR
   product and SuperLU's ``gstrs`` on a level-0 smoother piece.  A kernel
   that holds the lock keeps the sleeper waiting until the interpreter
   asks the holder to switch (every 5 ms), so its overshoot is near that;
   a kernel that releases it costs the sleeper tens of microseconds.
3. OpenBLAS GEMM at n = 1500 with one BLAS thread and with two, each in a
   fresh process (the count is read when the library loads).

    PYTHONPATH=src python tests/thread_scaling.py

Times depend on the host and its load; compare them within one run only.
The file name keeps it out of pytest's collection.
"""

import os

# one BLAS thread, as the benchmark runs, before numpy loads (section 3
# sets its own count in each child process)
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import functools  # noqa: E402
import hashlib  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import zlib  # noqa: E402
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor  # noqa: E402
from multiprocessing import get_context  # noqa: E402

import numpy as np  # noqa: E402
from scipy.linalg.blas import dgemv  # noqa: E402

import orthomg as om  # noqa: E402

HASHES = 100
HASH_BYTES = 8 * 2**20
SLEEP = 0.0005
SLEEPS = 200
OVERLAP_SECONDS = 0.5
OVERLAP_KERNELS = ("csr_matvec", "gstrs")
GEMM = """
import time, numpy as np
a = np.random.default_rng(0).standard_normal((1500, 1500))
a @ a
start = time.perf_counter()
for _ in range(5):
    a @ a
print((time.perf_counter() - start) / 5)
"""


def hashes(count=HASHES, digest=lambda data: hashlib.sha256(data).digest()):
    """Wall-clock interval ``(start, end)`` of ``count`` digests of 8 MiB."""
    data = bytes(HASH_BYTES)
    start = time.time()
    for _ in range(count):
        digest(data)
    return start, time.time()


def crcs(count=HASHES):
    return hashes(count, zlib.crc32)


def hash_scaling():
    """One line per setting: each worker's seconds and the wall time of all."""
    def line(label, intervals):
        first = min(start for start, _ in intervals)
        spans = ", ".join(f"{end - start:.3f} s" for start, end in intervals)
        wall = max(end for _, end in intervals) - first
        return f"  {label:12s} each {spans}; all done after {wall:.3f} s"

    yield f"sha256 over 8 MiB, {HASHES} times per worker:"
    yield line("one thread", [hashes()])
    with ThreadPoolExecutor(2) as pool:
        yield line("two threads", list(pool.map(hashes, [HASHES] * 2)))
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        list(pool.map(hashes, [1, 1]))  # both workers started
        yield line("two processes", list(pool.map(hashes, [HASHES] * 2)))
    yield f"zlib.crc32 over 8 MiB, {HASHES} times per worker:"
    yield line("one thread", [crcs()])
    with ThreadPoolExecutor(2) as pool:
        yield line("two threads", list(pool.map(crcs, [HASHES] * 2)))


@functools.lru_cache(maxsize=None)
def kernels():
    """``(name, call)`` of each solve kernel, on W1's finest level, built once per process."""
    spec = om.ProblemSpec(dimension=2, cells_per_axis=256, k_outer=1000.0)
    level = om.build_hierarchy(spec, l_min=64).finest
    n = level.n_dofs
    rng = np.random.default_rng(0)
    panel = rng.standard_normal((39, n))
    x, y, coefficients = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal(39)
    partition = om.partition_cells(256, 2, 256, 1)
    smoother = om.schwarz_setup(level.matrix, partition)
    rows, cells, solver = max(smoother.chunks, key=lambda chunk: chunk[0].size)
    defect = x[cells]
    return [
        ("scipy dgemv", lambda: dgemv(1.0, panel.T, coefficients)),
        ("numpy @", lambda: panel @ x),
        ("np.dot", lambda: np.dot(x, y)),
        ("csr_matvec", lambda: level.matrix @ x),
        ("gstrs", lambda: solver.solve(defect)),
    ]


def calls(name, count):
    """Wall-clock interval ``(start, end)`` of ``count`` calls of kernel ``name``."""
    call = dict(kernels())[name]
    start = time.time()
    for _ in range(count):
        call()
    return start, time.time()


def kernels_built(seconds):
    """Build the kernels in a pool worker, then hold it so that the other one starts too."""
    kernels()
    time.sleep(seconds)


def overlap():
    """One line per kernel: the speed-up of two workers over one worker's calls in turn."""
    yield (f"two workers at once, each making the calls one worker makes in about "
           f"{OVERLAP_SECONDS} s, against both workers' calls in turn (2.00x: a second "
           f"CPU ran them; 1.00x: none did):")
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as processes:
        list(processes.map(kernels_built, [0.2, 0.2]))  # both workers started
        for name in OVERLAP_KERNELS:
            start, end = calls(name, 20)
            count = max(1, round(20 * OVERLAP_SECONDS / max(end - start, 1e-6)))

            def span(intervals):
                return max(e for _, e in intervals) - min(s for s, _ in intervals)

            before = span([calls(name, count)])
            with ThreadPoolExecutor(2) as threads:
                two_threads = span(list(threads.map(calls, [name] * 2, [count] * 2)))
            two_processes = span(list(processes.map(calls, [name] * 2, [count] * 2)))
            # the faster of one worker's runs before and after the pairs
            alone = min(before, span([calls(name, count)]))
            yield (f"  {name:12s} {count} calls alone {alone:.3f} s; two threads "
                   f"{2 * alone / two_threads:.2f}x, two processes "
                   f"{2 * alone / two_processes:.2f}x")


def overshoots(call):
    """Median and largest overshoot of a 0.5 ms sleep while a thread loops on ``call``."""
    stop = threading.Event()

    def spin():
        while not stop.is_set():
            call()

    spinner = None if call is None else threading.Thread(target=spin)
    if spinner is not None:
        spinner.start()
    try:
        time.sleep(0.05)
        over = []
        for _ in range(SLEEPS):
            start = time.perf_counter()
            time.sleep(SLEEP)
            over.append(time.perf_counter() - start - SLEEP)
    finally:
        stop.set()
        if spinner is not None:
            spinner.join(timeout=10.0)
            if spinner.is_alive():
                raise RuntimeError("kernel thread did not stop")
    return statistics.median(over), max(over)


def lock_holding():
    """One line per kernel: how long a sleeping thread waits past its 0.5 ms."""
    yield (f"overshoot of a 0.5 ms sleep ({SLEEPS} sleeps; switch interval "
           f"{sys.getswitchinterval() * 1e3:.1f} ms) while another thread loops on:")
    for name, call in [("nothing", None), *kernels()]:
        if call is not None:
            start = time.perf_counter()
            call()
            took = f"one call {1e3 * (time.perf_counter() - start):.3f} ms"
        else:
            took = ""
        median, worst = overshoots(call)
        yield (f"  {name:12s} median {1e6 * median:8.0f} us  largest {1e6 * worst:8.0f} us"
               f"  {took}")


def gemm_threads():
    """One line per BLAS thread count: seconds per 1500 x 1500 GEMM."""
    yield "OpenBLAS GEMM, n = 1500, mean of 5 after one untimed, in a fresh process:"
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", GEMM], env=env, check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        yield f"  {threads} BLAS thread(s): {float(out):.3f} s"


def main():
    print(f"usable CPUs: {len(os.sched_getaffinity(0))}")
    for section in (overlap, hash_scaling, lock_holding, gemm_threads):
        for line in section():
            print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
