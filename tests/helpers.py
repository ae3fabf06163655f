"""Shared builders for the test suite."""

import importlib.util
import sys
import time
from pathlib import Path

import numpy as np
import scipy.sparse

import orthomg as om
from orthomg import smoothers, sync


def random_sparse(rng, n_rows, n_cols, density=0.3):
    """Random CSR matrix with entries in [-1, 1)."""
    mask = rng.random((n_rows, n_cols)) < density
    dense = np.where(mask, rng.uniform(-1.0, 1.0, (n_rows, n_cols)), 0.0)
    return scipy.sparse.csr_matrix(dense)


def random_spd(rng, n):
    """Random symmetric positive definite matrix as CSR."""
    a = rng.standard_normal((n, n))
    return scipy.sparse.csr_matrix(a @ a.T + n * np.eye(n))


def load_perfbench(name):
    """``perfbench/<name>.py`` as a module named ``perfbench_<name>``.

    Its own imports of sibling benchmark modules (``import tracing``) are
    resolved from ``perfbench/`` and dropped from ``sys.modules`` again.
    """
    folder = Path(__file__).resolve().parent.parent / "perfbench"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    known = set(sys.modules)
    sys.path.insert(0, str(folder))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(folder))
        for sibling in ("tracing", "workloads"):
            if sibling not in known:
                sys.modules.pop(sibling, None)
    return module


def reference_partition(cells_per_axis, dimension, n_subdomains, overlap):
    """:func:`orthomg.partition_cells`'s cores and extended sets, one box at a time.

    The per-box loop the grouped walks replaced: each box orders its axes
    and directions, walks its window and keeps the cells within
    ``overlap`` face steps.
    """
    n = cells_per_axis
    boxes = []
    smoothers._bisect((0,) * dimension, (n,) * dimension, n_subdomains, boxes)
    strides = n ** np.arange(dimension - 1, -1, -1)
    cores = []
    extended = []
    for lo, hi in boxes:
        order = sorted(range(dimension),
                       key=lambda a: (hi[a] - lo[a], min(lo[a] + hi[a], 2 * n - lo[a] - hi[a])))
        lo, hi = [lo[a] for a in order], [hi[a] for a in order]
        windows = [np.arange(max(l - overlap, 0), min(h + overlap, n)) for l, h in zip(lo, hi)]
        axes = np.ix_(*(w[::-1] if l + h > n else w for w, l, h in zip(windows, lo, hi)))
        steps = sum(np.maximum(np.maximum(l - x, x - h + 1), 0) for x, l, h in zip(axes, lo, hi))
        flat = sum(x * strides[a] for x, a in zip(axes, order))
        cores.append(np.sort(flat[steps == 0]))
        extended.append(flat[steps <= overlap])
    return cores, extended


# Cells whose blocks one gathering step takes from the level matrix, at
# most, and the slots of its lookup table (a larger set is gathered on its
# own).  Each step forms the rows ``A[g]`` for its cells ``g`` only, so the
# temporaries do not grow with the level.
GATHER_CELLS = 2**14
GATHER_SLOTS = 2**18


def _gathered(a, sets, sizes):
    """Entries of each block ``A[s, s]`` over ``sets``, one step of sets at a time.

    Each set owns a window of table slots, one per matrix index from its
    smallest cell to its largest, holding the step row of each of its
    cells; an entry of a gathered row is kept when its column hits a
    filled slot in the window of the row's own set.  Consecutive sets
    whose cells and windows fit in :data:`GATHER_CELLS` cells and
    :data:`GATHER_SLOTS` slots form a step.  Yields ``(first, nnz, row,
    col, data)`` per step: its sets start at set ``first``, and the
    ``k``-th of them holds the next ``nnz[k]`` entries, in row order, each
    row by column, with rows and columns counted as positions in the set.
    So a block's entries do not depend on where the set lies in the grid.
    """
    heads = np.cumsum(sizes) - sizes
    cells = np.concatenate(sets)
    lo = np.minimum.reduceat(cells, heads)
    width = np.maximum.reduceat(cells, heads) - lo + 1
    ends = (np.cumsum(sizes) - 1) // GATHER_CELLS + (np.cumsum(width) - 1) // GATHER_SLOTS
    starts = [0, *(np.flatnonzero(np.diff(ends)) + 1)]
    # cells listed after a larger cell of their own set; a step without any
    # keeps the matrix's ascending columns, already each row by column
    descends = np.diff(cells) < 0
    descends[heads[1:] - 1] = False
    for first, stop in zip(starts, [*starts[1:], len(sets)]):
        row0, size = heads[first], heads[stop - 1] + sizes[stop - 1] - heads[first]
        owner = np.repeat(np.arange(stop - first), sizes[first:stop])
        # slot of index j for a row of set o: shift[o] + j, past a -1 guard
        # slot at each end of the table
        window = np.cumsum(width[first:stop]) - width[first:stop] + 1
        shift = window - lo[first:stop]
        slots = np.full(window[-1] + width[stop - 1] + 1, -1, dtype=np.intc)
        slots[shift[owner] + cells[row0:row0 + size]] = np.arange(size)
        sub = a[cells[row0:row0 + size]]
        per_row = np.diff(sub.indptr)
        set_of = np.repeat(owner, per_row)
        col = slots[np.clip(shift[set_of] + sub.indices, 0, slots.size - 1)]
        # a column outside the row's window lands on a guard, an empty slot
        # or another set's cell
        keep = (col >= 0) & (owner[col] == set_of)
        base = heads[first:stop] - row0  # step row of each set's first cell
        row = np.repeat(np.arange(size) - base[owner], per_row)[keep]
        set_of = set_of[keep]
        col, data = col[keep], sub.data[keep]
        if descends[row0:row0 + size - 1].any():
            # the rows list columns in the grid's order: sort each by the set's
            by_col = np.argsort((row + base[set_of]) * size + col, kind="stable")
            col, data = col[by_col], data[by_col]
            del by_col
        nnz, col = np.bincount(set_of, minlength=stop - first), col - base[set_of]
        # the caller keys the step's blocks: free the step's temporaries first
        del sub, per_row, set_of, keep, slots, owner
        yield first, nnz, row, col, data
        del nnz, row, col, data  # the next step gathers without them


def reference_blocks(a, sets, sizes, precision):
    """Each distinct block ``A[s, s]`` over ``sets`` once, in ``precision``, gathered.

    The row gather that set-up took where it could not read along boxes
    (:func:`_gathered`), kept as the independent reference that the grid
    read and the per-set slice (``smoothers._sliced_blocks``) must match.

    A structured grid repeats blocks wherever the coefficient is constant
    and between mirror images of a subdomain (10 distinct ones among the
    256 subdomains of the 256^2 disc level, 11 among the 128 of the 32^3
    one, 106 among the 1024 tiles of the 128^2 one).  A set is keyed by its
    size and the bytes of its entries, so only bitwise-equal blocks share
    one: the dict confirms every hash match by comparing the keys whole.
    Returns the distinct blocks in order of first appearance, each as its
    size and its entries (``row``, ``col`` and ``data`` records, in row
    order), and per set the index of its block.
    """
    entry = np.dtype([("row", np.intc), ("col", np.intc), ("data", precision)])
    keys = {}
    which = []
    for first, nnz, row, col, data in _gathered(a, sets, sizes):
        records = np.empty(row.size, entry)
        records["row"], records["col"], records["data"] = row, col, data
        flat = records.tobytes()
        ends = np.cumsum(nnz) * entry.itemsize
        which += [keys.setdefault((size, flat[lo:hi]), len(keys)) for size, lo, hi
                  in zip(sizes[first:first + nnz.size].tolist(),
                         (ends - nnz * entry.itemsize).tolist(), ends.tolist())]
        del records, flat, row, col, data  # likewise
    return [(size, np.frombuffer(key, entry)) for size, key in keys], np.array(which)


def kernel(smoother):
    """Local kernel a :class:`~orthomg.SubdomainSmoother` took at set-up.

    Each chunk holds the solver of one piece of distinct blocks: their
    inverses on the dense kernel, their triangular factors on the sparse
    one.  Neither keeps a block-diagonal matrix.
    """
    solvers = [solver for _, _, solver in smoother.chunks]
    if all(isinstance(solver, smoothers._BatchedInverse) for solver in solvers):
        return "dense"
    assert all(isinstance(solver, smoothers._StackedLU) for solver in solvers)
    return "sparse"


def factor_arrays(smoother):
    """Every array a smoother keeps for its local solves, chunk by chunk."""
    if kernel(smoother) == "dense":
        return [solver.inverses for _, _, solver in smoother.chunks]
    return [array for _, _, solver in smoother.chunks for f in (solver.lower, solver.upper)
            for array in (f.data, f.indices, f.indptr)]


def same_setup(first, second):
    """Whether two smoothers hold bitwise-equal chunks: rows and factors."""
    def layout(sm):
        return [rows for rows, _, _ in sm.chunks] + factor_arrays(sm)

    ours, theirs = layout(first), layout(second)
    return len(ours) == len(theirs) and all(map(np.array_equal, ours, theirs))


def factor_dtypes(smoother):
    """Dtypes of every stored local factor: each chunk's inverses or ``L`` and ``U``."""
    if kernel(smoother) == "dense":
        return {solver.inverses.dtype for _, _, solver in smoother.chunks}
    return {f.dtype for _, _, solver in smoother.chunks for f in (solver.lower, solver.upper)}


def benchmark_setup(cells=16, dimension=2, l_min=64, smoother="schwarz",
                    n_subdomains=4, overlap=1, precision="float64",
                    smoother_iterations=1, tile=4, k_outer=1000.0):
    """Assembled benchmark plus one smoother per level above the coarsest.

    Returns ``(spec, hierarchy, b, smoothers)`` where ``smoothers`` is a
    tuple ready for a :class:`~orthomg.CycleConfig`.
    """
    spec = om.ProblemSpec(dimension=dimension, cells_per_axis=cells, k_outer=k_outer)
    hierarchy = om.build_hierarchy(spec, l_min=l_min)
    b = spec.rhs()
    smoothers = []
    for level in hierarchy.levels[:-1]:
        if smoother == "schwarz":
            count = min(n_subdomains, level.n_dofs)
            part = om.partition_cells(level.cells_per_axis, dimension, count, overlap)
            sm = om.schwarz_setup(level.matrix, part, precision, smoother_iterations)
        else:
            sm = om.bj_setup(level.matrix, min(tile, level.cells_per_axis),
                             (level.cells_per_axis, dimension))
        smoothers.append(om.LevelSmoother(sm))
    smoothers.append(None)
    return spec, hierarchy, b, tuple(smoothers)


def slow_coarsest_solve(seconds):
    """The coarsest direct solve, run after a sleep of ``seconds``.

    Bound as ``orthomg.taskpar.coarsest_solve`` (by ``monkeypatch``, or by
    assignment in a subprocess), it delays every coarse task whose next
    level is the coarsest; on a two-level hierarchy that is every coarse
    correction of the top boundary.
    """
    def solve(a, r):
        time.sleep(seconds)
        return sync.coarsest_solve(a, r)

    return solve


def cycle_config(variant, smoothers, **kwargs):
    return om.CycleConfig(
        variant=variant,
        criteria=kwargs.pop("criteria", om.ConvergenceCriteria()),
        smoothers=smoothers,
        **kwargs,
    )


def smoother_steps(setup, sweeps_per_cycle):
    """Finest-level smoother steps of a deterministic task-parallel solve.

    ``setup`` is what :func:`benchmark_setup` returns.  The scheduler pins
    the lateness: each cycle's coarse correction is folded in after
    ``sweeps_per_cycle`` smoother sweeps.
    """
    _, h, b, smoothers = setup
    result = om.async_solve(
        h, b, np.zeros(h.finest.n_dofs), cycle_config("additive_task_parallel", smoothers),
        om.assign_groups(h, h.n_levels), om.SchedulerMode.deterministic(sweeps_per_cycle),
    )
    assert result.converged
    return result.history.kinds().count("smoother")
