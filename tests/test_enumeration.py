"""Enumeration engine: oracle agreement, symmetry breaking, work splitting,
filters, determinism, and the size cap."""

import contextlib
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections import Counter
from itertools import permutations, product

import pytest

from cycleset import (
    Census,
    CycleSet,
    EnumerationFilter,
    InvalidCycleSet,
    SearchCancelled,
    brute_force_census,
    cycle_type,
    cycles,
    enumerate_cycle_sets,
    from_cycles,
    scan_cycle_sets,
    size_cap,
)
from cycleset import canon, enumeration
from cycleset.canon import canonical_form as canonical_table
from cycleset.enumeration import (
    ENGINE_VERSION,
    _census,
    _census_classes,
    _degree_tables,
    _diagonals,
    _naive_valid,
    _normal_forms,
    _orbit_representatives,
    _partitions,
    _slice_group,
)

KNOWN_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23, 5: 88, 6: 595}

# sha256 of Census.canonical_bytes(), produced by cycleset-enum/1
CENSUS4_SHA256 = "24893763c8a24365b1de5519c2c182f182307acf0ccab0e82324661f604c96bc"
CENSUS5_SHA256 = "3f7942e73c4efc93a81b1677a805ec9979d4d17a9ab2d85b9f17261eb32e73fe"
CENSUS6_SHA256 = "49850eb62801542888d8b74e26d3d76d3e396633be830cec36c91bed52dca3a3"
INVOLUTION6_SHA256 = "efb8abbec834cea17b2202912aa648b0641531af6f1f81a89373ff7863922957"
SQUAREFREE6_SHA256 = "ea3791fbbde67e75cec2799451b48a095de8740c9cb35fcaeb4a6fc9264554e1"


def _sha256(census):
    return hashlib.sha256(census.canonical_bytes()).hexdigest()


def _failing_search(*args, **kwargs):
    raise RuntimeError("slice failed")


def _fake_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable, whatever the machine's mask.  The faked
    mask names CPUs no machine has, so the system refuses the pool's
    placement and this process keeps its real mask."""
    mask = set(range(1 << 16, (1 << 16) + cpus))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: mask, raising=False)


needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the patched names reach the workers only when they are forked",
)
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="placement needs an affinity mask of two or more CPUs",
)


class TestCounts:
    def test_class_counts_small(self, censuses_small):
        for n, census in censuses_small.items():
            assert census.count == KNOWN_COUNTS[n]

    def test_class_count_six(self, census6):
        assert census6.count == KNOWN_COUNTS[6]

    def test_census_bytes_pinned(self, censuses_small, census6):
        assert _sha256(censuses_small[5]) == CENSUS5_SHA256
        assert _sha256(census6) == CENSUS6_SHA256

    def test_slice_bytes_pinned(self):
        # squaring map of type (2, 2, 2), then the identity (square-free)
        involution = enumerate_cycle_sets(6, diagonal=(1, 0, 3, 2, 5, 4))
        assert (involution.count, _sha256(involution)) == (77, INVOLUTION6_SHA256)
        squarefree = enumerate_cycle_sets(6, diagonal=tuple(range(6)))
        assert (squarefree.count, _sha256(squarefree)) == (68, SQUAREFREE6_SHA256)

    def test_representatives_sorted_and_canonical(self, censuses_small):
        from cycleset import canonical_form

        for census in censuses_small.values():
            reps = census.representatives
            assert list(reps) == sorted(reps)
            assert len(set(reps)) == len(reps)
            for t in reps:
                assert canonical_form(CycleSet(t)).table == t

    def test_one_point_census(self, censuses_small):
        assert censuses_small[1].representatives == (((0,),),)


class TestOracle:
    def test_matches_brute_force_up_to_three(self, censuses_small):
        for n in (1, 2, 3):
            oracle = brute_force_census(n)
            assert oracle.representatives == censuses_small[n].representatives

    def test_oracle_rejects_large_sizes(self):
        with pytest.raises(ValueError):
            brute_force_census(5)


def centralizer_order(t):
    """How many permutations commute with t, by a loop over all of them."""
    n = len(t)
    return sum(
        all(g[t[x]] == t[g[x]] for x in range(n)) for g in permutations(range(n))
    )


def automorphism_count(t):
    """How many permutations g keep the table t, g(x.y) = g(x).g(y), by a
    backtracking that assigns g(0), g(1), ... and, at each g(k), checks
    every product of assigned points whose value is assigned too."""
    n = len(t)
    g = [n] * n
    used = [False] * n

    def extend(k):
        if k == n:
            return 1
        found = 0
        for v in range(n):
            if used[v]:
                continue
            g[k] = v
            if all(
                g[t[x][y]] == t[g[x]][g[y]]
                for x in range(k + 1)
                for y in range(k + 1)
                if t[x][y] <= k
            ):
                used[v] = True
                found += extend(k + 1)
                used[v] = False
        g[k] = n
        return found

    return extend(0)


def assert_orbit_count(n, diagonal):
    """The unbroken search of a slice visits each labeled table whose
    squaring map is T once.  The centralizer C(T) acts on them, with one
    orbit per class of the slice and stabilizer Aut X, so their number is
    the sum of |C(T)| / |Aut X| over the classes (Burnside's orbit
    counting, with no canonical labeling).  A class's representative has a
    conjugate of T as squaring map, whose centralizer is as large."""
    order = centralizer_order(diagonal)
    labeled = 0
    for t in enumerate_cycle_sets(n, diagonal=diagonal).representatives:
        auts = automorphism_count(t)
        assert order % auts == 0
        labeled += order // auts
    unbroken = scan_cycle_sets(n, lambda t: None, symmetry_breaking=False, diagonal=diagonal)
    assert unbroken == labeled


class TestOrbitCount:
    # a second ground truth past the brute-force oracle (n <= 3): the
    # symmetry breaking loses no class and keeps no two of one class on
    # any slice whose unbroken search is affordable

    def test_counts_match_a_scan_of_all_relabelings(self, censuses_small):
        def scanned(t):
            n = len(t)
            return sum(
                all(g[t[x][y]] == t[g[x]][g[y]] for x in range(n) for y in range(n))
                for g in permutations(range(n))
            )

        for n in (1, 2, 3, 4):
            for t in censuses_small[n].representatives:
                assert automorphism_count(t) == scanned(t)
        # C(T) of three transpositions: 2^3 * 3!
        assert centralizer_order(from_cycles(6, [(0, 1), (2, 3), (4, 5)])) == 48

    @pytest.mark.parametrize("n", range(1, 7))
    def test_unbroken_scans_count_the_labeled_tables(self, n):
        for diagonal in _diagonals(n, True, None):
            assert_orbit_count(n, diagonal)


class TestFirstRowRepresentatives:
    def test_one_normal_form_slice_per_partition(self):
        # the full census is one slice per partition of n (11 at n = 6),
        # the squaring map in normal form: cycles on consecutive points
        for n, partitions in ((1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11)):
            diagonals = _diagonals(n, True, None)
            assert len(diagonals) == partitions
            assert len({cycle_type(d) for d in diagonals}) == partitions
            for d in diagonals:
                assert [x for c in cycles(d) for x in c] == list(range(n))
                assert [len(c) for c in cycles(d)] == list(cycle_type(d))

    def test_symmetry_breaking_changes_nothing(self, censuses_small):
        # each pool task passes symmetry_breaking through, so with jobs=2
        # this is the unbroken search too
        for n in (2, 3, 4):
            for jobs in (1, 2):
                free = enumerate_cycle_sets(n, symmetry_breaking=False, jobs=jobs)
                assert free.representatives == censuses_small[n].representatives


class TestWorkSplitting:
    # each pool task, run by the caller or by a worker, is _census_classes
    # on one slice, the diagonals of _diagonals

    def test_zero_depth_is_one_task_per_slice(self):
        diag = from_cycles(4, [(0, 1)])
        assert _diagonals(4, True, diag) == (diag,)
        assert len(_diagonals(4, True, None)) == 5

    def test_slice_task_union_reproduces_census(self, censuses_small):
        for broken in (True, False):
            diagonals = _diagonals(4, broken, None)
            assert len(diagonals) == (5 if broken else 24)
            merged = set()
            for diag in diagonals:
                merged.update(_census_classes(diag, broken, None))
            assert tuple(sorted(merged)) == censuses_small[4].representatives

    def test_parallel_census_canonicalizes_each_class_once(self, censuses_small):
        # slices hold disjoint classes, so the task results add up to the
        # class count: no class is canonicalized twice
        results = [_census_classes(d, True, None) for d in _diagonals(5, True, None)]
        assert sum(len(r) for r in results) == 88
        assert set().union(*results) == set(censuses_small[5].representatives)

    def test_parallel_run_is_byte_identical(self, censuses_small):
        messages = []
        parallel = enumerate_cycle_sets(4, jobs=2, progress=messages.append)
        assert parallel.canonical_bytes() == censuses_small[4].canonical_bytes()
        assert messages == [f"task {k}/5 merged" for k in range(1, 6)]
        assert multiprocessing.active_children() == []

    def test_pool_size_is_bounded_by_tasks(self, monkeypatch):
        # the pool forks all its workers when it starts, so a huge jobs
        # must not reach it; the spy runs a real pool of at most 2
        asked = []
        pool_results = enumeration._pool_results

        def spy(tasks, processes, cancel):
            asked.append(processes)
            return pool_results(tasks, min(processes, 2), cancel)

        monkeypatch.setattr(enumeration, "_pool_results", spy)
        census = enumerate_cycle_sets(5, jobs=10**6)
        assert len(asked) == 1 and 1 <= asked[0] <= 7
        assert _sha256(census) == CENSUS5_SHA256

    @staticmethod
    def _pooled_census(monkeypatch, n, cpus, jobs=2):
        """enumerate_cycle_sets(n, jobs=jobs) on ``cpus`` usable CPUs (None
        for a platform without an affinity mask whose CPU count is unknown):
        the census, the number of processes started, the pids that ran
        _census_classes in this process and the progress messages."""
        starts, ran, messages = [], [], []
        start = multiprocessing.Process.start
        census_classes = enumeration._census_classes

        def spy_start(proc):
            starts.append(proc)
            start(proc)

        def spy_classes(*args):
            # a forked worker appends to its own copy of ran
            ran.append(os.getpid())
            return census_classes(*args)

        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: None)
        else:
            _fake_cpus(monkeypatch, cpus)
        monkeypatch.setattr(multiprocessing.Process, "start", spy_start)
        monkeypatch.setattr(enumeration, "_census_classes", spy_classes)
        census = enumerate_cycle_sets(n, jobs=jobs, progress=messages.append)
        return census, len(starts), ran, messages

    def test_jobs_two_forks_one_worker(self, monkeypatch):
        # the caller is one of the two jobs; the placement on the faked
        # CPUs is refused, and the census is unchanged
        census, started, ran, messages = self._pooled_census(monkeypatch, 5, 2)
        assert started == 1
        assert os.getpid() in ran
        assert messages == [f"task {k}/7 merged" for k in range(1, 8)]
        assert _sha256(census) == CENSUS5_SHA256
        assert multiprocessing.active_children() == []

    def test_last_task_is_left_to_the_caller(self, monkeypatch):
        # two slices: the worker runs one and the caller the other, rather
        # than the worker queueing both while the caller waits
        census, started, ran, messages = self._pooled_census(monkeypatch, 2, 2)
        assert started == 1
        assert ran == [os.getpid()]
        assert census.count == 2 and len(messages) == 2
        assert multiprocessing.active_children() == []

    def test_one_usable_cpu_forks_nothing(self, monkeypatch):
        # as under `taskset -c 0`: the caller runs every slice itself
        census, started, ran, messages = self._pooled_census(monkeypatch, 5, 1)
        assert started == 0
        assert ran == [os.getpid()] * 7
        assert messages == [f"task {k}/7 merged" for k in range(1, 8)]
        assert _sha256(census) == CENSUS5_SHA256

    @pytest.mark.parametrize(
        "cpus, jobs",
        # the serial census is the pool with one process: same tasks, same
        # progress; and with no affinity mask and os.cpu_count() None, one
        # usable CPU is assumed
        [(2, 1), (None, 2)],
        ids=["one-job", "unknown-cpu-count"],
    )
    def test_one_process_runs_every_slice_in_the_caller(self, monkeypatch, cpus, jobs):
        census, started, ran, messages = self._pooled_census(monkeypatch, 5, cpus, jobs)
        assert started == 0
        assert ran == [os.getpid()] * 7
        assert messages == [f"task {k}/7 merged" for k in range(1, 8)]
        assert _sha256(census) == CENSUS5_SHA256

    def test_no_affinity_call_places_nothing(self, monkeypatch):
        # as on a platform without an affinity mask: the pool forks by the
        # CPU count and leaves every process where the system puts it
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert _sha256(enumerate_cycle_sets(5, jobs=2)) == CENSUS5_SHA256
        assert multiprocessing.active_children() == []

    @needs_two_cpus
    def test_workers_run_off_the_callers_cpu(self, monkeypatch):
        # the caller keeps the lowest CPU of its mask and each worker gets
        # the rest, for as long as the pool runs
        before = os.sched_getaffinity(0)
        seen = []
        census_classes = enumeration._census_classes

        def spy_classes(*args):
            # run by the caller while its worker is alive; a forked worker
            # appends to its own copy of seen
            workers = multiprocessing.active_children()
            masks = [os.sched_getaffinity(proc.pid) for proc in workers]
            seen.append((os.sched_getaffinity(0), masks))
            return census_classes(*args)

        monkeypatch.setattr(enumeration, "_census_classes", spy_classes)
        census = enumerate_cycle_sets(5, jobs=2)
        assert _sha256(census) == CENSUS5_SHA256
        assert seen
        lowest = min(before)
        for own, masks in seen:
            assert own == {lowest}
            assert masks == [before - {lowest}]
            assert all(own.isdisjoint(mask) for mask in masks)
        assert os.sched_getaffinity(0) == before

    @needs_two_cpus
    @pytest.mark.parametrize(
        "ending",
        [
            "done",
            pytest.param("task-error", marks=needs_fork),
            pytest.param("worker-exit", marks=needs_fork),
            "cancel",
            "interrupt",
        ],
    )
    def test_caller_mask_is_restored_on_every_exit(self, monkeypatch, ending):
        before = os.sched_getaffinity(0)
        pinned = []
        set_affinity = os.sched_setaffinity

        def spy_set(pid, mask):
            if pid == 0:
                pinned.append(set(mask))
            set_affinity(pid, mask)

        def interrupt(message):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "sched_setaffinity", spy_set)
        kwargs, raised = {}, contextlib.nullcontext()
        if ending == "task-error":
            monkeypatch.setattr(enumeration, "_search", _failing_search)
            raised = pytest.raises(RuntimeError, match="slice failed")
        elif ending == "worker-exit":
            monkeypatch.setattr(enumeration, "_worker", lambda conn: os._exit(3))
            raised = pytest.raises(RuntimeError, match="exited with code 3")
        elif ending == "cancel":
            kwargs["cancel"] = threading.Event()
            kwargs["cancel"].set()
            raised = pytest.raises(SearchCancelled)
        elif ending == "interrupt":
            kwargs["progress"] = interrupt
            raised = pytest.raises(KeyboardInterrupt)
        with raised:
            enumerate_cycle_sets(5, jobs=2, **kwargs)
        # pinned for the pool's life, then given back the whole mask
        assert pinned == [{min(before)}, before]
        assert os.sched_getaffinity(0) == before
        assert multiprocessing.active_children() == []

    def test_classes_are_validated_as_they_merge(self, monkeypatch):
        # each task's classes are checked before its merge is reported,
        # not all at once after the pool closes
        events = []
        validate_table = enumeration.validate_table

        def spy_validate(t):
            events.append("valid")
            validate_table(t)

        monkeypatch.setattr(enumeration, "validate_table", spy_validate)
        census = enumerate_cycle_sets(5, jobs=2, progress=events.append)
        assert _sha256(census) == CENSUS5_SHA256
        assert events.count("valid") == 88
        assert events[0] == "valid" and events[-1] == "task 7/7 merged"

    def test_an_invalid_class_is_refused(self, monkeypatch):
        # the census wraps only tables that pass validation
        monkeypatch.setattr(enumeration, "_census_classes", lambda *args: {((0, 0), (1, 1))})
        with pytest.raises(InvalidCycleSet):
            enumerate_cycle_sets(2)

    def test_pooled_census_bytes_pinned_at_size_6(self):
        census = enumerate_cycle_sets(6, jobs=2)
        assert _sha256(census) == CENSUS6_SHA256
        assert multiprocessing.active_children() == []

    def test_identity_slice_is_submitted_first(self, monkeypatch):
        # the slices of many fixed points, the identity's among them, are
        # the costliest, so they must not wait behind the small slices for
        # a free worker
        tasks = []
        pool_results = enumeration._pool_results

        def spy(iterable, processes, cancel):
            tasks.extend(iterable)
            return pool_results(tasks, processes, cancel)

        monkeypatch.setattr(enumeration, "_pool_results", spy)
        census = enumerate_cycle_sets(4, jobs=2)
        assert tasks[0] == ((0, 1, 2, 3), True)
        assert len(tasks) == 5 and census.count == 23

    @needs_fork
    def test_task_error_propagates_and_leaves_no_workers(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        monkeypatch.setattr(enumeration, "_search", _failing_search)
        with pytest.raises(RuntimeError, match="slice failed"):
            enumerate_cycle_sets(5, jobs=2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_repeated_task_errors_never_hang(self, monkeypatch):
        # killing a worker mid-reply cannot leave a lock held: on a
        # multiprocessing.Pool, whose workers share one result queue, this
        # loop hung within a few hundred rounds
        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        monkeypatch.setattr(enumeration, "_search", _failing_search)
        for _ in range(200):
            with pytest.raises(RuntimeError, match="slice failed"):
                enumerate_cycle_sets(5, jobs=2)
        assert multiprocessing.active_children() == []

    @needs_fork
    def test_worker_exit_raises_instead_of_waiting(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        # the worker loop, not the task, exits: the caller runs tasks too
        monkeypatch.setattr(enumeration, "_worker", lambda conn: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            enumerate_cycle_sets(5, jobs=2)
        assert multiprocessing.active_children() == []

    def test_degree_tables_are_built_once(self, monkeypatch):
        # the cell index and the row facts of a degree are built by its
        # first census and read by every later census, scan and pool task
        # of that degree; a worker stops when its pipe closes
        built = []

        class Facts(canon.RowFacts):
            def __init__(self):
                super().__init__()
                built.append("facts")

        class Conn:
            def __init__(self, tasks):
                self.tasks = list(tasks)
                self.sent = []

            def recv(self):
                if not self.tasks:
                    raise EOFError
                return self.tasks.pop(0)

            def send(self, reply):
                self.sent.append(reply)

        monkeypatch.setattr(canon, "RowFacts", Facts)
        _degree_tables.cache_clear()
        first = enumerate_cycle_sets(4)
        second = enumerate_cycle_sets(4)
        scanned = scan_cycle_sets(4, lambda t: None)
        diagonals = _diagonals(4, True, None)[-2:]
        conn = Conn((d, True) for d in diagonals)
        enumeration._worker(conn)
        assert built == ["facts"]
        assert _degree_tables.cache_info().misses == 1
        assert _sha256(first) == _sha256(second) == CENSUS4_SHA256
        assert scanned == 24
        # leave no spy in the memo for later tests
        monkeypatch.undo()
        _degree_tables.cache_clear()
        want = [(True, _census_classes(d, True, None)) for d in diagonals]
        assert conn.sent == want

    def test_degree_tables_keep_the_last_degree_only(self):
        _degree_tables.cache_clear()
        for n, sha in ((4, CENSUS4_SHA256), (5, CENSUS5_SHA256), (4, CENSUS4_SHA256)):
            assert _sha256(enumerate_cycle_sets(n)) == sha
            assert _degree_tables.cache_info().currsize == 1
        # the one entry kept is degree 4's: asking for it builds nothing
        misses = _degree_tables.cache_info().misses
        _degree_tables(4)
        assert _degree_tables.cache_info().misses == misses == 3

    @pytest.mark.parametrize(
        "method", [m for m in multiprocessing.get_all_start_methods() if m != "fork"]
    )
    def test_pool_without_fork(self, method):
        # workers that start from a fresh import inherit no tables and no
        # patched names from the parent; each builds its own
        code = (
            "import hashlib, multiprocessing\n"
            "from cycleset import enumerate_cycle_sets\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "census = enumerate_cycle_sets(5, jobs=2)\n"
            "print(hashlib.sha256(census.canonical_bytes()).hexdigest())\n"
            "print(len(multiprocessing.active_children()))\n"
        )
        src = os.path.dirname(os.path.dirname(enumeration.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == [CENSUS5_SHA256, "0"]

    def test_split_checks_cap_and_degree(self, monkeypatch):
        monkeypatch.delenv("CYCLESET_MAX_N", raising=False)
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            enumerate_cycle_sets(size_cap() + 1, jobs=2)
        with pytest.raises(ValueError, match="wrong degree"):
            enumerate_cycle_sets(3, jobs=2, diagonal=(1, 0))

    @pytest.mark.parametrize("jobs", [0, -5])
    def test_jobs_below_one_is_refused(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            enumerate_cycle_sets(3, jobs=jobs)


class TestDiagonalConstraint:
    def test_wrong_degree_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycle_sets(3, diagonal=(1, 0, 3, 2))

    def test_non_permutation_rejected(self):
        for diag in ((0, 0, 1), (0, 1, 7)):
            for broken in (True, False):
                with pytest.raises(ValueError, match="not a permutation"):
                    enumerate_cycle_sets(3, diagonal=diag, symmetry_breaking=broken)

    def test_slices_partition_the_census(self, censuses_small):
        # one diagonal representative per cycle type of the squaring map;
        # the constrained searches must tile the full census exactly
        seen = set()
        shapes = [(), ((0, 1),), ((0, 1), (2, 3)), ((0, 1, 2),), ((0, 1, 2, 3),)]
        for cycs in shapes:
            diag = from_cycles(4, cycs)
            part = enumerate_cycle_sets(4, diagonal=diag)
            for t in part.representatives:
                assert cycle_type(CycleSet(t).squaring_map) == cycle_type(diag)
            assert seen.isdisjoint(part.representatives)
            seen.update(part.representatives)
        assert tuple(sorted(seen)) == censuses_small[4].representatives

    def test_slice_symmetry_breaking_matches_unbroken_search(self):
        # oracle gate for the sliced symmetry breaking: every diagonal of
        # every degree up to 4, plus every normal-form slice at 5, both modes
        # agree
        for n in (1, 2, 3, 4):
            for diag in permutations(range(n)):
                broken = enumerate_cycle_sets(n, diagonal=diag)
                plain = enumerate_cycle_sets(
                    n, diagonal=diag, symmetry_breaking=False
                )
                assert broken.representatives == plain.representatives
        # at 5, every normal-form slice, the paper's p-cycle slice T = (5)
        # among them; the slices with several T-cycle lengths are where a
        # point-0 rule that ignored the lengths would lose classes
        counts = {
            (5,): 1,
            (4, 1): 10,
            (3, 2): 6,
            (3, 1, 1): 9,
            (2, 2, 1): 21,
            (2, 1, 1, 1): 24,
            (1, 1, 1, 1, 1): 17,
        }
        for diag in _diagonals(5, True, None):
            broken = enumerate_cycle_sets(5, diagonal=diag)
            plain = enumerate_cycle_sets(5, diagonal=diag, symmetry_breaking=False)
            assert broken.representatives == plain.representatives
            assert len(broken.representatives) == counts[cycle_type(diag)]

    def test_slice_first_rows_are_orbit_representatives(self):
        def conjugate(phi, p):
            q = [0] * len(p)
            for i in range(len(p)):
                q[phi[i]] = phi[p[i]]
            return tuple(q)

        for n in range(1, 6):
            cells = _degree_tables(n)[0]
            for diag in _normal_forms(n):
                # brute force: every relabeling that fixes 0 and commutes with T
                stab = [
                    phi
                    for phi in permutations(range(n))
                    if phi[0] == 0 and all(phi[diag[x]] == diag[phi[x]] for x in range(n))
                ]
                # the row-0 candidates the search tries at the root
                reps = _orbit_representatives(cells[0][diag[0]], _slice_group(diag))
                orbits = [{conjugate(phi, p) for phi in stab} for p in reps]
                # each orbit holds one representative, so no two share one
                assert all(len(o & set(reps)) == 1 for o in orbits)
                # and the orbits cover the whole row-0 pool
                pool = {p for p in permutations(range(n)) if p[0] == diag[0]}
                assert set().union(*orbits) == pool

    def test_residual_groups_fix_row_zero(self):
        # the search prunes below row 0 = p by the residual group of p, so it
        # must hold every relabeling that keeps 0, T and row 0 in place, and
        # only those
        for n in range(1, 6):
            cells = _degree_tables(n)[0]
            perms = list(permutations(range(n)))
            for diag in _normal_forms(n):
                first = _orbit_representatives(cells[0][diag[0]], _slice_group(diag))
                for p, group in first.items():
                    want = {
                        phi
                        for phi in perms
                        if phi[0] == 0
                        and all(phi[diag[x]] == diag[phi[x]] for x in range(n))
                        and all(phi[p[x]] == p[phi[x]] for x in range(n))
                    }
                    assert len(group) == len(want) and set(group) == want

    def test_sliced_search_parallel_byte_identity(self):
        diag = from_cycles(4, [(0, 1)])
        seq = enumerate_cycle_sets(4, diagonal=diag)
        par = enumerate_cycle_sets(4, diagonal=diag, jobs=2)
        assert seq.canonical_bytes() == par.canonical_bytes()


class TestScan:
    def test_scan_covers_every_class(self, censuses_small):
        seen = []
        count = scan_cycle_sets(4, seen.append)
        assert count == len(seen)
        assert count >= censuses_small[4].count
        canon = {canonical_table(t) for t in seen}
        assert canon == set(censuses_small[4].representatives)

    def test_scan_with_diagonal_matches_census_slice(self):
        diag = from_cycles(4, [(0, 1)])
        sliced = enumerate_cycle_sets(4, diagonal=diag)
        seen = []
        scan_cycle_sets(4, seen.append, diagonal=diag)
        assert all(tuple(t[x][x] for x in range(4)) == diag for t in seen)
        assert {canonical_table(t) for t in seen} == set(sliced.representatives)

    def test_scan_counts(self):
        # pins the tables the search emits, so pruning that loses or repeats
        # a table shows even where the classes survive; at n = 5 these are
        # the tables of the 7 normal-form slices, each with row 0 restricted
        # to one representative per orbit of the relabelings that fix 0 and
        # commute with the squaring map, and with row 0 of greatest cycle
        # type among the rows of the points on T's longest cycles.  Below
        # row 0 one candidate per orbit of the residual group is tried, and
        # row 0's ties of cycle type go to the point with most y.x = x;
        # these two rules took the counts from 123, 141 and 183 down to
        # 112, 109 and 113
        assert scan_cycle_sets(5, lambda t: None) == 112
        involution = from_cycles(6, [(0, 1), (2, 3), (4, 5)])
        assert scan_cycle_sets(6, lambda t: None, diagonal=involution) == 109
        assert scan_cycle_sets(6, lambda t: None, diagonal=tuple(range(6))) == 113

    def test_visit_order_pinned(self):
        # the order of the visited tables, not just their set: pruning that
        # drops a trial which would fail anyway must leave it unchanged; the
        # residual-group pruning and the tie-break for point 0 dropped tables
        # from it, keeping the order of the rest
        h = hashlib.sha256()

        def visit(t):
            h.update(repr(t).encode())

        for n in range(1, 6):
            scan_cycle_sets(n, visit)
            scan_cycle_sets(n, visit, symmetry_breaking=False)
        scan_cycle_sets(6, visit, diagonal=from_cycles(6, [(0, 1), (2, 3), (4, 5)]))
        assert h.hexdigest() == (
            "85cdeae4a2f4388d8cad4cbb4f76a4cb8c5396b69b7a392f6d36dcbd06711373"
        )

    def test_visit_order_pinned_at_size_6(self):
        # every slice of size 6, the identity slice among them, where the
        # residual group at the root is largest (S_5, 120 elements)
        h = hashlib.sha256()

        def visit(t):
            h.update(repr(t).encode())

        assert scan_cycle_sets(6, visit) == 978
        assert h.hexdigest() == (
            "d2f1a6826f72182f59b6bcc9d6f865a6681cbaf52271b8ea4e6d49add9aea822"
        )

    def test_only_tables_with_an_identity_row_take_a_class_key(self, monkeypatch):
        # a table without an identity row gets its canonical form from one
        # one-cell search; a table with one takes the colour-cell class key,
        # and each distinct key one seeded search more
        keyed, searched = [], []
        colour_cells, lex_min = canon._colour_cells, canon._lex_min

        def spy_cells(rows, *args):
            keyed.append(rows)
            return colour_cells(rows, *args)

        def spy_lex_min(rows, *args):
            searched.append(rows)
            return lex_min(rows, *args)

        monkeypatch.setattr(canon, "_colour_cells", spy_cells)
        monkeypatch.setattr(canon, "_lex_min", spy_lex_min)
        identity = tuple(range(6))
        # T of type (2,2,2) fixes no point, so no row is the identity
        involution = from_cycles(6, [(0, 1), (2, 3), (4, 5)])
        emitted = []
        scan_cycle_sets(6, emitted.append, diagonal=involution)
        assert len(emitted) == 109 and not any(identity in t for t in emitted)
        assert enumerate_cycle_sets(6, diagonal=involution).count == 77
        assert keyed == [] and sorted(searched) == sorted(emitted)
        # the identity slice: 74 of its 113 tables have an identity row
        keyed.clear()
        searched.clear()
        emitted.clear()
        scan_cycle_sets(6, emitted.append, diagonal=identity)
        with_identity = [t for t in emitted if identity in t]
        assert (len(emitted), len(with_identity)) == (113, 74)
        assert enumerate_cycle_sets(6, diagonal=identity).count == 68
        assert sorted(keyed) == sorted(with_identity)
        keys = {lex_min(t, colour_cells(t), None)[1] for t in with_identity}
        assert len(searched) == len(emitted) + len(keys)

    def test_carried_automorphisms_are_automorphisms_of_the_key(self):
        # the census seeds the canonical search of each key with the
        # automorphisms found by the key search of its first table, carried
        # to the key's labels
        tables = []
        scan_cycle_sets(6, tables.append)
        # 1,214 before the residual-group pruning and the tie-break for point 0
        assert len(tables) == 978
        carried = 0
        for t in tables:
            autos = []
            rho, key = canon._lex_min(t, canon._colour_cells(t), None, autos)
            for (g, fixed), (h, mask) in zip(autos, canon._carry_autos(autos, rho)):
                assert all(
                    key[h[x]][h[y]] == h[key[x][y]] for x in range(6) for y in range(6)
                )
                assert mask == sum(1 << x for x in range(6) if h[x] == x)
                assert mask == sum(1 << rho[x] for x in range(6) if fixed >> x & 1)
                carried += 1
        assert carried > 0

    def test_row_zero_outranks_the_points_of_its_cycle_length(self):
        # centralizer elements of T move any point of a T-cycle as long as
        # 0's to 0, so row 0 may be taken of greatest cycle type among them
        for diag in _diagonals(5, True, None):
            length = {x: len(c) for c in cycles(diag) for x in c}
            peers = [x for x in range(5) if length[x] == length[0]]
            seen = []
            scan_cycle_sets(5, seen.append, diagonal=diag)
            for t in seen:
                assert all(cycle_type(t[x]) <= cycle_type(t[0]) for x in peers)

    def test_row_zero_wins_ties_by_fixing_count(self):
        # among the points on T-cycles as long as 0's, point 0 has the
        # greatest (row cycle type, number of y with y.x = x); the rule keeps
        # ties, so every class still has an emitted table
        def rank(t, x):
            return cycle_type(t[x]), sum(row[x] == x for row in t)

        cases = [(n, None, KNOWN_COUNTS[n]) for n in range(1, 6)]
        cases.append((6, from_cycles(6, [(0, 1), (2, 3), (4, 5)]), 77))
        cases.append((6, tuple(range(6)), 68))
        for n, diagonal, classes in cases:
            seen = []
            scan_cycle_sets(n, seen.append, diagonal=diagonal)
            for t in seen:
                squaring = tuple(t[x][x] for x in range(n))
                length = {x: len(c) for c in cycles(squaring) for x in c}
                peers = [x for x in range(n) if length[x] == length[0]]
                assert all(rank(t, x) <= rank(t, 0) for x in peers)
            assert len({canonical_table(t) for t in seen}) == classes

    def test_census_computes_the_colours_of_a_table_once(self, monkeypatch):
        # the leaf's tie-break for point 0 hands its colours to the class
        # key, so a census of a slice with peers of 0 computes no more
        # colours than the scan of that slice, whose leaves compute them
        calls = []
        colours = canon.colours

        def counted(rows, facts=None):
            calls.append(1)
            return colours(rows, facts)

        monkeypatch.setattr(canon, "colours", counted)
        identity = tuple(range(5))
        scanned = scan_cycle_sets(5, lambda t: None, diagonal=identity)
        leaves = len(calls)
        assert leaves >= scanned > 0
        calls.clear()
        enumerate_cycle_sets(5, diagonal=identity)
        assert len(calls) == leaves

    def test_unbroken_scan_visits_each_valid_table_once(self):
        # the element-form oracle over every table of rows, per diagonal slice
        for n in (1, 2, 3):
            perms = list(permutations(range(n)))
            valid = [t for t in product(perms, repeat=n) if _naive_valid(t, n)]
            for diag in [None, *perms]:
                seen = []
                scan_cycle_sets(n, seen.append, diagonal=diag, symmetry_breaking=False)
                want = [
                    t
                    for t in valid
                    if diag is None or tuple(t[x][x] for x in range(n)) == diag
                ]
                assert Counter(seen) == Counter(want)

    def test_unbroken_scan_visits_more_tables(self):
        broken = scan_cycle_sets(3, lambda t: None)
        plain = scan_cycle_sets(3, lambda t: None, symmetry_breaking=False)
        assert plain > broken > 0

    def test_visit_exception_aborts(self):
        class Abort(Exception):
            pass

        seen = []

        def visit(t):
            seen.append(t)
            raise Abort

        with pytest.raises(Abort):
            scan_cycle_sets(3, visit)
        assert len(seen) == 1

    def test_scan_respects_cap_and_degree(self, monkeypatch):
        monkeypatch.delenv("CYCLESET_MAX_N", raising=False)
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            scan_cycle_sets(9, lambda t: None)
        with pytest.raises(ValueError):
            scan_cycle_sets(3, lambda t: None, diagonal=(1, 0))
        with pytest.raises(ValueError):
            scan_cycle_sets(0, lambda t: None)


class TestFilters:
    BATTERY = [
        EnumerationFilter(indecomposable=True),
        EnumerationFilter(latin=True),
        EnumerationFilter(simple=True),
        EnumerationFilter(irretractable=False),
        EnumerationFilter(nilpotent_group=True),
        EnumerationFilter(squaring_cycle_type=(2, 1, 1)),
        EnumerationFilter(group_order=4),
        EnumerationFilter(indecomposable=True, squaring_cycle_type=(1, 2, 1)),
    ]

    def test_filtered_census_equals_post_hoc_filtering(self, censuses_small):
        full = censuses_small[4]
        for filt in self.BATTERY:
            got = enumerate_cycle_sets(4, filt)
            want = tuple(
                t for t in full.representatives if filt.matches(CycleSet(t))
            )
            assert got.representatives == want

    def test_squaring_chooses_the_slices(self):
        # the size-8 census has 22 slices; --squaring 7,1 searches one
        assert len(_diagonals(8, True, None)) == 22
        assert _diagonals(8, True, None, (1, 7)) == (from_cycles(8, [range(7)]),)
        # without symmetry breaking, every squaring map of the type
        unbroken = _diagonals(4, False, None, (1, 2, 1))
        assert len(unbroken) == 6
        assert {cycle_type(d) for d in unbroken} == {(2, 1, 1)}
        # a given diagonal is the slice, whatever the filter says
        diag = from_cycles(4, [(0, 1, 2)])
        assert _diagonals(4, True, diag, (2, 1, 1)) == (diag,)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_squaring_slices_give_the_post_filtered_census(
        self, n, censuses_small, census6
    ):
        full = census6 if n == 6 else censuses_small[n]
        for parts in _partitions(n):
            # the filter takes the cycle type in any order
            for squaring in (parts, parts[::-1]):
                filt = EnumerationFilter(squaring_cycle_type=squaring)
                want = _census(n, filt, full.cycle_sets(), ENGINE_VERSION, 0.0)
                got = enumerate_cycle_sets(n, filt)
                assert got.canonical_bytes() == want.canonical_bytes()
                if n <= 4:
                    got = enumerate_cycle_sets(n, filt, symmetry_breaking=False)
                    assert got.canonical_bytes() == want.canonical_bytes()

    @pytest.mark.parametrize("n, squaring", [(3, (0, 3)), (4, (5, -1)), (2, (2, 0))])
    def test_squaring_with_a_part_below_one_is_refused(self, n, squaring):
        filt = EnumerationFilter(squaring_cycle_type=squaring)
        match = r"squaring cycle type \[.*\] has a part below 1"
        with pytest.raises(ValueError, match=match):
            enumerate_cycle_sets(n, filt)
        with pytest.raises(ValueError, match=match):
            enumerate_cycle_sets(n, filt, diagonal=tuple(range(n)))
        with pytest.raises(ValueError, match=match):
            brute_force_census(n, filt)

    @pytest.mark.parametrize("n, squaring", [(4, (2, 1, 1, 1)), (3, (2, 1, 1)), (2, ())])
    def test_squaring_of_another_size_searches_nothing(self, n, squaring):
        # a cycle type of another size matches no class (acceptance
        # criterion 1 runs the (2, 1, 1) filter at sizes 1 to 3), so no
        # slice is searched
        assert _diagonals(n, True, None, squaring) == ()
        assert _diagonals(n, False, None, squaring) == ()
        filt = EnumerationFilter(squaring_cycle_type=squaring)
        for census in (enumerate_cycle_sets(n, filt), brute_force_census(n, filt)):
            assert census.representatives == ()
            assert dict(census.filter_desc) == {"squaring_cycle_type": list(squaring)}

    def test_group_order_predicate(self, censuses_small):
        full = censuses_small[4]
        filt = EnumerationFilter(group_order=lambda o: o % 2 == 0)
        got = enumerate_cycle_sets(4, filt)
        want = tuple(
            t
            for t in full.representatives
            if CycleSet(t).perm_group.order % 2 == 0
        )
        assert got.representatives == want
        assert dict(got.filter_desc)["group_order"] == "<lambda>"

    def test_describe_round_trip(self):
        filt = EnumerationFilter(
            indecomposable=True, squaring_cycle_type=(2, 1), group_order=6
        )
        desc = filt.describe()
        assert desc["indecomposable"] is True
        assert desc["squaring_cycle_type"] == [2, 1]
        assert desc["group_order"] == 6
        assert "latin" not in desc

    def test_matches_on_fixtures(self, size2_indec, trivial2):
        indec = EnumerationFilter(indecomposable=True)
        assert indec.matches(size2_indec)
        assert not indec.matches(trivial2)


class TestCensusObject:
    def test_elapsed_excluded_from_identity(self, censuses_small):
        a = censuses_small[3]
        b = Census(
            n=a.n,
            filter_desc=a.filter_desc,
            representatives=a.representatives,
            engine_version=a.engine_version,
            elapsed=a.elapsed + 100.0,
        )
        assert a == b
        assert a.canonical_bytes() == b.canonical_bytes()
        assert b"elapsed" not in a.canonical_bytes()

    def test_cycle_sets_are_validated_instances(self, censuses_small):
        sets = censuses_small[3].cycle_sets()
        assert len(sets) == censuses_small[3].count
        assert all(X.n == 3 for X in sets)

    def test_engine_version_recorded(self, censuses_small):
        assert censuses_small[2].engine_version == ENGINE_VERSION

    def test_determinism(self, censuses_small):
        again = enumerate_cycle_sets(4)
        assert again.canonical_bytes() == censuses_small[4].canonical_bytes()


class TestSizeCap:
    def test_default_cap(self, monkeypatch):
        monkeypatch.delenv("CYCLESET_MAX_N", raising=False)
        assert size_cap() == 8
        with pytest.raises(ValueError, match="exceeds the enumeration cap"):
            enumerate_cycle_sets(9)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("CYCLESET_MAX_N", "3")
        assert size_cap() == 3
        with pytest.raises(ValueError):
            enumerate_cycle_sets(4)
        monkeypatch.setenv("CYCLESET_MAX_N", "9")
        assert size_cap() == 9

    def test_non_integer_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("CYCLESET_MAX_N", "eight")
        with pytest.raises(ValueError, match="CYCLESET_MAX_N must be an integer, got 'eight'"):
            enumerate_cycle_sets(3)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError):
            enumerate_cycle_sets(0)


class TestCancellation:
    # the search polls the event at its first node and then every 512 nodes
    def test_set_event_aborts_search(self):
        ev = threading.Event()
        ev.set()
        for n, diag in ((3, None), (4, None), (4, from_cycles(4, [(0, 1)])), (5, None)):
            with pytest.raises(SearchCancelled):
                enumerate_cycle_sets(n, diagonal=diag, cancel=ev)

    def test_set_event_aborts_parallel_search(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        ev = threading.Event()
        ev.set()
        with pytest.raises(SearchCancelled):
            enumerate_cycle_sets(5, jobs=2, cancel=ev)
        assert multiprocessing.active_children() == []

    def test_event_set_mid_parallel_search_stops_running_tasks(self, monkeypatch):
        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        ev = threading.Event()
        timer = threading.Timer(0.5, ev.set)
        start = time.monotonic()
        timer.start()
        try:
            # n = 7 takes seconds, so the census cannot finish before the timer
            with pytest.raises(SearchCancelled):
                enumerate_cycle_sets(7, jobs=2, cancel=ev)
        finally:
            timer.cancel()
            timer.join(5)
        # the pool polls every 0.1 s, then terminates its running workers
        assert time.monotonic() - start < 2.5
        assert multiprocessing.active_children() == []

    def test_keyboard_interrupt_leaves_no_orphan_workers(self, monkeypatch):
        def interrupt(message):
            raise KeyboardInterrupt

        _fake_cpus(monkeypatch, 2)  # a worker whatever the machine's mask
        with pytest.raises(KeyboardInterrupt):
            enumerate_cycle_sets(5, jobs=2, progress=interrupt)
        assert multiprocessing.active_children() == []

    def test_unset_event_leaves_census_unchanged(self, censuses_small):
        census = enumerate_cycle_sets(5, cancel=threading.Event())
        assert census.canonical_bytes() == censuses_small[5].canonical_bytes()
