import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import kernel_oracle
from mapquot import census, kernel
from mapquot.maps import PlaneMap, canonical_code

CASES = [
    dict(outer_deg=4, inner_deg=4, n_inner=3),
    dict(outer_deg=4, inner_deg=4, n_inner=4, require_simple=True, require_outer_simple=True),
    dict(outer_deg=3, inner_deg=3, n_inner=5),
    dict(outer_deg=3, inner_deg=3, n_inner=5, require_simple=True, require_outer_simple=True),
    dict(outer_deg=2, inner_deg=4, n_inner=3),
    dict(outer_deg=1, inner_deg=3, n_inner=5),
    dict(outer_deg=6, inner_deg=4, n_inner=3, require_outer_simple=True),
]


@pytest.mark.parametrize("case", CASES)
def test_pure_kernel_output_is_valid_and_duplicate_free(case):
    sigmas = kernel.run_census(**case)
    codes = set()
    for s in sigmas:
        m = PlaneMap(s, 0)
        codes.add(canonical_code(m))
    assert len(codes) == len(sigmas)


ORACLE_PROFILES = [
    (4, 4, 5), (3, 3, 7), (6, 4, 4), (8, 4, 3), (2, 4, 4),
    (1, 3, 7), (6, 3, 4), (3, 3, 2), (4, 4, 0),
]
ORACLE_FLAGS = [
    {},
    dict(require_outer_simple=True),
    dict(require_simple=True),
    dict(require_simple=True, require_outer_simple=True),
]


# Larger simple families, where the kernel's pruning on unglued sides cuts
# the most branches.
SIMPLE_ORACLE_PROFILES = [(4, 4, 7), (6, 4, 5), (8, 4, 4), (6, 3, 6)]

# Unconstrained and outer-simple quadrangular families, where most of the
# parity cut falls before the last polygon opens.
PARITY_ORACLE_CASES = [((2, 4, 6), {}), ((4, 4, 5), dict(require_outer_simple=True))]


def test_pure_kernel_matches_whole_state_oracle():
    def maps(profile, flags):
        got = list(kernel.run_census(*profile, **flags))
        expect = list(map(bytes, kernel_oracle.run_census(*profile, **flags)))
        assert got == expect, (profile, flags)
        return len(got)

    counts = [maps(profile, flags) for profile in ORACLE_PROFILES for flags in ORACLE_FLAGS]
    assert (sum(counts), sum(map(bool, counts))) == (71647, 26)
    simple = [maps(profile, ORACLE_FLAGS[3]) for profile in SIMPLE_ORACLE_PROFILES]
    assert simple == [1938, 294, 90, 84]
    # the oracle keeps the end-only parity cut
    parity = [maps(profile, flags) for profile, flags in PARITY_ORACLE_CASES]
    assert parity == [24057, 7425]


KERNEL_FORM_PROFILES = [
    (4, 4, 4), (3, 3, 5), (2, 4, 3), (1, 3, 5), (8, 4, 2), (4, 4, 6, True, True), (6, 4, 3, False, True),
]


@pytest.mark.parametrize("profile", KERNEL_FORM_PROFILES)
def test_kernel_form_replays_the_search(profile):
    sigmas = kernel.run_census(*profile)
    assert sigmas
    keys = []
    for s in sigmas:
        key, form = kernel.kernel_form(bytes(s), profile[0], profile[1])
        assert form == s
        keys.append(key)
    assert all(a < b for a, b in zip(keys, keys[1:]))


def search_nodes(*args):
    """(calls of the search's `rec`, maps emitted) for one run_census."""
    nodes = 0

    def count(frame, event, arg):
        nonlocal nodes
        code = frame.f_code
        if event == "call" and code.co_name == "rec" and code.co_filename == kernel.__file__:
            nodes += 1

    sys.setprofile(count)
    try:
        maps = kernel.run_census(*args)
    finally:
        sys.setprofile(None)
    return nodes, len(maps)


# (outer degree, inner degree, inner faces, simple, outer simple, k): (nodes, maps).
# Weaker pruning gives the same maps from more nodes, so the nodes are pinned.
SEARCH_NODES = {
    (3, 3, 11, True, True, 1): (2583, 399),
    (4, 4, 6, True, True, 1): (2643, 408),
    (6, 4, 6, False, True, 3): (48, 18),
    (4, 4, 8, True, True, 2): (402, 110),
    (4, 4, 8, True, True, 1): (61294, 9614),
    (4, 4, 4, False, False, 1): (9790, 2916),
    (4, 4, 4, False, True, 1): (2735, 810),
}


@pytest.mark.parametrize("case", SEARCH_NODES)
def test_search_node_counts(case):
    assert search_nodes(*case) == SEARCH_NODES[case]


@functools.cache
def serial_buffer(profile):
    """The sigmas of run_census(*profile) in one process."""
    return kernel.run_census(*profile).buffer.tobytes()


@pytest.fixture
def forks(monkeypatch):
    """Each os.fork this process makes while the test runs."""
    calls = []
    real = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(None) or real())
    return calls


# (outer degree, inner degree, inner faces, simple, outer simple): simple,
# outer-simple and plain families, and one without maps
SPLIT_FAMILIES = [
    (4, 4, 8, True, True), (4, 4, 7, True, True), (3, 3, 11, True, True),
    (4, 4, 6, False, True), (3, 3, 9, False, True), (4, 4, 5, False, False),
    (2, 4, 5, True, True),
]


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("profile", SPLIT_FAMILIES)
def test_a_split_search_emits_the_serial_bytes(monkeypatch, forks, profile, jobs):
    monkeypatch.setattr(kernel, "SPLIT_MIN_NODES", 1)  # split even the small families
    assert kernel.run_census(*profile, jobs=jobs).buffer.tobytes() == serial_buffer(profile)
    assert len(forks) == jobs - 1


@pytest.mark.parametrize("jobs", [2, 3])
@pytest.mark.parametrize("profile", [(4, 4, 5, True, True), (4, 4, 8, True, True, 2)],
                         ids=["below the gate", "k = 2"])
def test_a_small_or_rotation_search_forks_nothing(monkeypatch, profile, jobs):
    monkeypatch.setattr(os, "fork", mock.Mock(side_effect=AssertionError("forked")))
    assert kernel.run_census(*profile, jobs=jobs).buffer.tobytes() == serial_buffer(profile)


def test_a_dead_worker_fails_the_split_search(monkeypatch):
    parent, emit = os.getpid(), kernel._emit
    monkeypatch.setattr(kernel, "_emit",
                        lambda *a: emit(*a) if os.getpid() == parent else os._exit(3))
    with pytest.raises(kernel.WorkerDied, match=r"^a census worker process died \(exit status 3\)$"):
        kernel.run_census(4, 4, 7, True, True, jobs=2)


def test_odd_dart_count_yields_nothing():
    assert len(kernel.run_census(3, 3, 2)) == 0


def test_families_past_256_darts_are_refused_before_the_search():
    # a sigma holds one byte per dart.  The outer-simple one-face families
    # are empty, so only a refusal before the search can tell 258 from 256.
    assert len(kernel.run_census(256, 4, 0, require_outer_simple=True)) == 0
    with pytest.raises(ValueError, match="258 darts exceeds the kernel's limit of 256 darts"):
        kernel.run_census(258, 4, 0, require_outer_simple=True)
    with pytest.raises(ValueError, match="limit of 256 darts"):
        kernel.run_census(258, 4, 0)
    with pytest.raises(ValueError, match="limit of 256 darts"):
        census.rooted_family(2, 4, 64)


def test_census_is_one_packed_sequence_of_sigmas():
    sigmas = kernel.run_census(4, 4, 3)
    listed = list(sigmas)
    assert len(sigmas) == len(listed) == 378
    assert all(type(s) is bytes and len(s) == 16 for s in listed)
    assert sigmas[0] == listed[0] and sigmas[-1] == listed[-1] and sigmas[-378] == listed[0]
    for i in (378, -379):
        with pytest.raises(IndexError):
            sigmas[i]
    assert sigmas.buffer.readonly and sigmas.buffer.tobytes() == b"".join(listed)


def test_benchmark_environment_probe_reads_compiled_false():
    # the probe perfbench/run.py runs before it times anything
    code = "import json, mapquot.cli, mapquot.kernel as k; print(json.dumps(k.COMPILED))"
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) is False
