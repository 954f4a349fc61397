"""The search's random stream, ``eenas.pcg.PCG64Stream``, draws what
numpy's ``Generator`` draws from the same ``SeedSequence``, value for
value, on this interpreter and, through ``stream_digest.py``, on any other
without numpy; and a search and its resume never load ``numpy.random``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eenas
from eenas.pcg import PCG64Stream, seed_state
from eenas.search import _rng_for
from stream_digest import stream_digest
from test_cli import SMALL_RUN

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.dirname(os.path.dirname(eenas.__file__))


def numpy_stream(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k + 1,)))


DRAW = st.one_of(
    st.just(("random",)),
    st.tuples(st.just("integers"), st.integers(1, 2**32)),
    st.tuples(st.just("permutation"), st.integers(0, 64)),
)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.one_of(
        st.sampled_from((0, 2**32 - 1, 2**32, 2**64, 10**30)), st.integers(0, 10**30)
    ),
    k=st.integers(0, 100),
    program=st.lists(DRAW, max_size=40),
)
def test_the_stream_draws_what_numpys_generator_draws(seed, k, program):
    ours, theirs = _rng_for(seed, k), numpy_stream(seed, k)
    for op, *args in program:
        if op == "integers":
            args = [0, *args]
        got, want = getattr(ours, op)(*args), getattr(theirs, op)(*args)
        if op == "permutation":
            want = [int(v) for v in want]
            assert [type(v) for v in got] == [int] * len(want)
        elif op == "integers":
            want = int(want)
        assert got == want and type(got) is type(want)


@pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 2**64, 10**30])
@pytest.mark.parametrize("spawn_key", [(), (1,), (101,), (2**40, 3)])
def test_the_seed_state_is_the_seed_sequences(seed, spawn_key):
    want = np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(4, np.uint64)
    assert seed_state(seed, spawn_key) == [int(v) for v in want]


def test_a_range_of_one_draws_nothing():
    ours, theirs = _rng_for(9, 2), numpy_stream(9, 2)
    assert ours.integers(4, 5) == 4
    assert ours.random() == theirs.random()


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32 + 1)])
def test_a_range_outside_the_32_bit_draw_raises(low, high):
    with pytest.raises(ValueError):
        PCG64Stream(0).integers(low, high)


def test_a_negative_seed_raises():
    with pytest.raises(ValueError, match="non-negative"):
        PCG64Stream(-1)


def test_the_stream_digest_is_numpys_in_a_process_without_numpy():
    """``stream_digest.py`` digests ``PCG64Stream`` under a bare ``eenas``
    package, loading no numpy, and gets the digest of numpy's
    ``Generator`` in this process."""
    run = subprocess.run(
        [sys.executable, os.path.join(HERE, "stream_digest.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    assert run.stdout.split() == [stream_digest(numpy_stream), "False"]


def test_a_search_and_its_resume_load_no_numpy_random(tmp_path):
    """An oracle ``eenas search`` and a ``--resume`` from a cut in its last
    iteration, each in a fresh process, finish without loading
    ``numpy.random``. A numpy that loads it with ``import numpy``, as 1.x
    does, leaves the check nothing to guard, so it is skipped there."""
    bare = subprocess.run(
        [sys.executable, "-c", "import sys, numpy; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    if bare.stdout.split() == ["True"]:
        pytest.skip(f"numpy {np.__version__} loads numpy.random on import")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(dict(SMALL_RUN, nas=dict(SMALL_RUN["nas"], iterations=2))))
    out = tmp_path / "run"
    code = (
        "import sys; from eenas.cli import main; "
        "code = main(sys.argv[1:]); "
        "print(code, 'numpy.random' in sys.modules)"
    )

    def run(*flags):
        done = subprocess.run(
            [sys.executable, "-c", code, "search", "--config", str(config),
             "--out", str(out), *flags],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True,
            text=True, timeout=120, check=True,
        )
        return done.stdout.split()[-2:]

    assert run() == ["0", "False"]
    history = out / "history.jsonl"
    lines = history.read_text().splitlines(keepends=True)
    last = max(i for i, line in enumerate(lines) if '"iteration-summary"' in line)
    cut = max(i for i, line in enumerate(lines[:last]) if '"iteration-summary"' in line)
    history.write_text("".join(lines[: cut + 3]))
    assert run("--resume") == ["0", "False"]
