"""One differential harness: a fast path against its reference.

Every fast path in the package (the bit-parallel and batched distance
kernels, the NumPy longest-common-substring rows, the vectorised q-gram
min-hash, the vectorised channel sweep) has a plain reference it must
match bit for bit.  :func:`assert_differential` draws inputs from a
Hypothesis strategy and checks ``fast(*args)`` against
``reference(*args)`` on each one; :func:`assert_same` is the same check
for one fixed input.  A raised exception is an outcome too: where the
reference raises, the fast path must raise the same type.

The shared strategies cover the degenerate inputs every fast path has to
survive: empty strings, lengths 1/109/110/111/1000, and the non-ACGT
symbols ``N``, ``-``, ``é`` and ``🧬`` (outside ASCII and outside the
Basic Multilingual Plane).

Size-based dispatch is forced from a test by patching the module
constant that decides it, through :func:`patched`.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

#: ACGT plus non-ACGT symbols, one outside ASCII and one outside the BMP.
SYMBOLS = "ACGTN-é🧬"

#: Degenerate and boundary strand lengths: around the paper's 110 nt
#: (and the 64-bit word boundaries below it), plus one long strand.
EDGE_LENGTHS = (0, 1, 109, 110, 111, 1000)


def noisy(text: str, seed: int, rate: float, alphabet: str = SYMBOLS) -> str:
    """``text`` through a uniform IDS channel over ``alphabet``."""
    rng = random.Random(seed)
    out: list[str] = []
    for symbol in text:
        draw = rng.random()
        if draw < rate:
            continue
        if draw < 2 * rate:
            out.append(rng.choice(alphabet))
            continue
        out.append(symbol)
        if draw < 3 * rate:
            out.append(rng.choice(alphabet))
    return "".join(out)


def strands(alphabet: str = SYMBOLS) -> st.SearchStrategy[str]:
    """Short free-form strings, or a strand of one of the edge lengths."""
    return st.one_of(
        st.text(alphabet=st.sampled_from(alphabet), max_size=24),
        st.builds(
            lambda length, seed: "".join(
                random.Random(seed).choices(alphabet, k=length)
            ),
            st.sampled_from(EDGE_LENGTHS),
            st.integers(0, 2**16),
        ),
    )


@st.composite
def pairs(draw, alphabet: str = SYMBOLS) -> tuple[str, str]:
    """Two strands: equal, a noisy copy, or unrelated (either order)."""
    first = draw(strands(alphabet))
    kind = draw(st.sampled_from(("equal", "noisy", "unrelated")))
    if kind == "equal":
        second = first
    elif kind == "noisy":
        second = noisy(
            first,
            draw(st.integers(0, 2**16)),
            draw(st.sampled_from((0.01, 0.05, 0.2))),
            alphabet,
        )
    else:
        second = draw(strands(alphabet))
    return (second, first) if draw(st.booleans()) else (first, second)


def patched(fn: Callable, target, name: str, value) -> Callable:
    """``fn`` run with ``target.name`` temporarily set to ``value``."""

    def run(*args):
        with mock.patch.object(target, name, value):
            return fn(*args)

    return run


def _outcome(fn: Callable, args: tuple):
    try:
        return "returned", fn(*args)
    except Exception as error:  # noqa: BLE001 - the type is the outcome
        return "raised", type(error)


def assert_same(reference: Callable, fast: Callable, *args) -> None:
    """``fast(*args)`` returns (or raises) what ``reference(*args)`` does."""
    expected = _outcome(reference, args)
    assert _outcome(fast, args) == expected, args


def assert_differential(
    reference: Callable,
    fast: Callable,
    inputs: st.SearchStrategy[tuple],
    max_examples: int = 60,
) -> None:
    """:func:`assert_same` on every argument tuple drawn from ``inputs``."""

    @settings(max_examples=max_examples, deadline=None)
    @given(inputs)
    def check(args: tuple) -> None:
        assert_same(reference, fast, *args)

    check()
