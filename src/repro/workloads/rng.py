"""Bulk, bit-exact reproduction of CPython's ``random.Random`` stream.

The vectorized trace generators must produce *byte-identical* arrays to
the original one-instruction-at-a-time loops, and those loops draw from a
caller-provided ``random.Random``.  This module lets the generators pull
thousands of draws per numpy call while consuming the underlying
Mersenne-Twister word stream in exactly the order the scalar code would:

* :meth:`BulkRandom.random` returns the next *k* doubles, each built from
  two 32-bit words with MT19937's ``genrand_res53`` formula — the same
  values ``rng.random()`` would return, in the same order;
* :meth:`BulkRandom.randrange` replays CPython's
  ``_randbelow_with_getrandbits`` rejection loop (draw ``n.bit_length()``
  bits per attempt, retry while the value is >= ``n``), consuming exactly
  as many words as *k* scalar ``rng.randrange(n)`` calls would;
* :meth:`BulkRandom.randrange_var` does the same for a *sequence* of
  bounds (Sattolo shuffles draw ``randrange(i)`` for descending ``i``);
* :meth:`BulkRandom.peek_words` exposes the upcoming tempered words
  *without* committing them — the vectorized emitters decode a peeked
  window into instruction blocks and then commit exactly the words
  consumed via :meth:`BulkRandom.advance_words`.

State is captured from the ``random.Random`` at construction and written
back by :meth:`sync`, so bulk and scalar draws can be freely interleaved
across phase boundaries: after ``sync()`` the original object continues
the stream exactly where the bulk draws left off.

CPython's ``random.Random`` and ``numpy.random.MT19937`` implement the
same reference MT19937 (identical 624-word state layout, twist, temper,
and ``pos`` convention), so word generation is delegated to numpy's C
core by injecting the captured state into a ``MT19937`` bit generator and
reading ``random_raw`` — ~100x faster than twisting in Python and pinned
bit-exact by ``tests/test_trace_equivalence.py``.
"""

from __future__ import annotations

import random

import numpy as np

_N = 624

#: ``genrand_res53``: (a*2**26 + b) / 2**53 with a=word>>5, b=word>>6.
_RES53_SCALE = 1.0 / 9007199254740992.0
_RES53_SHIFT = np.uint64(67108864)


class BulkRandom:
    """Vectorized view over a ``random.Random``'s Mersenne-Twister stream.

    One numpy ``MT19937`` runs ahead of the committed position and fills
    a buffer of generated-but-uncommitted words, so a peek is a slice
    and a commit an index bump: an emitter can peek and commit window
    after window without ever re-seeding a generator.  The generator's
    state is snapshotted about every ``_MARK_EVERY`` words it produces,
    which is all :meth:`sync` needs to rebuild the state at the
    committed position.
    """

    #: minimum words generated per refill
    _CHUNK = 1 << 12
    #: generated words between state snapshots; bounds the regeneration
    #: in :meth:`sync` (one snapshot costs about as much as 10k words)
    _MARK_EVERY = 1 << 16

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        version, internal, gauss = rng.getstate()
        if version != 3:  # pragma: no cover - CPython has used 3 since 2.6
            raise ValueError(f"unsupported random.Random state version "
                             f"{version}")
        self._version = version
        self._gauss = gauss
        self._bg = np.random.MT19937(0)  # state replaced just below
        state = {"key": np.array(internal[:_N], dtype=np.uint32),
                 "pos": int(internal[_N])}
        self._bg.state = {"bit_generator": "MT19937", "state": state}
        #: committed words since construction
        self._pos = 0
        #: generated words ``[_buf_start, _buf_start + len(_buf))``
        self._buf = np.empty(0, dtype=np.uint64)
        self._buf_start = 0
        #: (word index, generator state there), ascending; the first
        #: mark is never after ``_pos``
        self._marks = [(0, state)]

    # -- word plumbing ------------------------------------------------------

    def _fill(self, end: int) -> None:
        """Generate words until the buffer reaches word index ``end``,
        dropping the committed prefix and marks no longer needed."""
        have = self._buf_start + len(self._buf)
        if have >= end:
            return
        if have - self._marks[-1][0] >= self._MARK_EVERY:
            self._marks.append((have, self._bg.state["state"]))
        fresh = self._bg.random_raw(max(end - have, self._CHUNK))
        self._buf = np.concatenate(
            (self._buf[self._pos - self._buf_start:], fresh))
        self._buf_start = self._pos
        while len(self._marks) > 1 and self._marks[1][0] <= self._pos:
            self._marks.pop(0)

    def peek_words(self, count: int) -> np.ndarray:
        """The next ``count`` tempered words *without* committing them.

        32-bit values in numpy's native ``uint64`` containers (no
        conversion pass); a view that later calls never overwrite.
        """
        if count <= 0:
            return np.empty(0, dtype=np.uint64)
        self._fill(self._pos + count)
        start = self._pos - self._buf_start
        return self._buf[start:start + count]

    def advance_words(self, count: int) -> None:
        """Commit ``count`` words (normally ones observed via peeking)."""
        if count > 0:
            self._fill(self._pos + count)
            self._pos += count

    def _take(self, count: int) -> np.ndarray:
        """The next ``count`` tempered words; consumption committed."""
        words = self.peek_words(count)
        self.advance_words(count)
        return words

    # -- draw primitives ----------------------------------------------------

    def random(self, k: int) -> np.ndarray:
        """The next ``k`` values of ``rng.random()`` as a float64 array."""
        if k <= 0:
            return np.empty(0, dtype=np.float64)
        words = self._take(2 * k)
        a = words[0::2] >> np.uint64(5)
        b = words[1::2] >> np.uint64(6)
        return (a * _RES53_SHIFT + b) * _RES53_SCALE

    def randrange(self, n: int, k: int) -> np.ndarray:
        """The next ``k`` values of ``rng.randrange(n)`` as int64.

        Replays the ``getrandbits``-rejection loop over the word stream:
        each attempt shifts one word down to ``n.bit_length()`` bits and
        rejects values ``>= n``, so word consumption matches the scalar
        calls exactly.
        """
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        if n <= 0:
            raise ValueError("empty range for randrange()")
        if int(n).bit_length() > 32:
            # getrandbits(>32) consumes several words per attempt; no
            # generator draws bounds that large, so keep the fast path.
            raise NotImplementedError("randrange bounds beyond 32 bits")
        shift = np.uint64(32 - int(n).bit_length())
        accepted: list = []
        have = 0
        consumed = 0
        while have < k:
            deficit = k - have
            # acceptance probability is n / 2**bits > 0.5, so a modest
            # overshoot nearly always finishes in one round.
            chunk = max(64, deficit + (deficit >> 2) + 8)
            cand = self.peek_words(consumed + chunk)[consumed:] >> shift
            ok = np.flatnonzero(cand < n)
            if have + ok.size >= k:
                last = ok[k - have - 1]
                accepted.append(cand[ok[: k - have]])
                consumed += int(last) + 1
                have = k
            else:
                accepted.append(cand[ok])
                consumed += chunk
                have += ok.size
        self.advance_words(consumed)
        return np.concatenate(accepted).astype(np.int64)

    def randrange_var(self, bounds) -> np.ndarray:
        """``rng.randrange(n)`` for each ``n`` in ``bounds`` (varying)."""
        out = np.empty(len(bounds), dtype=np.int64)
        buf: list = []
        bi = 0
        consumed = 0
        for j, n in enumerate(bounds):
            n = int(n)
            if n <= 0 or n.bit_length() > 32:
                raise ValueError(f"unsupported randrange bound {n}")
            shift = 32 - n.bit_length()
            while True:
                if bi == len(buf):
                    buf = self.peek_words(consumed + 4096)[consumed:].tolist()
                    bi = 0
                word = buf[bi]
                bi += 1
                consumed += 1
                r = word >> shift
                if r < n:
                    out[j] = r
                    break
        self.advance_words(consumed)
        return out

    # -- state round trip ---------------------------------------------------

    def sync(self) -> None:
        """Write the advanced state back into the wrapped ``Random``.

        Rebuilds the generator state at the committed position from the
        nearest snapshot (about ``_MARK_EVERY`` words of regeneration); the
        buffered look-ahead is dropped, and later draws continue from
        the same position.
        """
        mark, state = next(m for m in reversed(self._marks)
                           if m[0] <= self._pos)
        self._bg.state = {"bit_generator": "MT19937", "state": state}
        if self._pos > mark:
            self._bg.random_raw(self._pos - mark, output=False)
        state = self._bg.state["state"]
        self._marks = [(self._pos, state)]
        self._buf = np.empty(0, dtype=np.uint64)
        self._buf_start = self._pos
        internal = tuple(int(x) for x in state["key"]) + (int(state["pos"]),)
        self._rng.setstate((self._version, internal, self._gauss))
