"""From text to token ids: the windowed tokenizer and the interner that
both parsers share.

Text is read as its UTF-8 bytes (:func:`codes`), which are cut into
windows of about ``WINDOW`` bytes, each ending right after a ``'\\n'``.
:func:`tokenize_pairs` finds each window's tokens and lines as arrays, and
an :class:`Interner` gives each token the id of its distinct byte
sequence (by a salted hash table that no text can be written to slow,
its keys made in the same numpy calls at any token length), so no
Python string is made per token and temporaries are bounded by the window.
"""

from __future__ import annotations

import codecs
import secrets
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ParseError

# The characters str.split() splits on and those str.splitlines() ends a
# line at ("\r\n" counts once), as lookup tables over all code points.
WHITESPACE = ("\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
              "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000")
LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_IS_SPACE, _IS_BREAK = np.zeros((2, 0x110000), dtype=bool)
_IS_SPACE[list(map(ord, WHITESPACE))] = True
_IS_BREAK[list(map(ord, LINE_BREAKS))] = True
# The bytes that lead the UTF-8 sequences of the other spaces: 2 bytes
# after 0xC2 (U+0085, U+00A0), 3 after 0xE1, 0xE2 or 0xE3.
_LEADS = np.zeros(256, dtype=bool)
_LEADS[[0xC2, 0xE1, 0xE2, 0xE3]] = True

# Bytes per parse window (cut after a '\n').  The parsers tokenize and
# intern one window at a time, so their per-byte and per-token temporaries
# are bounded by the window, not the file.  256 KiB, as measured on the
# benchmark's web-partition files (1.1 MB) and the n=1M generator probe
# (116 MB of edges): a benchmark `rank` child peaks at 51.1 MiB with
# windows of 64 to 512 KiB, 53.5 MiB with 1 MiB ones and 53.9 MiB with one
# window for the file; 64 KiB windows take 4.9-5.0 s on the probe's edges
# against 4.0-4.4 s, for the same peak.
WINDOW = 1 << 18
# Tokens per intern batch (and links per batch of the CSR build and of the
# corrector's gate): bounds the interner's temporaries also in a window
# grown to hold a long line.  A 256 KiB window holds about 46k tokens of
# web-partition's edges and 33k of the probe's, so it is one batch.
BATCH = 1 << 16


def codes(text: str | bytes) -> bytes:
    """The UTF-8 bytes of ``text``, the codes the parsers read.  A ``str``
    is encoded once (a lone surrogate as its 3 bytes).  ``bytes`` are used
    as they are, without a copy, once non-ASCII ones are checked by
    decoding them a window at a time and dropping the text: those that
    are not valid UTF-8 raise :class:`ParseError`."""
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    if not text.isascii():
        decoder, view = codecs.getincrementaldecoder("utf-8")(), memoryview(text)
        for lo in range(0, len(text), WINDOW):
            pending = len(decoder.getstate()[0])  # an unfinished sequence's bytes
            try:
                decoder.decode(view[lo:lo + WINDOW], final=lo + WINDOW >= len(text))
            except UnicodeDecodeError as exc:
                at = lo - pending + exc.start
                raise ParseError(f"not valid UTF-8 at byte {at}", byte=at) from None
    return text


def _decode(code: np.ndarray) -> list[str]:
    """The strings of ``code``, each followed by one space."""
    return code.tobytes().decode("utf-8", "surrogatepass").split(" ")[:-1]


# Per number of bytes left in a word (0 up to 8, a whole word): the mask
# that keeps them, and the terminator placed right after them.  Above the
# terminator a word is 0, so its highest set bit marks where the token
# ends, and a token's words also encode its length: "a" != "a\x00".
_MASK = np.array([(1 << 8 * r) - 1 for r in range(8)] + [2**64 - 1], dtype=np.uint64)
_TERMINATOR = np.array([1 << 8 * r + 7 for r in range(8)] + [0], dtype=np.uint64)


@dataclass(frozen=True)
class Tokens:
    """Tokens as byte offsets: token ``i`` is ``code[start[i]:end[i]]``.

    ``code`` holds the bytes (uint8), and then at least 8 more, so that 8
    bytes can be read at any token's end.
    """

    code: np.ndarray
    start: np.ndarray
    end: np.ndarray

    def __getitem__(self, which: slice | np.ndarray) -> Tokens:
        return Tokens(self.code, self.start[which], self.end[which])

    def read(self, at: np.ndarray, rest: np.ndarray | int) -> np.ndarray:
        """The words at byte offsets ``at``, cut to ``rest`` bytes and terminated."""
        view = np.ndarray((self.code.size - 7,), dtype="<u8", buffer=self.code, strides=(1,))
        w = view[at]
        w &= _MASK[rest]
        w |= _TERMINATOR[rest]
        return w

    def words(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every word of the tokens, token after token, in one gather (a token
        of ``s`` bytes has ``s // 8 + 1``, the last terminated, so equal words
        mean equal tokens), where each token's words begin, and their count."""
        size = self.end - self.start
        count = size // 8 + 1
        first = np.cumsum(count) - count
        at = np.arange(0, 8 * count.sum(), 8)
        at += np.repeat(self.start - 8 * first, count)
        words, last = self.read(at, 8), first + count - 1
        words[last] = self.read(at[last], size % 8)
        return words, first, count

    def joined(self) -> np.ndarray:
        """The tokens' bytes, each followed by a space, in one piece: their
        words, each token's last cut after the byte that becomes its space."""
        words, first, count = self.words()
        keep = np.full(words.size, 0x0101010101010101, dtype="<u8")  # 1 at each byte kept
        keep[first + count - 1] &= _MASK[(self.end - self.start) % 8 + 1]
        chars = words.view(np.uint8)[keep.view(bool)]
        chars[np.cumsum(self.end - self.start + 1) - 1] = ord(" ")
        return chars

    def strings(self) -> list[str]:
        return _decode(self.joined())


def _window_end(text: bytes, lo: int) -> int:
    """The end of the window that starts at ``lo``: right after the last
    ``'\\n'`` in its first ``WINDOW`` bytes, else right after the next
    ``'\\n'``, else the end of the text."""
    hi = lo + WINDOW
    if hi >= len(text):
        return len(text)
    return text.rfind(b"\n", lo, hi) + 1 or text.find(b"\n", hi) + 1 or len(text)


def _wide_spaces(code: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The offsets of the bytes of the non-ASCII spaces in ``code[:size]``,
    and a code point for each: its character's for a sequence's first byte,
    ``' '`` for the others, so that only the first can end a line."""
    lead = np.flatnonzero(_LEADS[code[:size]])
    at = lead[:, None] + np.arange(3)  # up to 2 bytes past the window, in its padding
    b = code[at].astype(np.int32) & 0x3F
    two = b[:, 0] == 0x02  # led by 0xC2
    point = np.where(two, b[:, 0] << 6 | b[:, 1], (b[:, 0] & 0x0F) << 12 | b[:, 1] << 6 | b[:, 2])
    space = _IS_SPACE[point]
    whole = (np.arange(3) < 3 - two[:, None])[space]  # the sequence's bytes
    return at[space][whole], np.where(np.arange(3) == 0, point[:, None], 0x20)[space][whole]


def _split(code: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The tokens of ``code[:size]``, the runs of non-space bytes: their
    start and end offsets, the 0-based line of each, and the number of
    line breaks."""
    window = code[:size]
    spaces = np.flatnonzero(window <= 32)  # every ASCII space is <= 32: look up only those
    c = window[spaces]
    space = _IS_SPACE[c]
    if not space.all():
        spaces, c = spaces[space], c[space]
    if window.max() >= 0xC2:  # may hold a lead byte of another space
        at, point = _wide_spaces(code, size)
        spaces, c = np.concatenate((spaces, at)), np.concatenate((c, point))
        order = np.argsort(spaces, kind="stable")  # a merge of the two sorted runs
        spaces, c = spaces[order], c[order]
    # With a space before and after the window, a token lies between two
    # spaces more than one byte apart.
    index = np.int32 if size < 2**31 else np.int64
    spaces = np.concatenate(([-1], spaces, [size]), dtype=index)
    c = np.concatenate((np.uint8([0x20]), c, np.uint8([0x20])))
    step = np.diff(spaces)
    gap = np.flatnonzero(step > 1)
    starts, ends = spaces[:-1][gap], spaces[1:][gap]
    starts += 1
    breaks = _IS_BREAK[c]
    breaks[1:] &= (c[1:] != 0x0A) | (c[:-1] != 0x0D) | (step != 1)  # "\r\n" ends one line
    del spaces, c, step
    line = np.cumsum(breaks, dtype=index)
    return starts, ends, line[gap], int(line[-1])


def tokenize_pairs(text: bytes, expected: str
                   ) -> Iterator[tuple[Tokens, np.ndarray, ParseError | None]]:
    """Tokens ``[left, right, left, right, ...]`` of the ``left right`` lines
    of the UTF-8 ``text`` (see :func:`codes`), one window at a time.

    Lines are those of ``str.splitlines``; blank lines and lines whose first
    token starts with ``#`` are skipped.  A window ends right after the
    last ``'\\n'`` in its first ``WINDOW`` bytes (or, when there is none,
    the next one), so it never splits a line, and a text without ``'\\n'``
    is one window.  Each yields its tokens, over its bytes followed by at
    least 8 more, as int32 offsets; the 1-based numbers of its lines; and
    the :class:`ParseError` for the first malformed line (or ``None``).
    That error ends the windows and drops its later lines: the caller
    raises it unless it finds an error on an earlier line.

    Tokens are found from the window's whitespace positions, so no Python
    string is made per token or line.
    """
    code = np.frombuffer(text, dtype=np.uint8)
    lo = lines = 0
    while lo < code.size:
        hi = _window_end(text, lo)
        window = code[lo:hi + 8]
        if hi + 8 > code.size:  # the text's last bytes: pad with spaces
            window = np.concatenate((window, np.full(hi + 8 - code.size, 0x20, np.uint8)))
        start, end, line, breaks = _split(window, hi - lo)
        opens = np.ones(line.size, dtype=bool)  # whether a token opens its line
        np.not_equal(line[1:], line[:-1], out=opens[1:])
        first = np.flatnonzero(opens)  # the first token of each line
        del opens
        count = np.diff(first, append=line.size)
        keep = window[start[first]] != ord("#")
        error = None
        malformed = np.flatnonzero(keep & (count != 2))
        if malformed.size:
            bad = malformed[0]
            line_no = lines + int(line[first[bad]]) + 1
            error = ParseError(f"line {line_no}: expected '{expected}', "
                               f"got {count[bad]} token(s)", line=line_no)
            keep[bad:] = False
        if not keep.all():
            kept = np.repeat(keep, count)
            start, end = start[kept], end[kept]
        yield Tokens(window, start, end), line[first[keep]] + np.int64(lines + 1), error
        if error is not None:
            return
        lo, lines = hi, lines + breaks


# A hash key has its top two bits set, which no word of a token shorter
# than a word has (its top byte is 0x00 or the terminator 0x80), so equal
# keys are equal words unless both are hashes.
_HASHED = np.uint64(0xC000000000000000)
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)  # splitmix64's step


def _mix(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer, in place: a bijection of words that spreads each bit."""
    t = z >> np.uint64(30)
    z ^= t
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def _keys(tokens: Tokens, salt: np.uint64) -> np.ndarray:
    """Each token's key: its word when shorter than one, else a hash of ``salt``
    and its words (see :class:`Interner`), for the whole batch at once."""
    size = tokens.end - tokens.start
    key = tokens.read(tokens.start, np.minimum(size, 8))
    longer = np.flatnonzero(size >= 8)
    if longer.size:
        words, first, count = tokens[longer].words()
        place = np.arange(1, words.size + 1, dtype=np.uint64)  # each word's place, from 1
        place -= np.repeat(first.astype(np.uint64), count)
        place *= _MULTIPLIER
        place += salt
        words ^= _mix(place)
        key[longer] = np.add.reduceat(_mix(words), first) | _HASHED
    return key


def _same(a: Tokens, b: Tokens) -> bool:
    """Whether ``a[i] == b[i]`` for every ``i``: by size, then by all words at once."""
    return (np.array_equal(a.end - a.start, b.end - b.start)
            and np.array_equal(a.words()[0], b.words()[0]))


def _grow(buffer: np.ndarray, size: int) -> np.ndarray:
    """``buffer``, or when it holds fewer than ``size`` items a copy at
    least twice as long."""
    if buffer.size >= size:
        return buffer
    grown = np.empty(max(size, 2 * buffer.size), dtype=buffer.dtype)
    grown[:buffer.size] = buffer
    return grown


class Interner:
    """Ids for distinct byte sequences, in first-appearance order, given a
    window of tokens at a time.

    Each token is packed straight from its byte array (UTF-8 for every text,
    so one interner takes tokens of any text) into 64-bit words and a
    terminator (:meth:`Tokens.words`).  A token shorter than a word is keyed
    by its word; a longer one by the sum mod 2^64 of its words, each XORed
    with the salt of its place in the token and mixed by a bijection
    (:func:`_mix`), the place salts being splitmix64's outputs from a random
    salt.  Two different sequences differ at some place, where their terms
    differ; a sum of salted, mixed terms has no ring identity to cancel
    that for every salt, as the Thue-Morse pairs have in a polynomial hash
    mod 2^64 whatever its odd base.  So a fixed pair shares a key for a tiny
    share of salts (2^-62 if the mix acts as a random function).

    A batch of up to ``BATCH`` tokens is sorted by key, equal neighbours
    form a group, and each group's key is looked up in an open-addressing
    table of the keys seen before, whose slots the salt also picks; a new
    group takes the next id, and its first token's bytes are stored, each
    sequence followed by a space.  Equal hash keys are confirmed by their
    words, within the batch and against the stored sequence; should two
    different sequences share one, a fresh salt is drawn, the table rebuilt
    from the stored sequences' keys and the batch interned again.  No string
    is made: the memory kept is the distinct sequences and keys.
    """

    def __init__(self):
        self.code = np.empty(64, dtype=np.uint8)
        self.start = np.zeros(64, dtype=np.int64)  # sequence i: code[start[i]:start[i + 1] - 1]
        self.count = 0
        self.salt = np.uint64(secrets.randbits(64))
        self._empty()

    @classmethod
    def of(cls, labels: Sequence[str]) -> Interner:
        """An interner holding ``labels``, distinct strings of any
        characters, as ids ``0, 1, ...``, their UTF-8 bytes stored as they
        are."""
        code = np.frombuffer(codes(" ".join(labels) + " " * 8), dtype=np.uint8)
        interner = cls()
        interner.code = code
        interner.start = np.zeros(len(labels) + 1, dtype=np.int64)
        space = np.flatnonzero(code == 0x20)
        if space.size == len(labels) + 7:  # no label holds a space: the first n end them
            interner.start[1:] = space[:len(labels)] + 1
        else:
            size = (len(codes(label)) for label in labels)
            np.cumsum(np.fromiter(size, dtype=np.int64, count=len(labels)) + 1,
                      out=interner.start[1:])
        interner.count = len(labels)
        interner._rehash(interner.salt)
        return interner

    def __len__(self) -> int:
        return self.count

    def strings(self) -> list[str]:
        """The distinct sequences, by id, as strings (each without spaces),
        decoded ``BATCH`` at a time: one wide character (4 bytes per
        character in a str) widens the text of its batch only."""
        bounds = self.start[:self.count:BATCH].tolist() + [int(self.start[self.count])]
        return [s for lo, hi in zip(bounds, bounds[1:]) for s in _decode(self.code[lo:hi])]

    def add(self, tokens: Tokens) -> np.ndarray:
        """Each token's id (int32), new sequences taking the next ids."""
        ids = np.empty(tokens.start.size, dtype=np.int32)
        for lo in range(0, ids.size, BATCH):
            batch = tokens[lo:lo + BATCH]
            while (got := self._intern(batch)) is None:
                self._rehash()
            ids[lo:lo + BATCH] = got
        return ids

    def _stored(self, ids: np.ndarray) -> Tokens:
        return Tokens(self.code, self.start[ids], self.start[ids + 1] - 1)

    def _store(self, new: Tokens) -> None:
        """Store ``new``'s sequences as the next ids."""
        if not new.start.size:
            return
        chars = new.joined()
        used, count = int(self.start[self.count]), self.count + new.start.size
        self.code = _grow(self.code, used + chars.size + 8)
        self.code[used:used + chars.size] = chars
        self.start = _grow(self.start, count + 1)
        np.cumsum(new.end - new.start + 1, out=self.start[self.count + 1:count + 1])
        self.start[self.count + 1:count + 1] += used
        self.count = count

    def _intern(self, batch: Tokens) -> np.ndarray | None:
        """The batch's ids, or None (nothing changed) when two sequences share a key."""
        key = _keys(batch, self.salt)
        order = np.argsort(key)
        key = key[order]
        new = np.empty(key.size, dtype=bool)  # starts a group
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        hashed = key[-1] >= _HASHED  # the batch has hash keys to confirm
        if hashed:
            same = np.flatnonzero(~new[1:] & (key[1:] >= _HASHED))
            if not _same(batch[order[same]], batch[order[same + 1]]):
                return None
        bounds = np.flatnonzero(new)
        del new
        first = np.minimum.reduceat(order, bounds)  # each group's first token
        key = key[bounds]
        slot = self._slots(key, None)
        group = self.slot_id[slot]  # each group's id, or -1
        if hashed:
            seen = np.flatnonzero((group >= 0) & (key >= _HASHED))
            if not _same(batch[first[seen]], self._stored(group[seen])):
                return None
        fresh = np.flatnonzero(group < 0)
        fresh = fresh[np.argsort(first[fresh])]
        group[fresh] = np.arange(self.count, self.count + fresh.size)
        self._store(batch[first[fresh]])
        self._put(key[fresh], group[fresh], slot[fresh])
        ids = np.empty(order.size, dtype=np.int32)
        ids[order] = np.repeat(group, np.diff(bounds, append=order.size))
        return ids

    def _rehash(self, salt: np.uint64 | None = None) -> None:
        """Rebuild the table from every stored sequence's key under ``salt``,
        by default a fresh random one.  A key two sequences share is held for
        one of them: a lookup of the other is told apart by its words, as a
        batch's is, and draws a fresh salt."""
        self.salt = np.uint64(secrets.randbits(64)) if salt is None else salt
        ids = np.arange(self.count, dtype=np.int32)
        key = [_keys(self._stored(ids[lo:lo + BATCH]), self.salt)  # a batch's temporaries
               for lo in range(0, self.count, BATCH)]
        self._empty()
        self._put(np.concatenate([np.empty(0, np.uint64), *key]), ids, None)

    def _empty(self) -> None:
        """Make the table an empty one over twice the stored count."""
        size = max(64, 1 << (2 * self.count).bit_length())
        self.slot_key = np.zeros(size, dtype=np.uint64)
        self.slot_id = np.full(size, -1, dtype=np.int32)

    def _slots(self, key: np.ndarray, slot: np.ndarray | None) -> np.ndarray:
        """Each key's slot in the table: the one holding it, or the free one
        where linear probing for it stops, probing from ``slot`` (by default
        the key's home slot, the top bits of its product with the salt made
        odd)."""
        mask = self.slot_id.size - 1
        if slot is None:
            shift = np.uint64(65 - self.slot_id.size.bit_length())
            slot = (key * (self.salt | np.uint64(1)) >> shift).astype(np.intp)
        todo = np.arange(key.size)
        while todo.size:
            at = slot[todo]
            taken = self.slot_id[at] >= 0
            taken[taken] = self.slot_key[at[taken]] != key[todo[taken]]
            todo = todo[taken]
            slot[todo] = (slot[todo] + 1) & mask
        return slot

    def _put(self, key: np.ndarray, ids: np.ndarray, slot: np.ndarray | None) -> None:
        """Put new keys at the free slots found for them (found here when
        ``slot`` is None); of keys that found the same one the last takes
        it, and the others probe on.  A table that would be over half full
        is first replaced by a larger empty one, and its keys put with the
        new ones."""
        if 2 * self.count > self.slot_id.size:
            held = self.slot_id >= 0
            key = np.concatenate((self.slot_key[held], key))
            ids = np.concatenate((self.slot_id[held], ids))
            self._empty()
            slot = None
        if slot is None:
            slot = self._slots(key, None)
        while key.size:
            self.slot_key[slot] = key
            self.slot_id[slot] = ids
            lost = self.slot_key[slot] != key
            key, ids = key[lost], ids[lost]
            slot = self._slots(key, slot[lost])
