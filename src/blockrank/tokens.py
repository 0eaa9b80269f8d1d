"""From text to token ids: the windowed tokenizer and the interner that
both parsers share.

Text is read as its UTF-8 bytes, from a ``str``, ``bytes`` or a binary
file (:class:`Source`), into one reused buffer a window of about
``WINDOW`` bytes at a time, each window ending right after a ``'\\n'`` and
the partial line after it carried over to the next read.
:func:`tokenize_pairs` finds each window's tokens and lines as arrays, and
an :class:`Interner` gives each token the id of its distinct byte
sequence (by a salted hash table that no text can be written to slow,
its keys made in the same numpy calls at any token length), so no
Python string is made per token, the file is never held whole, and
temporaries are bounded by the window.
"""

from __future__ import annotations

import codecs
import io
import os
import secrets
import stat
from dataclasses import dataclass
from typing import BinaryIO, Iterator, NamedTuple, Sequence

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

# Bytes per parse window (cut after a '\n').  The parsers read, tokenize
# and intern one window at a time into one reused buffer, so it and their
# per-byte and per-token temporaries are bounded by the window, not the
# file.  256 KiB, as measured on the benchmark's web-partition files
# (1.1 MB) and the n=1M generator probe (116 MB of edges): a benchmark
# `rank` child peaks at 51.1 MiB with windows of 64 to 512 KiB, 53.5 MiB
# with 1 MiB ones and 53.9 MiB with one window for the file; 64 KiB
# windows take 4.9-5.0 s on the probe's edges against 4.0-4.4 s, for the
# same peak.
WINDOW = 1 << 18
# Tokens per intern batch (and links per batch of the CSR build and of the
# corrector's gate): bounds the interner's temporaries also in a window
# grown to hold a long line.  A 256 KiB window holds about 46k tokens of
# web-partition's edges and 33k of the probe's, so it is one batch.  A
# batch is sorted with each token's index in the low 16 bits of its sort
# word, so it holds at most 1 << 16 tokens (`Interner._sort` raises on
# more); half that measured 0.3 MiB less peak on web-partition but a
# slower parse (see Interner).
BATCH = 1 << 16


class Source(NamedTuple):
    """UTF-8 bytes to read a window at a time: a binary ``stream``, the
    number of bytes left in it when that is known (``None`` for a pipe),
    whether they are checked to be UTF-8 (a ``str``'s are not: they are its
    encoding, a lone surrogate as its 3 bytes), and whether a leading
    byte-order mark is dropped (not part of the first label; error offsets
    still count it)."""

    stream: BinaryIO
    size: int | None
    checked: bool
    mark: bool = False

    @classmethod
    def of(cls, text: str | bytes | BinaryIO | Source, *, mark: bool = False) -> Source:
        """``text``'s bytes: a ``str`` encoded once, ``bytes`` read in
        place, a binary file from where it stands."""
        if isinstance(text, Source):
            return text
        if isinstance(text, str):
            text = text.encode("utf-8", "surrogatepass")
            return cls(io.BytesIO(text), len(text), False, mark)
        if isinstance(text, (bytes, bytearray)):
            return cls(io.BytesIO(text), len(text), True, mark)
        try:
            info = os.fstat(text.fileno())
        except (AttributeError, OSError):  # no file descriptor
            return cls(text, None, True, mark)
        size = info.st_size - text.tell() if stat.S_ISREG(info.st_mode) else None
        return cls(text, size, True, mark)


def _check(decoder: codecs.IncrementalDecoder, view, at: int, final: bool) -> None:
    """Decode ``view``, the bytes from offset ``at`` on, after those
    ``decoder`` has seen, and drop the text: raise :class:`ParseError`
    naming the offset of the first byte that is not UTF-8."""
    pending = len(decoder.getstate()[0])  # an unfinished sequence's bytes
    try:
        decoder.decode(view, final=final)
    except UnicodeDecodeError as exc:
        at += exc.start - pending
        raise ParseError(f"not valid UTF-8 at byte {at}", byte=at) from None


def codes(text: str | bytes) -> bytes:
    """The UTF-8 bytes of ``text``.  A ``str`` is encoded once (a lone
    surrogate as its 3 bytes).  ``bytes`` are returned as they are once
    the parsers' reader (:func:`_windows`) has checked them: those that are
    not valid UTF-8 raise :class:`ParseError`."""
    if isinstance(text, str):
        return text.encode("utf-8", "surrogatepass")
    for _ in _windows(Source.of(text)):
        pass
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


def _windows(source: Source) -> Iterator[tuple[np.ndarray, int, int]]:
    """``source``'s bytes a window at a time, read into one reused buffer:
    each window as ``(code, size, top)``, its bytes ``code[:size]``, then at
    least 8 more (spaces after the last window), and its largest byte.

    A window ends right after the last ``'\\n'`` in its first ``WINDOW``
    bytes, else right after the next ``'\\n'`` (the buffer doubled until it
    holds that line), else at the end; the bytes after it are moved to the
    front of the buffer and the next read appends to them.  Checked bytes
    are decoded window by window, from the first window that is not ASCII
    on, and an error names the byte's offset in the source.  ``code`` is
    the buffer itself: it holds the window only until the next one is
    read.
    """
    buffer = bytearray(WINDOW + 9)  # a window, a byte that tells it from the last, 8 to pad
    code = np.frombuffer(buffer, dtype=np.uint8)
    held = offset = 0
    ended, decoder, mark = False, None, source.mark
    while True:
        while not ended and held <= WINDOW:
            got = source.stream.readinto(code[held:WINDOW + 1])
            ended, held = not got, held + got
        if mark:  # the first read, at least 3 bytes unless the source is shorter
            mark = False
            if buffer.startswith(b"\xef\xbb\xbf", 0, held):
                offset, held = 3, held - 3
                code[:held] = code[3:held + 3]
                continue
        if not held:
            return
        hi = held
        if held > WINDOW:
            hi = buffer.rfind(b"\n", 0, WINDOW) + 1 or buffer.find(b"\n", WINDOW, held) + 1
            while not hi and not ended:  # a line longer than a window: read to its end
                if held + 8 == code.size:
                    buffer = bytearray(2 * code.size)
                    np.frombuffer(buffer, dtype=np.uint8)[:held] = code[:held]
                    code = np.frombuffer(buffer, dtype=np.uint8)
                got = source.stream.readinto(code[held:-8])
                ended, held = not got, held + got
                hi = buffer.find(b"\n", held - got, held) + 1
            hi = hi or held
        code[held:held + 8] = 0x20
        top = int(code[:hi].max())
        if source.checked and top >= 0x80:
            decoder = decoder or codecs.getincrementaldecoder("utf-8")()
            _check(decoder, memoryview(buffer)[:hi], offset, ended and hi == held)
        yield code[:hi + 8], hi, top
        offset, held = offset + hi, held - hi
        code[:held] = code[hi:hi + held]


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


def _split(code: np.ndarray, size: int, wide: bool
           ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The tokens of ``code[:size]``, the runs of non-space bytes: their
    start and end offsets, the 0-based line of each, and the number of
    line breaks.  Only when ``wide`` (a byte from 0xC2 up) may the window
    hold a space that is not ASCII."""
    window = code[:size]
    spaces = np.flatnonzero(window <= 32)  # every ASCII space is <= 32: test only those
    c = window[spaces]
    space = (c - 9 <= 4) | (c >= 28)  # '\t' to '\r', and '\x1c' to ' '
    if not space.all():
        spaces, c = spaces[space], c[space]
    points = False  # whether c holds code points above 32, read from the tables
    if wide:
        at, point = _wide_spaces(code, size)
        if at.size:
            spaces, c = np.concatenate((spaces, at)), np.concatenate((c, point))
            order = np.argsort(spaces, kind="stable")  # a merge of the two sorted runs
            spaces, c, points = spaces[order], c[order], True
    # With a space before and after the window, a token lies between two
    # spaces more than one byte apart.
    index = np.int32 if size < 2**31 else np.int64
    spaces = np.concatenate(([-1], spaces, [size]), dtype=index)
    c = np.concatenate((np.uint8([0x20]), c, np.uint8([0x20])))
    step = np.diff(spaces)
    gap = np.flatnonzero(step > 1)
    starts, ends = spaces[:-1][gap], spaces[1:][gap]
    starts += 1
    # the line breaks: '\n' to '\r', and '\x1c' to '\x1e' among the bytes
    breaks = _IS_BREAK[c] if points else (c - 10 <= 3) | (c - 28 <= 2)
    breaks[1:] &= (c[1:] != 0x0A) | (c[:-1] != 0x0D) | (step != 1)  # "\r\n" ends one line
    del spaces, c, step
    line = np.cumsum(breaks, dtype=index)
    return starts, ends, line[gap], int(line[-1])


def tokenize_pairs(text: str | bytes | BinaryIO | Source, expected: str, *, numbered: bool = True
                   ) -> Iterator[tuple[Tokens, np.ndarray | None, ParseError | None]]:
    """Tokens ``[left, right, left, right, ...]`` of the ``left right`` lines
    of ``text``'s UTF-8 bytes (see :class:`Source`), one window at a time.

    Lines are those of ``str.splitlines``; blank lines and lines whose first
    token starts with ``#`` are skipped.  A window ends right after the
    last ``'\\n'`` in its first ``WINDOW`` bytes (or, when there is none,
    the next one), so it never splits a line, and a text without ``'\\n'``
    is one window; it is read from a file only when the one before has
    been handled (:func:`_windows`), so a bad byte in a later window is
    found after the errors of earlier ones.  Each yields its tokens, over
    its bytes followed by at least 8 more, as int32 offsets (valid until
    the next window is read); the 1-based numbers of its lines, unless not
    ``numbered``; and the :class:`ParseError` for the first malformed line
    (or ``None``).  That error ends the windows and drops its later lines:
    the caller raises it unless it finds an error on an earlier line.

    Tokens are found from the window's whitespace positions, so no Python
    string is made per token or line.
    """
    lines = 0
    for window, size, top in _windows(Source.of(text)):
        start, end, line, breaks = _split(window, size, top >= 0xC2)
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
        numbers = line[first[keep]] + np.int64(lines + 1) if numbered else None
        yield Tokens(window, start, end), numbers, error
        if error is not None:
            return
        lines += breaks


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
    """``buffer``, or when it holds fewer than ``size`` rows a copy at
    least twice as long."""
    if len(buffer) >= size:
        return buffer
    grown = np.empty((max(size, 2 * len(buffer)), *buffer.shape[1:]), dtype=buffer.dtype)
    grown[:len(buffer)] = buffer
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

    A batch of up to ``BATCH`` tokens is put in order by one plain sort of
    each key's product with the salt, the token's index in its low 16 bits
    (:meth:`_sort`): equal keys form a group, in token order, and the
    groups come out in the order of their home slots in an open-addressing
    table of the keys seen before, which the product's top bits pick, so
    the table is probed in one ascending sweep.  (Two keys that share the
    product's top 48 bits, which no text can force under a random salt,
    send their batch to a stable argsort.)  A new group takes the next id,
    and its first token's bytes are stored, each sequence followed by a
    space.  Equal hash keys are confirmed by their
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
        order, key, bounds, slot = self._sort(_keys(batch, self.salt))
        hashed = key.max() >= _HASHED  # the batch has hash keys to confirm
        if hashed:
            same = np.flatnonzero((key[1:] == key[:-1]) & (key[1:] >= _HASHED))
            if not _same(batch[order[same]], batch[order[same + 1]]):
                return None
        first = order[bounds]  # each group's first token: indices ascend within a group
        key = key[bounds]
        slot = self._slots(key, slot)
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

    def _sort(self, key: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """``key`` ordered so that equal keys lie together, in token order:
        that order, the ordered keys, where each run of equal keys starts,
        and the runs' home slots (``None`` when they are left to
        :meth:`_slots`).

        One plain sort of words: each key's product with the salt made odd,
        its low 16 bits replaced by the token's index (``BATCH`` tokens at
        most).  The products' top bits are the keys' home slots, so the runs
        come out in slot order and the table is probed in one ascending
        sweep.  Should two different keys share the top 48 bits, which no
        text can force as the salt is random, the batch is put in key order
        by a stable argsort instead."""
        if key.size > 1 << 16:
            raise ValueError(f"a batch of {key.size} tokens: at most 2^16 indices fit a sort word")
        word = key * (self.salt | np.uint64(1))
        word &= np.uint64(0xFFFFFFFFFFFF0000)
        np.bitwise_or(word, np.arange(key.size, dtype=np.uint16), out=word)
        word.sort()
        order = np.empty(key.size, dtype=np.int32)
        np.bitwise_and(word, np.uint64(0xFFFF), out=order, casting="unsafe")
        word >>= np.uint64(16)
        new = np.empty(key.size, dtype=bool)  # starts a run of one 48-bit prefix
        new[:1] = True
        np.not_equal(word[1:], word[:-1], out=new[1:])
        bounds = np.flatnonzero(new)
        shift = np.uint64(49 - self.slot_id.size.bit_length())
        slot = (word[bounds] >> shift).astype(np.intp)
        key = np.take(key, order, out=word, mode="clip")  # unbuffered, in place of the words
        np.not_equal(key[1:], key[:-1], out=new[1:])
        if np.count_nonzero(new) == bounds.size:
            return order, key, bounds, slot
        by_key = np.argsort(key, kind="stable")  # keeps token order among equal keys
        order, key = order[by_key], key[by_key]
        np.not_equal(key[1:], key[:-1], out=new[1:])
        return order, key, np.flatnonzero(new), None

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
