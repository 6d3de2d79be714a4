"""Shift-like approximations of sequence-space maps.

A map f on X = A^{Z+} that only reads n+k input symbols to determine n output
symbols can be rounded to a *shift-like* map g: chop the input into its first
n+k symbols t and tail x, and set g(t x) = gamma(t) x, where the table gamma
sends (n+k)-words to n-words.  Then shifting g's output n times equals
shifting the input n+k times, so g is conjugate (via explicit coding and
decoding maps) to the shift on the fine-word subshift, and every sliding
block code rounds to such a g with k = max(m-1, 1).

Words are stored packed: a word of length L over A = {0..N-1} is the integer
sum(digit_i * N^i), digit 0 first.  Python integers are arbitrary precision,
so long words cost nothing but bits.  The dynamics are integer arithmetic on
these values: a g-step is gamma[v mod N^(n+k)] + (v div N^(n+k)) N^n, a block
code reads v mod N^m at each window, and decoding adds each word's packed tail
at its place.  ``Word`` is the boundary type: callers give and receive words
as ``Word`` objects, checked once each, and no intermediate word is built.

Tables are dense lists indexed by packed value; their size N^(n+k) is guarded
by a configurable cell cap (TRACTABLE_DYN_CELL_CAP, default 2^24 entries).
Messages name such sizes as N^L, never as the expanded integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import two_alphabet
from .config import resolve_cell_cap
from .errors import CapExceededError, ValidationError, WordError
from .rationals import as_indices, format_rational
from .relation import tractability_json

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


def _check_alphabet(n_symbols: int):
    if n_symbols < 2:
        raise ValidationError("alphabet size must be at least 2")


def _check_ints(values, what: str):
    # type, not isinstance: a bool (JSON true and false too) is an int.
    if not set(map(type, values)) <= {int}:
        raise ValidationError(f"{what} must be integers")


def _check_table(table, n_symbols: int, width: int, entry_width: int,
                 what: str):
    """A dense table over the words of a width whose entries are packed
    words of entry_width symbols; N^width is checked before it is built."""
    if _power_upto(n_symbols, width, len(table)) != len(table):
        raise ValidationError(f"{what} table has {len(table)} entries, "
                              f"expected {n_symbols}^{width}")
    _check_ints(table, f"{what} entries")
    bound = n_symbols ** entry_width
    for entry in table:
        if not (0 <= entry < bound):
            raise ValidationError(f"{what} entry {entry} out of range")


def _power_upto(n_symbols: int, length: int, limit: int) -> int | None:
    """N^length if it is at most limit, else None.  For N >= 2 a length past
    limit.bit_length() settles it without building N^length."""
    if length > limit.bit_length():
        return None
    power = n_symbols ** length
    return power if power <= limit else None


@dataclass(frozen=True)
class Word:
    """Finite word over {0..N-1}, packed little-endian (digit 0 first)."""

    n_symbols: int
    length: int
    value: int

    def __post_init__(self):
        _check_ints((self.n_symbols, self.length, self.value),
                    "N, length and value of a word")
        _check_alphabet(self.n_symbols)
        if self.length < 0:
            raise ValidationError("word length must be >= 0")
        if not (0 <= self.value < self.n_symbols ** self.length):
            raise ValidationError(
                f"packed value out of range [0, {self.n_symbols}^{self.length})")

    @classmethod
    def from_digits(cls, n_symbols: int, digits) -> "Word":
        digits = as_indices(digits, "word digits must be integers")
        value = 0
        for pos, d in enumerate(digits):
            if not (0 <= d < n_symbols):
                raise ValidationError(f"digit {d} out of range for N={n_symbols}")
            value += d * n_symbols ** pos
        return cls(n_symbols, len(digits), value)

    @classmethod
    def from_string(cls, n_symbols: int, text: str) -> "Word":
        """Digit characters (0-9, a-z) for N <= 36; for larger N, decimal
        symbols joined by dots, e.g. "0.39.7"."""
        if n_symbols > len(_DIGITS):
            parts = text.split(".") if text else []
            if not all(p.isascii() and p.isdigit() for p in parts):
                raise ValidationError(f"bad word literal {text!r}")
            return cls.from_digits(n_symbols, map(int, parts))
        try:
            digits = [_DIGITS.index(ch) for ch in text]
        except ValueError:
            raise ValidationError(f"bad word literal {text!r}") from None
        return cls.from_digits(n_symbols, digits)

    def digits(self) -> tuple[int, ...]:
        out = []
        value = self.value
        for _ in range(self.length):
            out.append(value % self.n_symbols)
            value //= self.n_symbols
        return tuple(out)

    def prefix(self, length: int) -> "Word":
        if not (0 <= length <= self.length):
            raise ValidationError("prefix length out of range")
        return Word(self.n_symbols, length, self.value % self.n_symbols ** length)

    def drop(self, count: int) -> "Word":
        """Word with the first ``count`` symbols removed."""
        if not (0 <= count <= self.length):
            raise ValidationError("drop count out of range")
        return Word(self.n_symbols, self.length - count,
                    self.value // self.n_symbols ** count)

    def concat(self, other: "Word") -> "Word":
        if other.n_symbols != self.n_symbols:
            raise ValidationError("cannot concatenate words over different alphabets")
        return Word(self.n_symbols, self.length + other.length,
                    self.value + other.value * self.n_symbols ** self.length)

    def to_string(self) -> str:
        if self.n_symbols > len(_DIGITS):
            return ".".join(str(d) for d in self.digits())
        return "".join(_DIGITS[d] for d in self.digits())

    def __str__(self) -> str:
        return self.to_string()


def _capped_word_count(n_symbols: int, length: int) -> int:
    """N^length, the number of words of a length, within the cell cap."""
    _check_alphabet(n_symbols)
    limit = resolve_cell_cap()
    count = _power_upto(n_symbols, length, limit)
    if count is None:
        raise CapExceededError(
            f"{n_symbols}^{length} words exceed the cell cap {limit}")
    return count


def all_words(n_symbols: int, length: int) -> list[Word]:
    return [Word(n_symbols, length, value)
            for value in range(_capped_word_count(n_symbols, length))]


def _word_labels(n_symbols: int, length: int) -> list[list[str]]:
    """``Word.to_string`` of every word of each length 1 .. length, indexed
    by packed value, in one pass: label(d + N r) = digit d + label(r)."""
    _capped_word_count(n_symbols, length)
    if n_symbols > len(_DIGITS):
        digits, sep = [str(d) for d in range(n_symbols)], "."
    else:
        digits, sep = list(_DIGITS[:n_symbols]), ""
    labels = [digits]
    for _ in range(length - 1):
        labels.append([d + sep + rest for rest in labels[-1] for d in digits])
    return labels


@dataclass(frozen=True)
class SlidingBlockCode:
    """Symbol map phi: A^m -> A applied along a sliding window of width m."""

    n_symbols: int
    window: int
    phi: tuple[int, ...]

    def __post_init__(self):
        _check_ints((self.n_symbols, self.window), "N and m")
        _check_alphabet(self.n_symbols)
        if self.window < 1:
            raise ValidationError("window width must be >= 1")
        _check_table(self.phi, self.n_symbols, self.window, 1, "phi")

    def apply(self, word: Word) -> Word:
        """Image prefix: length shrinks by window - 1."""
        if word.n_symbols != self.n_symbols:
            raise ValidationError("word alphabet does not match the code")
        if word.length < self.window:
            raise WordError(
                f"need at least {self.window} symbols, got {word.length}")
        count = word.length - self.window + 1
        return Word(self.n_symbols, count, self._image(word.value, count))

    def _image(self, value: int, count: int) -> int:
        """Packed image of the first ``count`` windows of a packed value."""
        base, phi = self.n_symbols, self.phi
        window_mod = base ** self.window
        out = 0
        place = 1
        for _ in range(count):
            out += phi[value % window_mod] * place
            place *= base
            value //= base
        return out


@dataclass(frozen=True)
class ShiftLikeSystem:
    """Table dynamics g(t x) = gamma(t) x for (n+k)-words t."""

    n_symbols: int
    n: int
    k: int
    gamma: tuple[int, ...]

    def __post_init__(self):
        _check_ints((self.n_symbols, self.n, self.k), "N, n, k")
        _check_alphabet(self.n_symbols)
        if self.n < 1 or self.k < 1:
            raise ValidationError("n and k must be >= 1")
        # Every entry is an n-word, so g(t x) = gamma(t) x is shift
        # compatible by construction: dropping n symbols of the image
        # leaves x.
        _check_table(self.gamma, self.n_symbols, self.n + self.k, self.n,
                     "gamma")

    def _g(self, value: int) -> int:
        """g on a packed value: gamma of its leading (n+k)-block, then its
        tail."""
        fine = self.n_symbols ** (self.n + self.k)
        return self.gamma[value % fine] + value // fine * self.n_symbols ** self.n


def derive_gamma(code: SlidingBlockCode, n: int) -> ShiftLikeSystem:
    """Round a sliding block code to a shift-like system with k = max(m-1, 1).

    The table entry for each (n+k)-word is the first n symbols of the code's
    image, which the window width guarantees are fully determined.
    """
    if n < 1:
        raise ValidationError("n must be >= 1")
    k = max(code.window - 1, 1)
    limit = resolve_cell_cap()
    if _power_upto(code.n_symbols, n + k, limit) is None:
        raise CapExceededError(f"table of {code.n_symbols}^{n + k} entries "
                               f"exceeds the cell cap {limit}")
    return ShiftLikeSystem(code.n_symbols, n, k, _rounded_table(code, n, k))


def _rounded_table(code: SlidingBlockCode, n: int, k: int) -> tuple[int, ...]:
    """First n symbols of the code's image of each (n+k)-word, in packed
    order: the table that rounds the code at n."""
    return tuple(code._image(value, n)
                 for value in range(code.n_symbols ** (n + k)))


def apply_g(system: ShiftLikeSystem, word: Word) -> Word:
    """One step of the shift-like map on a finite prefix (length drops by k)."""
    if word.n_symbols != system.n_symbols:
        raise ValidationError("word alphabet does not match the system")
    width = system.n + system.k
    if word.length < width:
        raise WordError(
            f"need at least {width} symbols to apply g, got {word.length}")
    return Word(system.n_symbols, word.length - system.k,
                system._g(word.value))


def code_R(source, prefix: Word, depth: int,
           n: int | None = None, k: int | None = None) -> list[Word]:
    """Orbit coding: the (n+k)-word observed at each of the first depth+1 steps.

    ``source`` is a ShiftLikeSystem (n, k taken from it) or a SlidingBlockCode
    (n, k must be supplied; any k >= window-1 observes well-defined words).
    """
    if depth < 0:
        raise ValidationError("depth must be >= 0")
    if isinstance(source, ShiftLikeSystem):
        n = source.n if n is None else n
        k = source.k if k is None else k
        if (n, k) != (source.n, source.k):
            raise ValidationError("n, k overrides do not match the system")
        shrink, what = k, "system"
        step = lambda value, length: source._g(value)
    elif isinstance(source, SlidingBlockCode):
        if n is None or k is None:
            raise ValidationError("coding a block map requires explicit n and k")
        if n < 1 or k < 1:
            raise ValidationError("n and k must be >= 1")
        if k < source.window - 1:
            raise ValidationError(
                f"k={k} too small: the code reads {source.window} symbols")
        shrink, what = source.window - 1, "code"
        step = lambda value, length: source._image(value, length - shrink)
    else:
        raise ValidationError(f"cannot code orbits of {type(source).__name__}")
    needed = n + k + depth * shrink
    if prefix.length < needed:
        raise WordError(
            f"prefix length {prefix.length} below required {needed}")
    if prefix.n_symbols != source.n_symbols:
        raise ValidationError(f"word alphabet does not match the {what}")
    base, width = source.n_symbols, n + k
    fine = base ** width
    value, length = prefix.value, prefix.length
    words = [Word(base, width, value % fine)]
    for _ in range(depth):
        value, length = step(value, length), length - shrink
        words.append(Word(base, width, value % fine))
    return words


def decode_H(system: ShiftLikeSystem, sequence) -> Word:
    """Inverse of the orbit coding: overlay consecutive fine words.

    The sequence must be a G* word (each word's first n symbols equal the
    gamma-image of its predecessor); the decoded point starts with the first
    word and appends the last k symbols of each subsequent one.
    """
    words = list(sequence)
    if not words:
        raise WordError("empty coding sequence")
    width = system.n + system.k
    for word in words:
        if not isinstance(word, Word) or word.length != width \
                or word.n_symbols != system.n_symbols:
            raise WordError(f"coding entries must be {width}-symbol words")
    base, coarse = system.n_symbols, system.n_symbols ** system.n
    value, place = words[0].value, base ** width
    for first, second in zip(words, words[1:]):
        tail, head = divmod(second.value, coarse)
        if head != system.gamma[first.value]:
            raise WordError(
                f"({first}, {second}) is not an edge of the fine relation")
        value += tail * place
        place *= base ** system.k
    return Word(base, width + system.k * (len(words) - 1), value)


def shadow_Q(code: SlidingBlockCode, system: ShiftLikeSystem,
             prefix: Word, depth: int) -> Word:
    """The g-orbit that shadows an f-orbit: decode the f-orbit's coding.

    The system must be the shift-like rounding of the code at its own n (the
    association is verified against the table).  The returned prefix y
    satisfies exact word-level shadowing: at every step j <= depth the g-orbit
    of y and the f-orbit of x read the same (n+k)-word.
    """
    if code.n_symbols != system.n_symbols:
        raise ValidationError("code and system use different alphabets")
    if system.k < code.window - 1:
        raise ValidationError(
            f"system k={system.k} cannot capture a width-{code.window} code")
    if tuple(system.gamma) != _rounded_table(code, system.n, system.k):
        raise ValidationError(
            "system table is not the rounding of this code at its n")
    coding = code_R(code, prefix, depth, n=system.n, k=system.k)
    return decode_H(system, coding)


def bernoulli_cylinder(n_symbols: int, word: Word) -> Fraction:
    """Uniform Bernoulli weight of a cylinder: N^-length, exactly."""
    if word.n_symbols != n_symbols:
        raise ValidationError("word alphabet does not match")
    if word.length < 1:
        raise ValidationError("empty word has no cylinder")
    return Fraction(1, n_symbols ** word.length)


def to_two_alphabet(system: ShiftLikeSystem) -> two_alphabet.TwoAlphabetModel:
    """Present the system on the fine alphabet A^(n+k) over the coarse A^n.

    J truncates to the first n symbols, gamma is the system table, and nu is
    the uniform Bernoulli weight 1/N^k on every J-fiber.
    """
    labels = _word_labels(system.n_symbols, system.n + system.k)
    fine = labels[-1]
    coarse = system.n_symbols ** system.n
    nu = Fraction(1, system.n_symbols ** system.k)
    return two_alphabet.build_model(
        kstar=fine,
        k=labels[system.n - 1],
        j_map=[value % coarse for value in range(len(fine))],
        gamma=system.gamma,
        nu=[nu] * len(fine),
    )


@dataclass(frozen=True)
class ShiftlikeReport:
    """Tractability summary of a shift-like system."""

    system: ShiftLikeSystem
    analysis: two_alphabet.Analysis

    def to_json_dict(self) -> dict:
        model = self.analysis.model
        measures = [{
            "class": [model.k[i] for i in pair.base_members],
            "fine_class": [model.kstar[t] for t in pair.star_members],
            "weights": {model.k[i]: format_rational(v_b[i])
                        for i in pair.base_members},
        } for pair, v_b in zip(self.analysis.terminal_pairs,
                               self.analysis.stationary)]
        out = tractability_json(
            self.analysis.correspondence.base_decomposition,
            self.analysis.decay,
            "decoded supports are disjoint (conjugate subshifts)")
        out.update({
            "N": self.system.n_symbols,
            "n": self.system.n,
            "k": self.system.k,
            "fine_basic_sets": [[model.kstar[t] for t in p.star_members]
                                for p in self.analysis.correspondence.pairs],
            "stationary": measures,
        })
        return out


def tractability_report_shiftlike(system: ShiftLikeSystem) -> ShiftlikeReport:
    """Exact tractability report under the uniform Bernoulli background.

    Stationary vectors are computed in exact rationals and the projected
    stationarity identity is verified with zero tolerance for every terminal
    class; reports for identical tables are byte-for-byte identical.
    """
    return ShiftlikeReport(
        system, two_alphabet.analyze(to_two_alphabet(system)))


def _json_fields(data, names: tuple[str, ...], what: str) -> list:
    """The values of a JSON object that has exactly the named fields."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} file must be a JSON object")
    missing = set(names) - set(data)
    if missing:
        raise ValidationError(f"{what} file missing: {sorted(missing)}")
    unknown = set(data) - set(names)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    return [data[name] for name in names]


def system_from_json(data) -> ShiftLikeSystem:
    n_symbols, n, k, gamma = _json_fields(data, ("N", "n", "k", "gamma"),
                                          "gamma-table")
    # The cap is checked before the table, on integer sizes.
    _check_ints((n_symbols, n, k), "N, n, k")
    if not isinstance(gamma, list):
        raise ValidationError("'gamma' must be a list of integers")
    limit = resolve_cell_cap()
    if n_symbols >= 2 and n >= 1 and k >= 1 and \
            _power_upto(n_symbols, n + k, limit) is None:
        raise CapExceededError(
            f"table of {n_symbols}^{n + k} entries exceeds the cap {limit}")
    return ShiftLikeSystem(n_symbols, n, k, tuple(gamma))


def system_to_json(system: ShiftLikeSystem) -> dict:
    return {"N": system.n_symbols, "n": system.n, "k": system.k,
            "gamma": list(system.gamma)}


def code_from_json(data) -> SlidingBlockCode:
    n_symbols, window, phi = _json_fields(data, ("N", "m", "phi"), "code")
    if not isinstance(phi, list):
        raise ValidationError("'phi' must be a list of integers")
    return SlidingBlockCode(n_symbols, window, tuple(phi))
