"""Free-group words over a named generator alphabet.

Words are stored as raw letter sequences and are never reduced implicitly;
``free_reduce`` is explicit.  Generators are plain strings matching
``[a-zA-Z][a-zA-Z0-9_]*``.  Positions in the rest of the package are
1-based to ease checking against hand calculations.

Grammar accepted by :func:`parse_compact` and :func:`parse_word` (shared
with the CLI)::

    word := term* ; term := atom ('^' int)? ;
    atom := ident | '[' word ',' word ']' | '(' word ')'

Whitespace may stand between any two tokens and separates identifiers.
``parse_compact`` keeps the text's products, powers and commutators as a
:class:`CompactWord` with exact lengths, which ``linking`` folds without
expanding; ``parse_word`` expands it: commutators ``[u,v]`` to
``u v u^-1 v^-1`` and exponents to repetition, with no cancellation.  An
expansion longer than ``LENGTH_LIMIT`` letters is refused with TooLarge
before it is built.  Flat text, letters each alone or with the exponent
-1, is read a maximal run at a time by one regular-expression match; every
other term, and every error, goes through the token reader.

Every grammar of the package (words, symbols, Lie sums, graphs, graph
sums and the CLI's comma lists) is read through one :class:`Scanner`, so a
ParseError's position is an offset into the text the reader was given.
Brackets and parentheses nest at most ``NESTING_LIMIT`` deep in all of them.

``_exact`` reads every coefficient from outside the program, in a sum's
text or passed to a sum or an evaluator, and refuses with InvalidArgument
what is not a rational number or needs more than ``_DIGIT_LIMIT`` digits.
It reads text by one rule on every Python version: the coefficient grammar
of a sum's text, with an optional sign.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from itertools import chain
from math import log10
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, NoReturn

from .errors import InvalidArgument, ParseError, TooLarge, UnknownGenerator

GENERATOR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# deepest bracket nesting any parser accepts, so no input can exhaust the stack
NESTING_LIMIT = 100

# most letters a parsed word may expand to; checked before the letters are
# allocated (folding a CompactWord expands only its short leaves)
LENGTH_LIMIT = 2 ** 22

_INT_RE = re.compile(r"-?[0-9]+")
# one letter of a run, with the whitespace after it: a whole generator name,
# alone or with an exponent that int() reads as -1 (^-1, ^ -1, ^-01, not
# ^-10), followed by no other '^'
_LETTER_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*(?![a-zA-Z0-9_])"
                        r"(?:\s*\^\s*-0*1(?![0-9]))?(?!\s*\^)\s*")
_RUN_RE = re.compile(f"(?:{_LETTER_RE.pattern})+")
# most digits CPython's int() converts to or from text by default
_DIGIT_LIMIT = 4300
# an unsigned coefficient in a sum's text: 3, 1/2, 1 / 2, 0.5, .5, 5., 1e-3,
# 1_000; an underscore may stand only between two digits, and reads as none
_DIGITS = "[0-9]+(?:_[0-9]+)*"
_COEFFICIENT_RE = re.compile(
    rf"(?=\.?[0-9])(?:{_DIGITS})?"
    rf"(?:\s*/\s*{_DIGITS}|(?:\.(?:{_DIGITS})?)?(?:[eE][-+]?{_DIGITS})?)")
# the text ``_exact`` reads: an optional sign and an unsigned coefficient,
# with whitespace around each, as a sum's text has them before a '*'
_SIGNED_COEFFICIENT_RE = re.compile(
    rf"\s*(?:[-+]\s*)?(?:{_COEFFICIENT_RE.pattern})\s*")


class Scanner:
    """A cursor over one text, under every reader of the package's grammars.

    Whitespace is skipped after each token, so ``pos`` is always at the next
    token or at the end of the text and ``char`` is the character there ('' at
    the end); ``depth`` counts the open brackets.  A text that is not a str
    raises InvalidArgument, so every grammar refuses it.
    """

    __slots__ = ("text", "pos", "char", "depth")

    def __init__(self, text: str):
        if not isinstance(text, str):
            raise InvalidArgument(f"text of type {type(text).__name__}, not str")
        self.text = text
        self.depth = 0
        self._skip_to(0)

    def _skip_to(self, pos: int) -> None:
        text = self.text
        while text[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos
        self.char = text[pos:pos + 1]

    def take(self, token: str) -> bool:
        """Consume ``token`` if it comes next."""
        if not self.text.startswith(token, self.pos):
            return False
        self._skip_to(self.pos + len(token))
        return True

    def match(self, pattern: re.Pattern) -> str | None:
        """Consume and return what ``pattern`` matches here, if anything."""
        m = pattern.match(self.text, self.pos)
        if m is None:
            return None
        self._skip_to(m.end())
        return m.group()

    def expect(self, token: str) -> None:
        if not self.take(token):
            self.fail(repr(token))

    def open(self, bracket: str) -> bool:
        """Consume ``bracket`` if it comes next, entering one nesting level."""
        if self.char != bracket:
            return False
        if self.depth == NESTING_LIMIT:
            raise ParseError(f"nesting deeper than {NESTING_LIMIT} levels",
                             self.pos)
        self.depth += 1
        self._skip_to(self.pos + 1)
        return True

    def close(self, bracket: str) -> None:
        """Consume ``bracket``, leaving the level the matching ``open`` entered."""
        self.expect(bracket)
        self.depth -= 1

    def entries(self, closers: str) -> Iterator[int]:
        """The offset of each comma-separated entry before a character of
        ``closers`` or the end, empty ones skipped; the caller reads each
        entry, which must end at ',', a closer or the end, before the next."""
        while self.char not in closers:
            if not self.take(","):
                yield self.pos
                if self.char not in closers + ",":
                    self.fail("','")

    def fail(self, expected: str, message: str | None = None) -> NoReturn:
        """Raise ParseError here; the message defaults to what comes next."""
        if message is None:
            message = (f"got {self.char!r}" if self.char
                       else "unexpected end of input")
        raise ParseError(message, self.pos, expected)


def _read_sum(sc: Scanner, read_term: Callable[[Scanner], object]
              ) -> list[tuple[Fraction, object]]:
    """``[+|-] [coeff *] term``, then terms each after ``+`` or ``-``, up to
    the end of the text, as (signed coefficient, term) pairs."""
    out = []
    while not out or sc.char:
        if sc.take("-"):
            sign = -1
        elif sc.take("+") or not out:
            sign = 1
        else:
            sc.fail("'+' or '-'")
        out.append((sign * _read_coefficient(sc), read_term(sc)))
    return out


def _read_coefficient(sc: Scanner) -> Fraction:
    """``coeff *`` if a coefficient comes next, else 1."""
    start = sc.pos
    text = sc.match(_COEFFICIENT_RE)
    if text is None:
        return Fraction(1)
    sc.expect("*")
    try:
        return _exact(text)
    except InvalidArgument:
        raise ParseError(f"bad coefficient {text!r}", start,
                         expected="rational number") from None


def _exact(value) -> int | Fraction:
    """An ``int`` or ``Fraction`` as it is, and any other rational (a float,
    a ``Decimal`` or text such as ``"3/4"`` or ``"1e-3"``) as a ``Fraction``.
    Text is read by ``_SIGNED_COEFFICIENT_RE`` on every Python version, so
    it is refused exactly when a sum's text would refuse it before '*'."""
    if type(value) in (int, Fraction):
        return value
    try:  # past _DIGIT_LIMIT digits int() raises ValueError
        if not isinstance(value, (str, Decimal)):
            return Fraction(value)
        text = str(value)
        if not _SIGNED_COEFFICIENT_RE.fullmatch(text):
            raise ValueError
        # Fraction reads spaces around '/' only from Python 3.12, and
        # underscores only from 3.11
        text = "".join(text.split()).replace("_", "")
        mantissa, _, exponent = text.lower().partition("e")
        if exponent and len(mantissa) + abs(int(exponent)) > _DIGIT_LIMIT:
            raise ValueError  # refused before 10**exponent is computed
        return Fraction(text)
    except (TypeError, ValueError, ArithmeticError):
        raise InvalidArgument(f"bad coefficient {value!r}, expected a rational "
                              f"number of at most {_DIGIT_LIMIT} digits") from None


def _write_sum(pairs: Iterable[tuple[object, object]]) -> str:
    """The text of (nonzero coefficient, term) pairs, in the grammar of
    ``_read_sum``: a term after its sign, with ``|coeff|*`` unless the
    coefficient is 1 or -1; the first term's sign only if it is ``-``.
    An empty sum is ``0``."""
    out = []
    for coeff, term in pairs:
        if abs(coeff) == 1:
            body = str(term)
        else:
            body = f"{abs(coeff)}*{term}"
        if not out:
            out.append(f"-{body}" if coeff < 0 else body)
        elif coeff < 0:
            out.append(f" - {body}")
        else:
            out.append(f" + {body}")
    return "".join(out) or "0"


class Letter(NamedTuple):
    gen: str
    sign: int  # +1 or -1

    def inverse(self) -> "Letter":
        return Letter(self.gen, -self.sign)

    def __str__(self) -> str:
        return self.gen if self.sign > 0 else f"{self.gen}^-1"


@dataclass(frozen=True)
class Word:
    """A finite sequence of signed letters; the empty word is the identity."""

    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Word(self.letters[i])
        return self.letters[i]

    def __iter__(self):
        return iter(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(_inverted(self.letters))

    def letter_at(self, position: int) -> Letter:
        """Letter at a 1-based position."""
        if not 1 <= position <= len(self.letters):
            raise InvalidArgument(
                f"position {position} outside 1..{len(self.letters)}")
        return self.letters[position - 1]

    def generators(self) -> set[str]:
        return {l.gen for l in self.letters}

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        compact = all(len(l.gen) == 1 for l in self.letters)
        sep = "" if compact else " "
        return sep.join(str(l) for l in self.letters)

    def __repr__(self) -> str:
        return f"Word({self})"


def _inverted(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The letters of the inverse word, through one inverse per distinct
    letter."""
    inverse = {l: l.inverse() for l in set(letters)}
    return tuple(map(inverse.__getitem__, reversed(letters)))


class CompactWord:
    """A word kept as the expression its text writes, never expanded until
    ``expand``: a run of letters, a product of factors, a power or a
    commutator.

    ``kind`` is "run", "product", "power" or "commutator", and ``parts``
    holds the letters, the factors, the base alone, or the two commutands.
    ``length`` is the exact expanded length, computed from the parts; read
    it rather than ``len()``, which fails past ``sys.maxsize``.
    """

    __slots__ = ("kind", "parts", "exponent", "length")

    def __init__(self, kind: str, parts: tuple, exponent: int = 1):
        self.kind, self.parts, self.exponent = kind, parts, exponent
        if kind == "run":
            self.length = len(parts)
        elif kind == "product":
            self.length = sum(p.length for p in parts)
        elif kind == "power":
            self.length = parts[0].length * abs(exponent)
        else:
            self.length = 2 * (parts[0].length + parts[1].length)

    def __len__(self) -> int:
        return self.length

    def letters(self, inverted: bool = False) -> tuple[Letter, ...]:
        """The expanded letters of the word, or of its inverse; unchecked."""
        kind, parts = self.kind, self.parts
        if kind == "run":
            return _inverted(parts) if inverted else parts
        if kind == "product":
            return tuple(chain.from_iterable(
                p.letters(inverted) for p in (parts[::-1] if inverted else parts)))
        if kind == "power":
            return (parts[0].letters(inverted != (self.exponent < 0))
                    * abs(self.exponent))
        u, v = parts[::-1] if inverted else parts
        return u.letters() + v.letters() + u.letters(True) + v.letters(True)

    def expand(self) -> Word:
        """The Word, refused with TooLarge past ``LENGTH_LIMIT`` letters
        before any letter is built."""
        if self.length > LENGTH_LIMIT:
            size = (self.length if self.length < 10 ** 30
                    else f"about 10^{int(log10(self.length))}")
            raise TooLarge(f"word of {size} letters exceeds bound {LENGTH_LIMIT}")
        return Word(self.letters())

    def __repr__(self) -> str:
        return f"CompactWord({self.kind}, length={self.length})"


_EMPTY_RUN = CompactWord("run", ())


def parse_word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Parse ``text`` into a Word, expanding commutators and exponents.

    If ``alphabet`` is given, identifiers outside it raise UnknownGenerator.
    No free reduction is applied.
    """
    return parse_compact(text, alphabet).expand()


def parse_compact(text: str, alphabet: Iterable[str] | None = None
                  ) -> CompactWord:
    """Parse ``text`` into a CompactWord, expanding nothing.

    Letters written side by side, ``x^-1`` and parentheses without an
    exponent join one run, so a text without powers or commutators is a
    single run; ``u^0`` and powers of the empty word are the empty run.
    """
    allowed = set(alphabet) if alphabet is not None else None
    return _read_word(Scanner(text), _Letters(allowed), "")


class _Letters(dict):
    """The letters of one parse, interned by their text (a name, or a
    ``_LETTER_RE`` match); a name outside ``allowed`` raises
    UnknownGenerator where it is first read."""

    __slots__ = ("allowed",)

    def __init__(self, allowed: set[str] | None):
        super().__init__()
        self.allowed = allowed

    def __missing__(self, text: str) -> Letter:
        name = GENERATOR_RE.match(text).group()
        if self.allowed is not None and name not in self.allowed:
            raise UnknownGenerator(name)
        letter = self[text] = Letter(name, -1 if "^" in text else 1)
        return letter


def _read_word(sc: Scanner, letters: _Letters, closer: str) -> CompactWord:
    """Terms up to ``closer`` or the end of the text.  A maximal run of
    ``_LETTER_RE`` letters is read by one match; anything else is a term
    for ``_read_term``."""
    factors: list[CompactWord] = []
    run: list[Letter] = []
    while sc.char not in closer:
        letter_run = sc.match(_RUN_RE)
        if letter_run is not None:
            run += map(letters.__getitem__, _LETTER_RE.findall(letter_run))
            continue
        term = _read_term(sc, letters)
        for f in term.parts if term.kind == "product" else (term,):
            if not f.length:
                continue
            if f.kind == "run":
                run += f.parts
                continue
            if run:
                factors.append(CompactWord("run", tuple(run)))
                run = []
            factors.append(f)
    if run or not factors:
        factors.append(CompactWord("run", tuple(run)))
    return factors[0] if len(factors) == 1 else CompactWord("product",
                                                            tuple(factors))


def _read_term(sc: Scanner, letters: _Letters) -> CompactWord:
    name = sc.match(GENERATOR_RE)
    if name is not None:
        base = CompactWord("run", (letters[name],))
    elif sc.open("["):
        u = _read_word(sc, letters, ",")
        sc.expect(",")
        v = _read_word(sc, letters, "]")
        sc.close("]")
        base = CompactWord("commutator", (u, v))
    elif sc.open("("):
        base = _read_word(sc, letters, ")")
        sc.close(")")
    else:
        sc.fail("identifier, '[' or '('")
    if not sc.take("^"):
        return base
    exponent = sc.match(_INT_RE)
    if exponent is None:
        sc.fail("integer exponent")
    if not base.length:
        return base
    try:
        n = int(exponent)
    except ValueError:  # more digits than int() converts
        raise TooLarge(f"exponent of {len(exponent)} digits") from None
    if n == 0:
        return _EMPTY_RUN
    if n == 1:
        return base
    if n == -1 and base.kind == "run":
        return CompactWord("run", base.letters(True))
    return CompactWord("power", (base,), n)


def free_reduce(w: Word) -> Word:
    """The unique freely reduced representative (no adjacent ``x x^-1``)."""
    stack: list[Letter] = []
    for l in w:
        if stack and stack[-1].gen == l.gen and stack[-1].sign == -l.sign:
            stack.pop()
        else:
            stack.append(l)
    return Word(tuple(stack))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, unreduced."""
    return u * v * u.inverse() * v.inverse()


def relabel(mapping: Mapping[str, str], w: Word) -> Word:
    """Replace each letter's generator by its image; signs are preserved."""
    out = []
    for l in w:
        if l.gen not in mapping:
            raise UnknownGenerator(l.gen)
        out.append(Letter(mapping[l.gen], l.sign))
    return Word(tuple(out))


# --- bracket expressions -------------------------------------------------
#
# An iterated commutator of generators is represented as a nested pair
# structure: either a generator name or a (left, right) tuple.  The same
# shape feeds both word expansion here and bracket trees in `lie`.


def expand_bracket(expr) -> Word:
    """Expand a nested-commutator expression into an (unreduced) word."""
    return Word(_bracket_letters(expr)[0])


def _bracket_letters(expr) -> tuple[tuple[Letter, ...], tuple[Letter, ...]]:
    """The letters of the expansion and of its inverse: [u,v] = u v u^-1
    v^-1, whose inverse is [v,u]."""
    if isinstance(expr, str):
        return (Letter(expr, 1),), (Letter(expr, -1),)
    (u, u_inv), (v, v_inv) = map(_bracket_letters, expr)
    return u + v + u_inv + v_inv, v + u + v_inv + u_inv


def random_bracket(weight: int, alphabet: list[str], rng: random.Random):
    """Random commutator shape of the given weight with random leaf labels."""
    if weight < 1:
        raise InvalidArgument(f"bracket weight {weight} is below 1")
    if not alphabet:
        raise InvalidArgument("alphabet must be nonempty")
    if weight == 1:
        return rng.choice(alphabet)
    split = rng.randint(1, weight - 1)
    return (
        random_bracket(split, alphabet, rng),
        random_bracket(weight - split, alphabet, rng),
    )


def all_bracketings(labels: tuple[str, ...]):
    """All planar iterated-commutator shapes whose leaves, left to right,
    are exactly ``labels``: at each split point in turn, every shape of the
    left part with every shape of the right part.  The shapes of each run
    of labels are listed once, shorter runs first."""
    n = len(labels)
    shapes = {(i, i + 1): [label] for i, label in enumerate(labels)}
    for size in range(2, n + 1):
        for i in range(n - size + 1):
            j = i + size
            shapes[i, j] = [(l, r) for k in range(i + 1, j)
                            for l in shapes[i, k] for r in shapes[k, j]]
    return shapes[0, n] if n else []


def random_word(alphabet: list[str], length: int, rng: random.Random) -> Word:
    return Word(tuple(Letter(rng.choice(alphabet), rng.choice((1, -1)))
                      for _ in range(length)))


def random_gamma_element(depth: int, alphabet: Iterable[str],
                         budget: int = 12, seed=0) -> Word:
    """A word provably in the depth-th lower central series subgroup.

    Built as a product of conjugates of (depth+1)-letter iterated
    commutators of generators; depth 0 is an arbitrary word.  Deterministic
    for a fixed seed; ``seed`` may also be a random.Random instance.
    """
    if depth < 0:
        raise InvalidArgument(f"depth {depth} is negative")
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    gens = sorted(alphabet)
    if not gens:
        raise InvalidArgument("alphabet must be nonempty")
    if depth == 0:
        return random_word(gens, rng.randint(1, max(1, budget)), rng)
    factors = rng.randint(1, 2)
    out = Word()
    for _ in range(factors):
        core = expand_bracket(random_bracket(depth + 1, gens, rng))
        if rng.random() < 0.3:
            core = core.inverse()
        conj = random_word(gens, rng.randint(0, max(0, budget // 4)), rng)
        out = out * conj * core * conj.inverse()
    return out
