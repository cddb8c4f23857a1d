"""Free-group words over a named generator alphabet.

Words are stored as raw letter sequences and are never reduced implicitly;
``free_reduce`` is explicit.  Generators are plain strings matching
``[a-zA-Z][a-zA-Z0-9_]*``.  Positions in the rest of the package are
1-based to ease checking against hand calculations.

Grammar accepted by :func:`parse_word` (shared with the CLI)::

    word := term* ; term := atom ('^' int)? ;
    atom := ident | '[' word ',' word ']' | '(' word ')'

Commutators ``[u,v]`` expand to ``u v u^-1 v^-1`` and exponents expand to
repetition; no cancellation is performed.  Brackets and parentheses nest at
most ``NESTING_LIMIT`` deep, here and in the symbol and Lie grammars.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

from .errors import InvalidArgument, ParseError, UnknownGenerator

GENERATOR_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")

# deepest bracket nesting any parser accepts, so no input can exhaust the stack
NESTING_LIMIT = 100


def _check_nesting(depth: int, position: int) -> None:
    """Raise ParseError at the bracket at ``position`` if the level it opens,
    ``depth``, is deeper than ``NESTING_LIMIT``."""
    if depth > NESTING_LIMIT:
        raise ParseError(f"nesting deeper than {NESTING_LIMIT} levels", position)


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


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
        return Word(tuple(l.inverse() for l in reversed(self.letters)))

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


EMPTY_WORD = Word()


def word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Shorthand for :func:`parse_word`."""
    return parse_word(text, alphabet)


class _Tokens:
    """Tokenizer for the word grammar: identifiers, integers, punctuation."""

    _TOKEN_RE = re.compile(
        r"\s*(?:(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<int>-?\d+)|(?P<punct>[\[\](),^]))"
    )

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        while self.pos < len(text):
            m = self._TOKEN_RE.match(text, self.pos)
            if m is None:
                if text[self.pos :].strip() == "":
                    break
                raise ParseError("unexpected character", self.pos)
            kind = m.lastgroup
            self.tokens.append((kind, m.group(kind), m.start(kind)))
            self.pos = m.end()
        self.index = 0

    def peek(self):
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return (None, "", len(self.text))

    def next(self):
        tok = self.peek()
        self.index += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"got {val!r}", pos, expected=repr(value))


def parse_word(text: str, alphabet: Iterable[str] | None = None) -> Word:
    """Parse ``text`` into a Word, expanding commutators and exponents.

    If ``alphabet`` is given, identifiers outside it raise UnknownGenerator.
    No free reduction is applied.
    """
    allowed = set(alphabet) if alphabet is not None else None
    toks = _Tokens(text)
    w = _parse_word_body(toks, allowed, closers=set(), depth=0)
    kind, val, pos = toks.peek()
    if kind is not None:
        raise ParseError(f"trailing input {val!r}", pos)
    return w


def _parse_word_body(toks: _Tokens, allowed, closers: set[str],
                     depth: int) -> Word:
    out: list[Letter] = []
    while True:
        kind, val, pos = toks.peek()
        if kind is None or (kind == "punct" and val in closers):
            return Word(tuple(out))
        out.extend(_parse_term(toks, allowed, depth).letters)


def _parse_term(toks: _Tokens, allowed, depth: int) -> Word:
    base = _parse_atom(toks, allowed, depth)
    kind, val, pos = toks.peek()
    if kind == "punct" and val == "^":
        toks.next()
        k2, v2, p2 = toks.next()
        if k2 != "int":
            raise ParseError(f"got {v2!r}", p2, expected="integer exponent")
        n = int(v2)
        if n >= 0:
            return Word(base.letters * n)
        return Word(base.inverse().letters * (-n))
    return base


def _parse_atom(toks: _Tokens, allowed, depth: int) -> Word:
    kind, val, pos = toks.next()
    if kind == "ident":
        if allowed is not None and val not in allowed:
            raise UnknownGenerator(val)
        return Word((Letter(val, 1),))
    if kind == "punct" and val in ("[", "("):
        _check_nesting(depth + 1, pos)
    if kind == "punct" and val == "[":
        u = _parse_word_body(toks, allowed, closers={","}, depth=depth + 1)
        toks.expect(",")
        v = _parse_word_body(toks, allowed, closers={"]"}, depth=depth + 1)
        toks.expect("]")
        return commutator(u, v)
    if kind == "punct" and val == "(":
        w = _parse_word_body(toks, allowed, closers={")"}, depth=depth + 1)
        toks.expect(")")
        return w
    raise ParseError(f"got {val!r}" if kind else "unexpected end of input", pos,
                     expected="identifier, '[' or '('")


def free_reduce(w: Word) -> Word:
    """The unique freely reduced representative (no adjacent ``x x^-1``)."""
    stack: list[Letter] = []
    for l in w:
        if stack and stack[-1].gen == l.gen and stack[-1].sign == -l.sign:
            stack.pop()
        else:
            stack.append(l)
    return Word(tuple(stack))


def multiply(u: Word, v: Word) -> Word:
    return u * v


def invert(w: Word) -> Word:
    return w.inverse()


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
    if isinstance(expr, str):
        return Word((Letter(expr, 1),))
    left, right = expr
    return commutator(expand_bracket(left), expand_bracket(right))


def random_bracket(weight: int, alphabet: list[str], rng: random.Random):
    """Random commutator shape of the given weight with random leaf labels."""
    if weight == 1:
        return rng.choice(alphabet)
    split = rng.randint(1, weight - 1)
    return (
        random_bracket(split, alphabet, rng),
        random_bracket(weight - split, alphabet, rng),
    )


def all_bracketings(labels: tuple[str, ...]):
    """All planar iterated-commutator shapes whose leaves, left to right,
    are exactly ``labels``."""
    if len(labels) == 1:
        return [labels[0]]
    out = []
    for i in range(1, len(labels)):
        for l in all_bracketings(labels[:i]):
            for r in all_bracketings(labels[i:]):
                out.append((l, r))
    return out


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
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    gens = sorted(alphabet)
    if not gens:
        raise InvalidArgument("alphabet must be nonempty")
    if depth == 0:
        return random_word(gens, rng.randint(1, max(1, budget)), rng)
    factors = rng.randint(1, 2)
    out = EMPTY_WORD
    for _ in range(factors):
        core = expand_bracket(random_bracket(depth + 1, gens, rng))
        if rng.random() < 0.3:
            core = core.inverse()
        conj = random_word(gens, rng.randint(0, max(0, budget // 4)), rng)
        out = out * conj * core * conj.inverse()
    return out
