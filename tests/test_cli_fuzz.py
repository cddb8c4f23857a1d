"""Every command through ``cli.main`` on generated paths, stars, symbols, Lie
sums and words: the exit code is 0, 1 or 2 and nothing escapes as a
traceback.  Seeded (derandomized) with a small budget, so it runs in
tier-1; the sizes include paths and stars deeper than the default recursion
limit."""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from letterlink.cli import main

LETTERS = "abc"
letter = st.sampled_from(LETTERS)
# a few bytes that no grammar accepts, for the parse errors
junk = st.text(alphabet="ab,[]()^-1*/{};:> v", max_size=10)


@st.composite
def word_texts(draw, depth=2):
    """Letters, powers, inverses, groups and commutators, or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(junk)

    def item(d):
        kind = draw(st.integers(0, 3 if d else 1))
        if kind == 0:
            return draw(letter)
        if kind == 1:
            return f"{draw(letter)}^{draw(st.integers(-3, 3))}"
        if kind == 2:
            return f"[{items(d - 1)},{items(d - 1)}]"
        return f"({items(d - 1)})^{draw(st.integers(-2, 3))}"

    def items(d):
        return " ".join(item(d) for _ in range(draw(st.integers(0, 3))))

    return items(depth)


@st.composite
def symbol_texts(draw, depth=3, parent=""):
    """A symbol; now and then a child's letter equals its parent's."""
    own = draw(st.sampled_from([l for l in LETTERS if l != parent])
               if draw(st.integers(0, 9)) else letter)
    if depth == 0 or draw(st.integers(0, 2)) == 0:
        return own
    kids = [draw(symbol_texts(depth - 1, own))
            for _ in range(draw(st.integers(1, 2)))]
    return "".join(f"({k})" for k in kids) + own


def ids(n):
    return [f"v{i + 1}" for i in range(n)]


@st.composite
def graph_texts(draw):
    """A path, a star or a small random tree, labelled by letters or
    symbols, edges either way; sometimes past the recursion limit."""
    shape = draw(st.sampled_from(["path", "star", "tree"]))
    n = draw(st.integers(1, 7)) if draw(st.integers(0, 5)) else 1100
    if n > 7:   # deep inputs are one-letter paths a, b, a, ... or stars
        labels = ["ab"[i % 2] for i in range(n)] if shape != "star" else (
            ["b"] + ["a"] * (n - 1))
    else:
        labels = [draw(st.one_of(letter, symbol_texts(2))) for _ in range(n)]
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        pairs = [(0, i) for i in range(1, n)]
    else:
        pairs = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    v = ids(n)
    edges = [f"{v[j]}->{v[i]}" if flip else f"{v[i]}->{v[j]}"
             for (i, j), flip in zip(pairs, flips)]
    body = ", ".join(f"{vi}:{label}" for vi, label in zip(v, labels))
    return "{" + body + ("; " + ", ".join(edges) if edges else "") + "}"


@st.composite
def tree_texts(draw, weight):
    if weight == 1:
        return draw(letter)
    cut = draw(st.integers(1, weight - 1))
    return f"[{draw(tree_texts(cut))},{draw(tree_texts(weight - cut))}]"


coefficient = st.sampled_from(["", "2*", "1/2*", "3 / 4 * ", "0*", "1e1*"])


@st.composite
def lie_texts(draw):
    """A signed sum of bracket trees, mostly of one weight."""
    weight = draw(st.integers(1, 5))
    terms = []
    for i in range(draw(st.integers(1, 3))):
        w = weight if draw(st.integers(0, 4)) else draw(st.integers(1, 5))
        sign = draw(st.sampled_from(["+ ", "- "])) if i else draw(
            st.sampled_from(["", "-"]))
        terms.append(f"{sign}{draw(coefficient)}{draw(tree_texts(w))}")
    return " ".join(terms)


@st.composite
def graph_sum_texts(draw):
    n = draw(st.integers(1, 3))
    return " + ".join(f"{draw(coefficient)}{draw(graph_texts())}"
                      for _ in range(n))


gens = st.lists(letter, min_size=1, max_size=3).map(",".join)
weights = st.integers(-1, 6).map(str)
counts = st.lists(st.integers(-1, 2), min_size=1, max_size=3).map(
    lambda cs: ",".join(map(str, cs)))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(
        ["eval", "fox", "reduce", "distinct", "pair", "basis", "matrix",
         "coords", "diagram", "selfcheck"]))
    if command == "eval":
        target = (["--symbol", draw(symbol_texts())] if draw(st.booleans())
                  else ["--graph", draw(graph_texts())])
        argv = ["eval", "--word", draw(word_texts())] + target
    elif command == "fox":
        argv = ["fox", "--word", draw(word_texts()), "--seq",
                draw(st.one_of(gens, junk))]
        argv += ["--full"] if draw(st.booleans()) else []
    elif command == "reduce":
        argv = ["reduce", "--graph", draw(graph_texts())]
        if draw(st.booleans()):
            order = draw(st.lists(st.sampled_from(ids(5) + ["", " "]), max_size=5))
            argv += ["--order", ",".join(order)]
    elif command == "distinct":
        argv = ["distinct", "--graph", draw(graph_texts())]
    elif command == "pair":
        graphs = (["--graph", draw(graph_texts())] if draw(st.booleans())
                  else ["--graphsum", draw(graph_sum_texts())])
        argv = ["pair"] + graphs + ["--lie", draw(st.one_of(lie_texts(), junk))]
    elif command in ("basis", "matrix"):
        # mostly distinct generators and a multidegree of their weight
        names = draw(st.lists(letter, min_size=1, max_size=3, unique=True))
        md = draw(st.lists(st.integers(0, 2), min_size=len(names),
                           max_size=len(names)).filter(any))
        argv = [command, "--weight", draw(st.just(str(sum(md))) | weights),
                "--gens", draw(st.just(",".join(names)) | gens)]
        if command == "matrix" or draw(st.booleans()):
            argv += ["--multidegree", draw(st.just(",".join(map(str, md))) | counts)]
    elif command == "coords":
        argv = ["coords", "--word", draw(word_texts()), "--weight", draw(weights)]
    elif command == "diagram":
        argv = ["diagram", "--word", draw(word_texts()),
                "--symbol", draw(symbol_texts())]
    else:
        argv = ["selfcheck", "--seed", str(draw(st.integers(-1, 3)))]
    return argv + draw(st.sampled_from([[], ["--json"], ["--timing"]]))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse's own usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@given(argvs())
@settings(derandomize=True, deadline=None, max_examples=150)
def test_every_command_exits_cleanly(argv):
    code, _, err = run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
