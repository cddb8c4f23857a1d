"""ASCII rendering of the by-hand evaluation procedure.

Each non-leaf step of a symbol shows the word with the step's resulting
multiplicities above the marked letter and the cobounding arrows of each
child list below.  The steps are the non-leaf nodes of
``Symbol.postorder``, and their lists are read from `linking.Evaluator`,
the evaluator behind every invariant value.  The displayed cobounding pairs
occurrences like balanced delimiters (left-to-right stack); values are
computed with prefix potentials, so the choice is purely presentational.
"""

from __future__ import annotations

from .errors import UndefinedInvariant
from .linking import Evaluator
from .symbols import Symbol
from .words import Word


def canonical_cobounding(positions: list[int], signs: list[int],
                         values: list[int]) -> list[tuple[int, int, int]]:
    """Stack-matched intervals (start, end, orientation) for display, of the
    list with ``values`` at the 0-based ``positions`` carrying ``signs``."""
    tokens: list[tuple[int, int]] = []
    for p, sign, m in zip(positions, signs, values):
        if m != 0:
            tokens.extend([(p + 1, (1 if m > 0 else -1) * sign)] * abs(m))
    stack: list[tuple[int, int]] = []
    intervals = []
    for pos, sign in tokens:
        if stack and stack[-1][1] == -sign:
            start, ssign = stack.pop()
            intervals.append((start, pos, ssign))
        else:
            stack.append((pos, sign))
    return sorted(intervals)


def render_diagram(w: Word, sym: Symbol) -> tuple[str, int | None, UndefinedInvariant | None]:
    """Render every non-leaf node of the symbol in post-order, or the root
    if it is a leaf; on an undefined invariant the diagram is still
    produced up to the sub-symbol that `Evaluator` names."""
    ev = Evaluator(w)
    failure: UndefinedInvariant | None = None
    value: int | None = None
    try:
        value = ev.value(sym)
    except UndefinedInvariant as exc:
        failure = exc

    lines = [] if len(w) else ["(empty word)"]
    for node in sym.postorder():
        if node.children or node is sym:
            coboundings = [canonical_cobounding(*ev.occurrences(child.letter),
                                                ev.values(child))
                           for child in node.children]
            lines.extend(_render_block(w, node, ev.occurrences(node.letter)[0],
                                       ev.values(node), coboundings))
            lines.append("")
        if failure is not None and node is failure.subsymbol:
            break
    lines.append(f"count = {value}" if failure is None else str(failure))
    return "\n".join(lines), value, failure


def _render_block(w: Word, node: Symbol, positions: list[int], values: list[int],
                  coboundings: list[list[tuple[int, int, int]]]) -> list[str]:
    cells = [str(l) for l in w]
    mults = [""] * len(w)
    for p, m in zip(positions, values):
        mults[p] = str(m)
    widths = [max(len(c), len(m)) + 1 for c, m in zip(cells, mults)]
    starts = []
    pos = 0
    for width in widths:
        starts.append(pos)
        pos += width
    total = pos
    centers = [s + len(c) // 2 for s, c in zip(starts, cells)]

    def row_of(entries: list[tuple[int, str]]) -> str:
        # every text ends inside its cell or at a centre, so none runs past
        # the last column
        line = [" "] * total
        for col, text in entries:
            line[col:col + len(text)] = text
        return "".join(line).rstrip()

    def arrow(a: int, b: int, orient: int) -> tuple[int, str]:
        head = ">" if orient > 0 else "<"
        return centers[a - 1], head + "-" * (centers[b - 1] - centers[a - 1] - 1) + head

    out = [f"-- {node.canonical()} --"]
    mult_row = row_of([(starts[i], m) for i, m in enumerate(mults) if m])
    if mult_row:
        out.append(mult_row)
    out.append(row_of([(starts[i], c) for i, c in enumerate(cells)]))
    for intervals in coboundings:
        out.extend(row_of([arrow(*interval) for interval in row])
                   for row in _pack_rows(intervals))
    return out


def _pack_rows(intervals: list[tuple[int, int, int]]):
    """Greedy first-fit packing of intervals into non-overlapping rows."""
    rows: list[list[tuple[int, int, int]]] = []
    for interval in sorted(intervals):
        placed = False
        for row in rows:
            if all(interval[0] > b or interval[1] < a for a, b, _ in row):
                row.append(interval)
                placed = True
                break
        if not placed:
            rows.append([interval])
    return rows
