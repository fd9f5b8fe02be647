"""The ``.osr`` text format: a strict line-oriented semiring description.

Sections appear in fixed order -- name, elements, le, zero, one, add, mul.
``#`` starts a comment anywhere; blank lines are ignored.  The ``le``
section either carries an inline keyword (``discrete`` or ``chain``) or is
followed by one ``a <= b`` line per order pair.  The two tables are given
as n rows of n labels, row i column j holding op(elements[i], elements[j]).

Example::

    name: Z4
    elements: 0 1 2 3
    le: discrete
    zero: 0
    one: 1
    add:
    0 1 2 3
    1 2 3 0
    2 3 0 1
    3 0 1 2
    mul:
    0 0 0 0
    0 1 2 3
    0 2 0 2
    0 3 2 1

Rendering a parsed document and parsing it again yields an identical
description.
"""

from __future__ import annotations

from .core import RawSemiringDescription
from .errors import DuplicateLabel, MissingSection, ParseError

def _tokens(text: str) -> list[tuple[int, str]]:
    """(column, token) pairs for one comment-stripped line, 1-based columns."""
    hash_at = text.find("#")
    if hash_at >= 0:
        text = text[:hash_at]
    out = []
    col = 0
    for piece in text.split():
        col = text.index(piece, col)
        out.append((col + 1, piece))
        col += len(piece)
    return out


def parse(text: str) -> RawSemiringDescription:
    """Parse an ``.osr`` document into the description it spells out;
    errors carry line and column."""
    lines = text.splitlines()
    # significant lines: (line_no, column-token list)
    rows = []
    for ln, raw in enumerate(lines, start=1):
        toks = _tokens(raw)
        if toks:
            rows.append((ln, toks))
    pos, eof = 0, len(lines) + 1

    def expect_header(section: str) -> tuple[int, list[tuple[int, str]]]:
        nonlocal pos
        if pos >= len(rows):
            raise MissingSection(eof, 1, f"missing section {section!r}")
        ln, toks = rows[pos]
        col, head = toks[0]
        if head != f"{section}:":
            raise MissingSection(
                ln, col, f"expected section {section!r}, found {head!r}"
            )
        pos += 1
        return ln, toks[1:]

    ln, rest = expect_header("name")
    if not rest:
        raise ParseError(ln, 1, "empty name")
    name = " ".join(t for _, t in rest)

    ln, rest = expect_header("elements")
    if not rest:
        raise ParseError(ln, 1, "no elements listed")
    elements = []
    for col, tok in rest:
        if tok in elements:
            raise DuplicateLabel(ln, col, f"duplicate element label {tok!r}")
        elements.append(tok)
    known = set(elements)

    def check_label(ln: int, col: int, tok: str) -> str:
        if tok not in known:
            raise ParseError(ln, col, f"unknown element label {tok!r}")
        return tok

    ln, rest = expect_header("le")
    le: object
    if rest:
        col, kw = rest[0]
        if len(rest) > 1:
            raise ParseError(ln, rest[1][0], "trailing tokens after order keyword")
        if kw not in ("discrete", "chain"):
            raise ParseError(ln, col, f"order keyword must be discrete or chain, not {kw!r}")
        le = kw
    else:
        pairs = []
        while pos < len(rows) and rows[pos][1][0][1] != "zero:":
            pln, toks = rows[pos]
            if len(toks) != 3 or toks[1][1] != "<=":
                raise ParseError(pln, toks[0][0], "expected a pair line: a <= b")
            a = check_label(pln, toks[0][0], toks[0][1])
            b = check_label(pln, toks[2][0], toks[2][1])
            pairs.append((a, b))
            pos += 1
        le = tuple(pairs)

    def read_label(section: str) -> str:
        ln, rest = expect_header(section)
        if len(rest) != 1:
            raise ParseError(ln, 1, f"{section} section needs exactly one label")
        return check_label(ln, *rest[0])

    zero, one = read_label("zero"), read_label("one")

    n = len(elements)

    def read_table(section: str):
        nonlocal pos
        ln, rest = expect_header(section)
        if rest:
            raise ParseError(ln, rest[0][0], f"{section} table starts on the next line")
        table = []
        for _ in range(n):
            if pos >= len(rows):
                raise ParseError(
                    eof, 1, f"{section} table needs {n} rows, found {len(table)}"
                )
            rln, toks = rows[pos]
            if len(toks) != n:
                raise ParseError(
                    rln,
                    toks[0][0],
                    f"{section} table row must have {n} entries, found {len(toks)}",
                )
            table.append(tuple(check_label(rln, c, t) for c, t in toks))
            pos += 1
        return tuple(table)

    add_table = read_table("add")
    mul_table = read_table("mul")

    if pos < len(rows):
        ln, toks = rows[pos]
        raise ParseError(ln, toks[0][0], f"unexpected content {toks[0][1]!r} after mul table")

    return RawSemiringDescription(
        name=name,
        elements=tuple(elements),
        le=le,
        zero=zero,
        one=one,
        add_table=add_table,
        mul_table=mul_table,
    )


def render(desc: RawSemiringDescription) -> str:
    """Serialize a description in the canonical ``.osr`` layout."""
    out = [f"name: {desc.name}", "elements: " + " ".join(desc.elements)]
    if isinstance(desc.le, str):
        out.append(f"le: {desc.le}")
    else:
        out.append("le:")
        out.extend(f"{a} <= {b}" for a, b in desc.le)
    out.append(f"zero: {desc.zero}")
    out.append(f"one: {desc.one}")
    out.append("add:")
    out.extend(" ".join(row) for row in desc.add_table)
    out.append("mul:")
    out.extend(" ".join(row) for row in desc.mul_table)
    return "\n".join(out) + "\n"


def parse_file(path: str) -> RawSemiringDescription:
    """Parse the ``.osr`` document stored at ``path``; a byte that is not
    UTF-8 is a ParseError at its line and column."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # everything before the bad byte decodes; a sentinel character
        # stands in for it, so the last line found is the byte's own line
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            len(lines), len(lines[-1]), f"not UTF-8: byte {data[exc.start]:#04x}"
        ) from None
    return parse(text)
