"""Tokeniser for Sail source text.

The concrete syntax follows the POWER pseudocode conventions used in the
paper's Fig. 2: ``:=`` assignment, ``..`` bit ranges, ``:`` concatenation,
``0b``/``0x`` sized literals, and C-like operators.  Comments run from ``#``
to end of line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .ast import SailSyntaxError

KEYWORDS = {
    "if",
    "then",
    "else",
    "foreach",
    "from",
    "to",
    "downto",
    "function",
    "clause",
    "execute",
    "int",
    "bool",
    "bit",
}

# Multi-character operators, longest first so maximal munch works.
OPERATORS = [
    ":=",
    "..",
    "==",
    "!=",
    "<=u",
    ">=u",
    "<u",
    ">u",
    "<=",
    ">=",
    "<<",
    ">>",
    "&",
    "|",
    "^",
    "~",
    "<",
    ">",
    "+",
    "-",
    "*",
    "%",
    "/",
    ":",
    ";",
    ",",
    ".",
    "(",
    ")",
    "[",
    "]",
    "{",
    "}",
    "=",
]


@dataclass(frozen=True)
class Token:
    kind: str  # "ident" | "keyword" | "int" | "bits" | "op" | "eof"
    text: str
    value: object = None
    line: int = 0
    col: int = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind},{self.text!r}@{self.line}:{self.col})"


def tokenize(source: str) -> List[Token]:
    """Convert Sail source into a token list ending with an ``eof`` token."""
    tokens: List[Token] = []
    line = 1
    col = 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            token, length = _lex_number(source, i, start_line, start_col)
            tokens.append(token)
            i += length
            col += length
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = "keyword" if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, None, start_line, start_col))
            col += j - i
            i = j
            continue
        matched = False
        for op in OPERATORS:
            if source.startswith(op, i):
                tokens.append(Token("op", op, None, start_line, start_col))
                i += len(op)
                col += len(op)
                matched = True
                break
        if not matched:
            raise SailSyntaxError(
                f"unexpected character {ch!r} at line {line}, column {col}"
            )
    tokens.append(Token("eof", "", None, line, col))
    return tokens


def _lex_number(source: str, i: int, line: int, col: int):
    n = len(source)
    if source.startswith("0b", i) or source.startswith("0B", i):
        j = i + 2
        while j < n and source[j] in "01uUxX_":
            j += 1
        digits = source[i + 2 : j].replace("_", "")
        if not digits:
            raise SailSyntaxError(f"empty binary literal at line {line}")
        return Token("bits", source[i:j], digits, line, col), j - i
    if source.startswith("0x", i) or source.startswith("0X", i):
        j = i + 2
        while j < n and (source[j] in "0123456789abcdefABCDEF_"):
            j += 1
        digits = source[i + 2 : j].replace("_", "")
        if not digits:
            raise SailSyntaxError(f"empty hex literal at line {line}")
        bits = "".join(f"{int(d, 16):04b}" for d in digits)
        return Token("bits", source[i:j], bits, line, col), j - i
    j = i
    while j < n and source[j].isdigit():
        j += 1
    return Token("int", source[i:j], int(source[i:j]), line, col), j - i
