"""Graph serialization: header-less graph6 and a JSON adjacency document.

Both writers are byte-deterministic; edges in the JSON form are sorted
lexicographically with u < v.  Both readers check the edge count against
the families' edge bound, and the JSON reader its vertex count, before
they build anything.  graph6 spends one bit on every vertex pair, so its
writer and its reader first check n(n-1)/2 against their own bound.
"""

from __future__ import annotations

import base64
import json
import re
import string
from pathlib import Path

from .errors import InvalidParamsError, LlycurvError, TooLargeError
from .families import _check_edges
from .graphs import Graph, neighbor_masks

# The writer and the reader each hold a string of one character per vertex
# pair, so graph6 stops at 2^27 pairs (n <= 16384).
_G6_PAIRS = 2**27
_GRAPH6 = re.compile("[?-~]*")  # characters 63..126
# base64 writes six bits of value v as letter v of its alphabet; graph6 writes byte 63 + v.
_B64 = (string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/").encode()
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)


def _check_pairs(n: int) -> None:
    pairs = n * (n - 1) // 2
    if pairs > _G6_PAIRS:
        raise TooLargeError(
            f"graph6 on {n} vertices needs {pairs} pair bits, above the bound {_G6_PAIRS}"
        )


def _encode_size(n: int) -> list[int]:
    """The size field of n <= 16384 (`_check_pairs`), which needs at most four bytes."""
    if n <= 62:
        return [n + 63]
    return [126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]


def _decode_size(data: bytes) -> tuple[int, int]:
    """Return (n, offset of first bit byte)."""
    if not data:
        raise InvalidParamsError("empty graph6 string")
    if data[0] != 126:
        return data[0] - 63, 1
    if len(data) >= 2 and data[1] != 126:
        if len(data) < 4:
            raise InvalidParamsError("truncated graph6 size field")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        return n, 4
    if len(data) < 8:
        raise InvalidParamsError("truncated graph6 size field")
    n = 0
    for b in data[2:8]:
        n = (n << 6) | (b - 63)
    return n, 8


def _body_word(body: bytes) -> int:
    """All 6 * len(body) bits of a graph6 body as one integer, its first bit highest."""
    pad = -len(body) % 4  # letters "A" (six zero bits each) to a whole base64 group
    raw = base64.b64decode(body.translate(_G6_TO_B64) + b"A" * pad)
    return int.from_bytes(raw, "big") >> 6 * pad


def to_graph6(g: Graph) -> str:
    """Encode in the standard header-less graph6 format."""
    _check_pairs(g.n)
    masks = neighbor_masks(g)
    # Column v is bits 0..v-1 of masks[v], lowest first: the reader's layout.
    bits = "".join(format(masks[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, g.n))
    # Padded to whole 24-bit groups, the bits base64-encode with no "=";
    # keep one letter per six bits, the last group padded with zeros.
    pad = -len(bits) % 24
    raw = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    body = base64.b64encode(raw)[: -(-len(bits) // 6)].translate(_B64_TO_G6)
    return (bytes(_encode_size(g.n)) + body).decode("ascii")


def from_graph6(text: str) -> Graph:
    text = text.strip()
    if not _GRAPH6.fullmatch(text):
        raise InvalidParamsError("graph6 bytes out of range")
    data = text.encode("ascii")
    n, off = _decode_size(data)
    _check_pairs(n)
    need = (n * (n - 1) // 2 + 5) // 6
    body = data[off:]
    if len(body) != need:
        raise InvalidParamsError(f"graph6 body has {len(body)} bytes, expected {need}")
    # Byte b carries the six bits of b - 63; bit v(v-1)/2 + u of the body is the pair u < v.
    word = _body_word(body)
    _check_edges(word.bit_count(), "the graph6 graph")
    # A leading 1 keeps the leading zeros (a zero-padded format would copy the
    # whole string once more), so bit k of the body is bits[k + 1].
    bits = format(word | 1 << 6 * len(body), "b")
    # Column v lists its neighbours u < v in increasing u, and the columns
    # come in increasing v, so appending u to row v and v to row u leaves
    # every row sorted.  Column v read backwards is masks[v] below bit v.
    rows: list[list[int]] = [[] for _ in range(n)]
    masks = [0] * n
    for v in range(1, n):
        start = v * (v - 1) // 2 + 1
        column = bits[start : start + v]
        masks[v] = int(column[::-1], 2)
        row, bit = rows[v], 1 << v
        u = column.find("1")
        while u != -1:
            row.append(u)
            rows[u].append(v)
            masks[u] |= bit
            u = column.find("1", u + 1)
    return Graph._from_rows(tuple(map(tuple, rows)), tuple(masks))


def to_json(g: Graph) -> str:
    doc = {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _json_int(value) -> int:
    """A JSON integer; floats, strings and booleans (a Python int subclass) are refused."""
    if type(value) is not int:
        raise TypeError(f"expected a JSON integer, got {value!r}")
    return value


def from_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
        n, pairs = _json_int(doc["n"]), doc["edges"]
        _check_edges(n, "the JSON graph", "vertices")
        _check_edges(len(pairs), "the JSON graph")
        return Graph(n, [(_json_int(u), _json_int(v)) for u, v in pairs])
    except LlycurvError:
        raise
    except (ArithmeticError, KeyError, TypeError, ValueError) as exc:
        raise InvalidParamsError('expected {"n": int, "edges": [[u,v],...]}') from exc


def save_graph(g: Graph, path: str | Path, fmt: str | None = None) -> None:
    path = Path(path)
    fmt = fmt or ("json" if path.suffix == ".json" else "graph6")
    if fmt == "json":
        path.write_text(to_json(g))
    elif fmt == "graph6":
        path.write_text(to_graph6(g) + "\n")
    else:
        raise InvalidParamsError(f"unknown graph format {fmt!r}")


def load_graph(path: str | Path, fmt: str | None = None) -> Graph:
    """Read a graph file; without fmt it is graph6 iff its stripped bytes all lie in 63..126."""
    # Bad UTF-8 becomes U+FFFD, which graph6 rejects and JSON allows only inside a string.
    text = Path(path).read_bytes().decode(errors="replace")
    if fmt is None:
        fmt = "graph6" if _GRAPH6.fullmatch(text.strip()) else "json"
    if fmt == "json":
        return from_json(text)
    if fmt == "graph6":
        return from_graph6(text)
    raise InvalidParamsError(f"unknown graph format {fmt!r}")
