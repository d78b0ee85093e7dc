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

# The writer holds a string of one character per vertex pair and the reader
# a few bit matrices of at least one bit per pair, so graph6 stops at 2^27
# pairs (n <= 16384).
_G6_PAIRS = 2**27
_GRAPH6 = re.compile("[?-~]*")  # characters 63..126
# base64 writes six bits of value v as letter v of its alphabet; graph6 writes byte 63 + v.
_B64 = (string.ascii_uppercase + string.ascii_lowercase + string.digits + "+/").encode()
_B64_TO_G6 = bytes.maketrans(_B64, bytes(range(63, 127)))
_G6_TO_B64 = bytes.maketrans(bytes(range(63, 127)), _B64)
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # byte b, bits reversed


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


def _body_bits(body: bytes) -> bytes:
    """The bits of a graph6 body: bit k of the body is bit k of the result read little-endian.

    Byte b of the body carries the six bits of b - 63, first bit highest,
    and bit v(v-1)/2 + u of the body is the pair u < v.  base64 reads byte b
    as its letter b - 63, and "A"s (six zero bits each) pad the body to
    whole base64 groups; the decoded bytes have their first bit highest.
    """
    raw = base64.b64decode(body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4))
    return raw.translate(_REVERSE_BITS)


def _swap_mask(p: int, j: int) -> int:
    """The bits (r, c) of a p-by-p bit matrix with bit j of c set and bit j of r clear, j < 3.

    The matrix is row-major, its bit (r, c) at bit r * p + c, so each byte
    of a row with bit j of r clear is the byte of the columns with bit j set.
    """
    s, width = 1 << j, p // 8
    row = (b"\xaa", b"\xcc", b"\xf0")[j] * width
    return int.from_bytes((row * s + bytes(width * s)) * (p // (2 * s)), "little")


def _transpose(lower: bytearray, p: int) -> int:
    """The transpose of a p-by-p bit matrix given by its first rows, the rest zero.

    p is a power of two, at least 8.  Row r of the matrix is bytes
    r * p/8 .. (r + 1) * p/8 - 1 of lower, read little-endian, and so is
    row r of the result, an integer whose bit (r, c) is bit r * p + c.
    Transposing swaps the row and the column index, one bit at a time (the
    swaps commute).  Swapping bits 3 and up moves whole bytes: byte k of row
    8a + i goes to byte a of row 8k + i, one strided copy per row.  Bits 0-2
    swap inside each 8 x 8 block, each by one masked delta swap (Warren,
    Hacker's Delight, section 7-3): the bit at (r, c) with bit j of c set
    and of r clear trades places with the bit at (r + 2^j, c - 2^j),
    2^j (p - 1) bits higher.
    """
    width = p // 8
    blocks = bytearray(p * width)
    for r in range(len(lower) // width):
        blocks[(r & 7) * width + (r >> 3) :: 8 * width] = lower[r * width : (r + 1) * width]
    m = int.from_bytes(blocks, "little")
    del blocks
    for j in range(3):
        d = (p - 1) << j
        t = m >> d
        t ^= m
        t &= _swap_mask(p, j)
        m ^= t
        t <<= d
        m ^= t
    return m


def from_graph6(text: str) -> Graph:
    """The graph of a header-less graph6 string, built from its neighbour masks alone."""
    text = text.strip()
    if not _GRAPH6.fullmatch(text):
        raise InvalidParamsError("graph6 bytes out of range")
    data = text.encode("ascii")
    del text
    n, off = _decode_size(data)
    _check_pairs(n)
    need = (n * (n - 1) // 2 + 5) // 6
    if len(data) - off != need:
        raise InvalidParamsError(f"graph6 body has {len(data) - off} bytes, expected {need}")
    bits = _body_bits(data[off:])
    del data  # at n = 16,384 the text, its bytes and the bits are 16-22 MB each
    _check_edges(int.from_bytes(bits, "little").bit_count(), "the graph6 graph")
    # The bit matrices are p by p, row-major, p a power of two (so a row and
    # a column index have the same bits) and at least 8 (so a row is whole
    # bytes).  Row v of the lower triangle is column v of the body: its bit
    # u is the pair u < v.
    p = max(8, 1 << (n - 1).bit_length())
    width = p // 8
    lower = bytearray(width * n)
    start = 0  # column v is body bits start .. start + v - 1
    for v in range(1, n):
        size = (v + 7) >> 3
        first = start >> 3
        column = int.from_bytes(bits[first : first + size + 1], "little") >> (start & 7)
        lower[v * width : v * width + size] = (column & ((1 << v) - 1)).to_bytes(size, "little")
        start += v
    del bits
    # The lower triangle OR its transpose is the adjacency matrix; row v is masks[v].
    upper = _transpose(lower, p)
    adjacency = (upper | int.from_bytes(lower, "little")).to_bytes(width * n, "little")
    del upper, lower
    masks = [
        int.from_bytes(adjacency[i : i + width], "little") for i in range(0, len(adjacency), width)
    ]
    return Graph._from_masks(tuple(masks))


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


def load_graph(path: str | Path) -> Graph:
    """Read a graph file: graph6 iff its stripped bytes all lie in 63..126, JSON otherwise."""
    # Bad UTF-8 becomes U+FFFD, which graph6 rejects and JSON allows only inside a string.
    text = Path(path).read_bytes().decode(errors="replace")
    if _GRAPH6.fullmatch(text.strip()):
        return from_graph6(text)
    return from_json(text)
