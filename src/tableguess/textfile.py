"""Reading a UTF-8 text file, shared by the match and table readers.

The match reader, and the table reader for CSV, hand the text to
``csv.reader`` through ``io.StringIO(text, newline="")``, so in either
file a line ends only at ``\n``, ``\r\n`` or ``\r``; any other Unicode
line break is part of a cell.
"""

from __future__ import annotations

import re
from pathlib import Path


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file without a leading byte order mark; an error
    names the line of the first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        # \r\n, a lone \r and \n each end one line, as they do for csv.reader
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(f"line {line}: not valid {exc.encoding}: {exc.reason}") from None


def overlong_integer_digits(text: str) -> int:
    """How many digits ``text`` holds if it spells an integer as ``int()``
    reads one, else 0. A reader asks once ``int(text)`` has failed: such an
    integer has more digits than ``int()`` reads (4300 by default), and the
    reader refuses it by the field's range, not as a non-integer."""
    if re.fullmatch(r"\s*[+-]?\d+(?:_\d+)*\s*", text) is None:
        return 0
    return sum(map(str.isdecimal, text))
