"""Reading a UTF-8 text file, shared by the match and table readers."""

from __future__ import annotations

from pathlib import Path


def read_text(path: str | Path) -> str:
    """The text of a UTF-8 file without a leading byte order mark; an error
    names the line of the first byte that is not UTF-8."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line = data[: exc.start].count(b"\n") + 1
        raise ValueError(f"line {line}: not valid {exc.encoding}: {exc.reason}") from None
