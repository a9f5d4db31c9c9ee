"""Character-class statistics over tweet texts and profile strings."""

from __future__ import annotations

import re
import unicodedata

_ASCII_DIGITS = b"0123456789"

#: Per-character emoji verdicts; the alphabet of any run is tiny, so
#: this stays a few dozen entries.
_emoji_cache: dict[str, bool] = {}

#: Characters at or above U+2600, the only ones :func:`is_emoji` can
#: accept.
_HIGH_CHARS = re.compile("[\u2600-\U0010ffff]")


def count_digits(text: str) -> int:
    """Number of decimal digit characters."""
    if text.isascii():
        # For ASCII text ``ch.isdigit()`` is exactly membership in
        # 0-9, so one C-level delete pass replaces the per-character
        # loop.
        raw = text.encode("ascii")
        return len(raw) - len(raw.translate(None, _ASCII_DIGITS))
    return sum(map(str.isdigit, text))


def is_emoji(ch: str) -> bool:
    """Heuristic emoji test: symbol/other characters above U+2600.

    Covers the emoji blocks (Misc Symbols, Dingbats, Supplemental
    Symbols, Emoticons) without an external emoji database.
    """
    cached = _emoji_cache.get(ch)
    if cached is None:
        cached = ord(ch) >= 0x2600 and unicodedata.category(ch) in (
            "So",
            "Sk",
            "Cn",
        )
        _emoji_cache[ch] = cached
    return cached


def count_emoji(text: str) -> int:
    """Number of emoji characters (variation selectors excluded)."""
    if text.isascii():
        # Every ASCII code point is below U+2600.
        return 0
    return sum(map(is_emoji, _HIGH_CHARS.findall(text)))


def strip_for_shingling(text: str) -> str:
    """Normalize a text for MinHash: drop URLs, emoji, punctuation,
    and digit-only tokens, collapsing case/whitespace.

    Mirrors Section IV-B's preprocessing (remove URL, emoji, stop
    words, special characters).  Digit-only tokens are dropped because
    campaigns append counters/cache-busters to otherwise identical
    blasts — exactly the variation near-duplicate detection must see
    through.
    """
    tokens = []
    for token in text.lower().split():
        if token.startswith("http"):
            continue
        if token.isascii() and token.isalnum():
            # Plain-word fast path: nothing to strip (ASCII alnum
            # characters are never emoji or punctuation).
            cleaned = token
        else:
            cleaned = "".join(
                ch for ch in token if ch.isalnum() and not is_emoji(ch)
            )
        if cleaned and not cleaned.isdigit():
            tokens.append(cleaned)
    return " ".join(tokens)
