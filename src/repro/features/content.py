"""The 8 tweet-content features (Section IV-A, "Tweet Contents")."""

from __future__ import annotations

from ..twittersim.entities import TweetKind, TweetSource

N_CONTENT_FEATURES = 8

_KIND_CODE = {
    TweetKind.TWEET: 0.0,
    TweetKind.RETWEET: 1.0,
    TweetKind.QUOTE: 2.0,
}

_SOURCE_CODE = {
    TweetSource.WEB: 0.0,
    TweetSource.MOBILE: 1.0,
    TweetSource.THIRD_PARTY: 2.0,
    TweetSource.OTHER: 3.0,
}


def normalize_text_for_dedup(text: str) -> str:
    """Canonical form for the "is repeated" feature.

    Mentions and URLs are stripped so a campaign blasting the same
    slogan at different victims still counts as repeated content.
    """
    # ``split()`` never yields an empty token, so ``token[0]`` exists.
    return " ".join(
        [
            token
            for token in text.lower().split()
            if token[0] != "@" and token[:4] != "http"
        ]
    )
