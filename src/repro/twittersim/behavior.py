"""Behavioral models: tweet sources, kinds, and reaction delays.

These distributions back three of the paper's 58 features directly:

* *tweet source distribution* — normal users post mostly from web or
  mobile clients, while automated spam accounts skew heavily toward
  third-party clients;
* *tweet status distribution* — normal activity mixes tweets, retweets
  and quotes; spam mentions are almost always original tweets;
* *mention time* — normal users take minutes-to-hours to read and react
  to a post; spammers react within seconds-to-minutes because they
  target victims without reading content (Section IV-A).
"""

from __future__ import annotations

import numpy as np

from .entities import TweetKind, TweetSource

_SOURCES = (
    TweetSource.WEB,
    TweetSource.MOBILE,
    TweetSource.THIRD_PARTY,
    TweetSource.OTHER,
)

#: P(source) for organic accounts: mobile-first, little automation.
NORMAL_SOURCE_PROBS = np.array([0.30, 0.55, 0.10, 0.05])

#: P(source) for spam accounts: automation tooling dominates.
SPAMMER_SOURCE_PROBS = np.array([0.08, 0.12, 0.72, 0.08])

_KINDS = (TweetKind.TWEET, TweetKind.RETWEET, TweetKind.QUOTE)

#: P(kind) for organic posts.
NORMAL_KIND_PROBS = np.array([0.72, 0.17, 0.11])

#: P(kind) for spam posts: templated original tweets.
SPAMMER_KIND_PROBS = np.array([0.90, 0.06, 0.04])


# Cumulative thresholds as plain Python floats: the draw below is a
# 3-4 way comparison chain, which beats even the ndarray.searchsorted
# method (these run once or twice per finalized tweet); the organic
# array draws below searchsorted the same thresholds.  The chain
# picks the first threshold >= r — exactly searchsorted(side="left").
_NORMAL_SOURCE_T = tuple(np.cumsum(NORMAL_SOURCE_PROBS).tolist())
_SPAMMER_SOURCE_T = tuple(np.cumsum(SPAMMER_SOURCE_PROBS).tolist())
_NORMAL_KIND_T = tuple(np.cumsum(NORMAL_KIND_PROBS).tolist())
_SPAMMER_KIND_T = tuple(np.cumsum(SPAMMER_KIND_PROBS).tolist())


def draw_source(rng: np.random.Generator, spammer: bool) -> TweetSource:
    """Sample a client source label for a new tweet."""
    t = _SPAMMER_SOURCE_T if spammer else _NORMAL_SOURCE_T
    r = rng.random()
    if r <= t[0]:
        return _SOURCES[0]
    if r <= t[1]:
        return _SOURCES[1]
    return _SOURCES[2] if r <= t[2] else _SOURCES[3]


def draw_kind(rng: np.random.Generator, spammer: bool) -> TweetKind:
    """Sample a tweet/retweet/quote status for a new post."""
    t = _SPAMMER_KIND_T if spammer else _NORMAL_KIND_T
    r = rng.random()
    if r <= t[0]:
        return _KINDS[0]
    return _KINDS[1] if r <= t[1] else _KINDS[2]


def draw_organic_sources(
    rng: np.random.Generator, size: int
) -> list[TweetSource]:
    """``size`` organic client sources in one array draw.

    Same law as ``draw_source(rng, spammer=False)``: the first
    threshold >= r, i.e. ``searchsorted(side="left")``.
    """
    codes = np.searchsorted(_NORMAL_SOURCE_T[:-1], rng.random(size))
    return [_SOURCES[c] for c in codes.tolist()]


def draw_organic_kinds(
    rng: np.random.Generator, size: int
) -> list[TweetKind]:
    """``size`` organic post kinds in one array draw.

    Same law as ``draw_kind(rng, spammer=False)``.
    """
    codes = np.searchsorted(_NORMAL_KIND_T[:-1], rng.random(size))
    return [_KINDS[c] for c in codes.tolist()]


#: Median organic reaction delay to a post (seconds): ~20 minutes.
NORMAL_REPLY_MEDIAN_S = 20 * 60.0

#: Log-scale spread of organic reply delays.
NORMAL_REPLY_SIGMA = 1.1

#: Log-scale spread of spam reaction delays.
SPAM_REACTION_SIGMA = 0.7


def organic_reply_delay(rng: np.random.Generator) -> float:
    """Seconds between a post and an organic reply to it."""
    return float(
        rng.lognormal(mean=np.log(NORMAL_REPLY_MEDIAN_S), sigma=NORMAL_REPLY_SIGMA)
    )


def spam_reaction_delay(
    rng: np.random.Generator, median_s: float
) -> float:
    """Seconds between a victim's post and the spam mention reacting."""
    return float(rng.lognormal(mean=np.log(median_s), sigma=SPAM_REACTION_SIGMA))
