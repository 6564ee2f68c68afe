"""Optional OEIS identification for computed sequences.

Nothing else in the package imports this module; the core engines stay
network-free.  Lookups run in one of two modes:

* ``offline`` (safe everywhere): consults the on-disk cache, then a small
  set of bundled fixtures.  Never touches the network.
* ``online``: queries the public OEIS JSON search endpoint with the
  standard library's ``urllib``, at most one request per second, and
  writes results into the cache so later offline runs can reuse them.

The cache is a directory of JSON files named by the SHA-256 of the query
key; a corrupt or unreadable entry is a miss and is repaired by the next
write.  Set ``HANKELREV_CACHE_DIR`` to relocate it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from hankelrev.series import _decimal

OEIS_SEARCH_URL = "https://oeis.org/search"
CACHE_DIR_ENV = "HANKELREV_CACHE_DIR"
MIN_QUERY_TERMS = 4
MIN_PARTIAL_MATCH = 4
_REQUEST_INTERVAL_SECONDS = 1.0

_rate_lock = threading.Lock()
_write_lock = threading.Lock()
_last_request_time = 0.0


class OeisError(Exception):
    """Base class for failures in this module."""


class OeisLookupError(OeisError):
    """Network or response-format failure during an online lookup."""


class OeisCacheError(OeisError):
    """The cache directory exists but cannot be written."""


@dataclass(frozen=True)
class OeisMatch:
    id: str
    name: str
    matched_prefix_length: int


# fixture terms are recorded literally; the test suite cross-checks the
# combinatorial ones against the package's own generators
FIXTURES: tuple[tuple[str, str, tuple[int, ...]], ...] = (
    (
        "A000108",
        "Catalan numbers: C(n) = binomial(2n,n)/(n+1).",
        (1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786, 208012, 742900, 2674440),
    ),
    (
        "A000984",
        "Central binomial coefficients: binomial(2*n,n).",
        (1, 2, 6, 20, 70, 252, 924, 3432, 12870, 48620, 184756, 705432, 2704156),
    ),
    (
        "A000045",
        "Fibonacci numbers: F(n) = F(n-1) + F(n-2) with F(0) = 0 and F(1) = 1.",
        (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610),
    ),
    (
        "A000129",
        "Pell numbers: a(0) = 0, a(1) = 1; for n > 1, a(n) = 2*a(n-1) + a(n-2).",
        (0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860),
    ),
    (
        "A001045",
        "Jacobsthal sequence: a(n) = a(n-1) + 2*a(n-2), with a(0) = 0, a(1) = 1.",
        (0, 1, 1, 3, 5, 11, 21, 43, 85, 171, 341, 683, 1365),
    ),
    (
        "A001477",
        "The nonnegative integers.",
        (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    ),
)


def cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hankelrev"


def query_key(terms: Sequence[int]) -> str:
    """The terms as comma-separated exact decimals, at any magnitude."""
    return ",".join(_decimal(int(t)) for t in terms)


def _cache_path(key: str) -> Path:
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()
    return cache_dir() / f"{digest}.json"


def cache_get(key: str) -> list[OeisMatch] | None:
    """Stored matches for a key, or None on any kind of miss.

    Unreadable and malformed entries count as misses; they are overwritten
    by the next cache_put for the same key.
    """
    path = _cache_path(key)
    try:
        raw = path.read_text(encoding="utf-8")
        data = json.loads(raw)
        return [
            OeisMatch(
                id=str(entry["id"]),
                name=str(entry["name"]),
                matched_prefix_length=int(entry["matched_prefix_length"]),
            )
            for entry in data
        ]
    except (OSError, ValueError, TypeError, KeyError):
        return None


def cache_put(key: str, matches: Sequence[OeisMatch]) -> None:
    """Atomically store matches for a key (write then rename)."""
    path = _cache_path(key)
    payload = json.dumps(
        [
            {
                "id": m.id,
                "name": m.name,
                "matched_prefix_length": m.matched_prefix_length,
            }
            for m in matches
        ],
        indent=2,
    )
    with _write_lock:
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            handle, temp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.stem, suffix=".tmp"
            )
            with os.fdopen(handle, "w", encoding="utf-8") as stream:
                stream.write(payload)
            os.replace(temp_name, path)
        except OSError as exc:
            raise OeisCacheError(f"cannot write cache entry {path}") from exc


def match_length(query: Sequence[int], candidate: Sequence[int]) -> int | None:
    """How much of the queried prefix a candidate's known terms cover.

    A candidate matches when the full query appears as a contiguous run,
    or when a prefix of at least MIN_PARTIAL_MATCH terms matches a run
    that exhausts the candidate's stored terms (the candidate simply ran
    out of data).  Returns the matched prefix length, or None.
    """
    q = [int(t) for t in query]
    c = [int(t) for t in candidate]
    best: int | None = None
    for start in range(len(c)):
        length = 0
        while (
            length < len(q)
            and start + length < len(c)
            and c[start + length] == q[length]
        ):
            length += 1
        if length == len(q):
            return len(q)
        if length >= MIN_PARTIAL_MATCH and start + length == len(c):
            if best is None or length > best:
                best = length
    return best


def _fixture_matches(terms: Sequence[int]) -> list[OeisMatch]:
    matches = []
    for oeis_id, name, data in FIXTURES:
        length = match_length(terms, data)
        if length is not None:
            matches.append(OeisMatch(oeis_id, name, length))
    return _ordered(matches)


def _ordered(matches: Sequence[OeisMatch]) -> list[OeisMatch]:
    return sorted(matches, key=lambda m: (-m.matched_prefix_length, m.id))


def _http_get_json(url: str, params: dict) -> object:
    """One rate-limited GET; isolated so tests can stub the network."""
    global _last_request_time
    with _rate_lock:
        wait = _REQUEST_INTERVAL_SECONDS - (time.monotonic() - _last_request_time)
        if wait > 0:
            time.sleep(wait)
        _last_request_time = time.monotonic()
    query = urllib.parse.urlencode(params)
    # an HTTP error status raises urllib.error.HTTPError
    with urllib.request.urlopen(f"{url}?{query}", timeout=10) as response:
        return json.load(response)


def _fetch_online(terms: Sequence[int]) -> list[OeisMatch]:
    key = query_key(terms)
    try:
        payload = _http_get_json(OEIS_SEARCH_URL, {"q": key, "fmt": "json"})
    except Exception as exc:
        raise OeisLookupError(f"online lookup failed for {key!r}") from exc
    if isinstance(payload, dict):
        results = payload.get("results") or []
    elif isinstance(payload, list):
        results = payload
    else:
        raise OeisLookupError(f"unrecognized response shape for {key!r}")
    matches = []
    for entry in results:
        try:
            number = int(entry["number"])
            name = str(entry.get("name", ""))
            data = [int(t) for t in str(entry.get("data", "")).split(",") if t]
        except (TypeError, ValueError, KeyError) as exc:
            raise OeisLookupError(f"unrecognized result entry for {key!r}") from exc
        length = match_length(terms, data)
        matches.append(
            OeisMatch(f"A{number:06d}", name, 0 if length is None else length)
        )
    return _ordered(matches)


def lookup(terms: Sequence[int], mode: str = "offline") -> list[OeisMatch]:
    """Identify a sequence prefix, best matches first.

    Results are ordered by matched prefix length (descending) and then by
    id.  Offline mode never performs network access.
    """
    if mode not in ("offline", "online"):
        raise ValueError(f"unknown lookup mode {mode!r}")
    if len(terms) < MIN_QUERY_TERMS:
        raise ValueError(f"need at least {MIN_QUERY_TERMS} terms for a lookup")
    key = query_key(terms)
    if mode == "offline":
        cached = cache_get(key)
        if cached is not None:
            return _ordered(cached)
        return _fixture_matches(terms)
    matches = _fetch_online(terms)
    cache_put(key, matches)
    return matches
