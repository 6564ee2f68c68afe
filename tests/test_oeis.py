"""Sequence identification: fixtures, the local cache, and the online path."""

import io
import json
import subprocess
import sys
import urllib.request
from pathlib import Path

import pytest

from hankelrev import oeis
from hankelrev.oeis import (
    CACHE_DIR_ENV,
    OeisCacheError,
    OeisLookupError,
    OeisMatch,
    cache_get,
    cache_put,
    lookup,
    match_length,
    query_key,
)


# the real GET, kept before the autouse fixture below stubs it out
_http_get_json = oeis._http_get_json


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


@pytest.fixture(autouse=True)
def no_network(monkeypatch):
    def explode(url, params):
        raise AssertionError("network access attempted")

    monkeypatch.setattr(oeis, "_http_get_json", explode)


class TestMatchLength:
    def test_full_run_inside_candidate(self):
        assert match_length([1, 2, 3, 4], [0, 1, 2, 3, 4, 5]) == 4

    def test_short_full_run_allowed(self):
        assert match_length([5, 6, 7], [1, 5, 6, 7, 2]) == 3

    def test_partial_run_exhausting_candidate(self):
        assert match_length([1, 2, 3, 4, 99], [0, 1, 2, 3, 4]) == 4

    def test_partial_run_below_minimum_rejected(self):
        assert match_length([3, 4, 99, 98], [1, 2, 3, 4]) is None

    def test_mismatch(self):
        assert match_length([1, 2, 9, 4], [0, 1, 2, 3, 4]) is None


class TestOfflineLookup:
    def test_catalan_prefix(self):
        matches = lookup([1, 1, 2, 5, 14, 42, 132])
        assert matches[0].id == "A000108"
        assert matches[0].matched_prefix_length == 7
        assert "Catalan" in matches[0].name

    def test_interior_run(self):
        matches = lookup([2, 5, 14, 42, 132])
        assert [m.id for m in matches] == ["A000108"]

    def test_fibonacci(self):
        assert lookup([0, 1, 1, 2, 3, 5, 8, 13])[0].id == "A000045"

    def test_query_longer_than_stored_data(self):
        pell = [0, 1, 2, 5, 12, 29, 70, 169, 408, 985, 2378, 5741, 13860]
        matches = lookup(pell + [33461])
        assert matches[0].id == "A000129"
        assert matches[0].matched_prefix_length == len(pell)

    def test_no_match(self):
        assert lookup([3, 1, 4, 1, 5]) == []

    def test_requires_four_terms(self):
        with pytest.raises(ValueError, match="need at least 4 terms"):
            lookup([1, 2, 3])

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown lookup mode 'bogus'"):
            lookup([1, 2, 3, 4], mode="bogus")

    def test_never_touches_network(self):
        # the autouse no_network fixture raises on any request
        lookup([1, 2, 6, 20, 70])


class TestCache:
    def test_roundtrip(self):
        matches = [OeisMatch("A000001", "demo", 5)]
        cache_put("1,2,3,4", matches)
        assert cache_get("1,2,3,4") == matches

    def test_miss(self):
        assert cache_get("9,9,9,9") is None

    def test_offline_lookup_prefers_cache(self):
        planted = [OeisMatch("A999999", "planted", 4)]
        cache_put(query_key([4, 4, 4, 4]), planted)
        assert lookup([4, 4, 4, 4]) == planted

    def test_corrupt_entry_is_a_miss_and_repairable(self, isolated_cache):
        key = query_key([4, 4, 4, 4])
        cache_put(key, [OeisMatch("A999999", "planted", 4)])
        (entry,) = isolated_cache.glob("*.json")
        entry.write_text("{ not json", encoding="utf-8")
        assert cache_get(key) is None
        assert lookup([4, 4, 4, 4]) == []  # falls back to fixtures
        cache_put(key, [OeisMatch("A000002", "repaired", 4)])
        assert cache_get(key)[0].id == "A000002"

    def test_entry_with_wrong_shape_is_a_miss(self, isolated_cache):
        key = query_key([5, 5, 5, 5])
        cache_put(key, [OeisMatch("A000001", "demo", 4)])
        (entry,) = isolated_cache.glob("*.json")
        entry.write_text(json.dumps([{"id": "A000001"}]), encoding="utf-8")
        assert cache_get(key) is None

    def test_put_failure_raises(self, isolated_cache, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(isolated_cache / "blocked"))
        (isolated_cache / "blocked").write_text("a file, not a directory")
        with pytest.raises(OeisCacheError, match="cannot write cache entry"):
            cache_put("1,2,3,4", [])

    def test_cache_dir_without_override(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        assert oeis.cache_dir() == tmp_path / "hankelrev"
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert oeis.cache_dir() == Path.home() / ".cache" / "hankelrev"

    def test_ordering_by_length_then_id(self):
        key = query_key([6, 6, 6, 6])
        cache_put(
            key,
            [
                OeisMatch("A000002", "b", 4),
                OeisMatch("A000003", "c", 9),
                OeisMatch("A000001", "a", 4),
            ],
        )
        assert [m.id for m in lookup([6, 6, 6, 6])] == [
            "A000003", "A000001", "A000002",
        ]


class TestOnlineLookup:
    def test_success_parses_and_caches(self, monkeypatch):
        def fake(url, params):
            assert params["q"] == "1,1,2,5,14"
            return {
                "results": [
                    {
                        "number": 108,
                        "name": "Catalan numbers",
                        "data": "1,1,2,5,14,42,132",
                    }
                ]
            }

        monkeypatch.setattr(oeis, "_http_get_json", fake)
        matches = lookup([1, 1, 2, 5, 14], mode="online")
        assert matches == [OeisMatch("A000108", "Catalan numbers", 5)]
        # a later offline query is served from the cache
        monkeypatch.setattr(oeis, "_http_get_json", None)
        assert lookup([1, 1, 2, 5, 14]) == matches

    def test_bare_list_payload(self, monkeypatch):
        monkeypatch.setattr(
            oeis,
            "_http_get_json",
            lambda url, params: [
                {"number": 45, "name": "Fibonacci", "data": "0,1,1,2,3,5"}
            ],
        )
        assert lookup([0, 1, 1, 2], mode="online")[0].id == "A000045"

    def test_non_matching_entries_score_zero(self, monkeypatch):
        monkeypatch.setattr(
            oeis,
            "_http_get_json",
            lambda url, params: {
                "results": [{"number": 7, "name": "odd one", "data": "9,9,9"}]
            },
        )
        assert lookup([1, 2, 3, 4], mode="online")[0].matched_prefix_length == 0

    def test_network_failure_wraps_cause(self, monkeypatch):
        boom = ConnectionError("refused")

        def fail(url, params):
            raise boom

        monkeypatch.setattr(oeis, "_http_get_json", fail)
        with pytest.raises(OeisLookupError, match="online lookup failed") as exc:
            lookup([1, 2, 3, 4], mode="online")
        assert exc.value.__cause__ is boom

    def test_malformed_entry_rejected(self, monkeypatch):
        monkeypatch.setattr(
            oeis,
            "_http_get_json",
            lambda url, params: {"results": [{"name": "no number field"}]},
        )
        with pytest.raises(OeisLookupError, match="unrecognized result entry"):
            lookup([1, 2, 3, 4], mode="online")

    def test_unrecognized_payload_shape(self, monkeypatch):
        monkeypatch.setattr(oeis, "_http_get_json", lambda url, params: "nope")
        with pytest.raises(OeisLookupError, match="unrecognized response shape"):
            lookup([1, 2, 3, 4], mode="online")


class TestHttpGetJson:
    def test_request_and_decoding(self, monkeypatch):
        seen = {}

        def fake_urlopen(url, timeout):
            seen.update(url=url, timeout=timeout)
            return io.BytesIO(b'{"results": [{"number": 108}]}')

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        payload = _http_get_json(oeis.OEIS_SEARCH_URL, {"q": "1,1,2,5", "fmt": "json"})
        assert payload == {"results": [{"number": 108}]}
        assert seen == {"url": "https://oeis.org/search?q=1%2C1%2C2%2C5&fmt=json", "timeout": 10}

    def test_works_without_requests(self, tmp_path):
        script = (
            "import sys; sys.modules['requests'] = None\n"
            "from hankelrev import oeis\n"
            "print(oeis.lookup([1, 1, 2, 5, 14], mode='offline')[0].id)\n"
        )
        env = {"PYTHONPATH": str(Path(oeis.__file__).parents[1]), CACHE_DIR_ENV: str(tmp_path)}
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "A000108\n", "")


class TestFixturesAgainstGenerators:
    def test_catalan_fixture_terms(self):
        from hankelrev import catalan

        stored = dict((f[0], f[2]) for f in oeis.FIXTURES)["A000108"]
        assert list(stored) == [catalan(n) for n in range(len(stored))]

    def test_central_binomial_fixture_terms(self):
        import math

        stored = dict((f[0], f[2]) for f in oeis.FIXTURES)["A000984"]
        assert list(stored) == [math.comb(2 * n, n) for n in range(len(stored))]

    def test_core_package_does_not_import_this_module(self, monkeypatch):
        import importlib

        # the originals come back at teardown, so later tests patch the
        # same module objects their code runs in
        for name in list(sys.modules):
            if name.startswith("hankelrev"):
                monkeypatch.delitem(sys.modules, name)
        importlib.import_module("hankelrev")
        assert "hankelrev.oeis" not in sys.modules
        importlib.import_module("hankelrev.oeis")
