"""Outputs pinned in Tier-1: a fixed prefix of every ``tools/same_outputs.py``
stream, digested as the tool digests the whole stream.

A change that must keep outputs the same keeps these constants.  One that
changes outputs on purpose updates them and says which streams moved and
why.  The full tool stays the evidence a change quotes; these prefixes are
what every test run checks.  Each prefix reaches what its stream is for: a
(-,-) freeness witness, a padded A-II broom, a hub strip, a per-line reader
fall-back and a plane that is not projective; all of ``gen_incidence``'s
planes up to q = 25; and tree draws from ``sample_antitree`` and
``sample_antitree_heavy`` in the pg25 and desk streams.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import pytest

from antembed import digraph, gen_incidence

TOOL = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"

# stream: (records in the prefix, sha256 over them, one per line)
PINNED = {
    "pg25-warm-1302": (100, "0527a4347e829bdee911af5beb563300a40472449e692d327879f510f1902f7c"),
    "pg25-warm-1302-reversed": (100, "e60478195361319ae82efb18a0608e5663d87329fa80bc4f134a3ace8b01dab3"),
    "pg25-warm-8191": (100, "03d6890a1b7d6460d4c424fa59f5ea18d90ad6ccc6fd98fbda28bc692da76eb4"),
    "pg25-warm-8191-reversed": (100, "f4bf682ca8b2258f2bb96dd6a6bd70156f907c6878a65759577dba735ba32afa"),
    "pg25-line-deleted": (20, "ddb062b6403a102374b55d2e60751dd05c8806fe2c6d81a80843edbf4f12c153"),
    "desk-differential": (400, "ceacfad7ddd77a7f326795a2f9a25035f3a2d53928295bf5b45fec34a8a453d6"),
    "witness-replay": (400, "1c512e82a39ae20d70bd7dbaab8aeb58bd92d344c643c3997124f512fd9a4405"),
    "padded-broom-and-strip": (269, "96012fd24f2893a99b86c0c030d7ad5eea91c2e206ca917dcec65a52adaa7caf"),
    "caterpillar-mindeg": (400, "d9ccdb19fd7df42142919760709978c2c141016b6f69a9f7937eaa6ce57a881a"),
    "intake": (3, "ff83b284de58b8d14506d9d5a4b73143daf12b31c59f381c7393dfe4518d5556"),
    "cold-good-arcs": (100, "7c9b99c60eb1a377e7fa41cd44136d5e9793fbf6263506adc428d8567294b651"),
    "freeness-witness": (3, "abea58c68b43a1f04d3380da1be4518996f920c0daf8e21a25fec315a3bae645"),
    "selection": (400, "e3cf1bb2ad82e75bfbb04ee7303c46d5d91acae4f3cc55fb57fd8f21de795f7c"),
    "incidence": (20, "ac0a0529808263826a06ca687fe6177402faeeb05346f3633f71d2044c0f572d"),
}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def prefixes(tool):
    """Each stream's prefix, and how often the per-line reader ran for it."""
    host = gen_incidence(25)
    out, fallbacks = {}, {}
    with pytest.MonkeyPatch.context() as mp:
        calls = []
        per_line = digraph._parse_lines
        mp.setattr(digraph, "_parse_lines", lambda text: calls.append(1) or per_line(text))
        for name, (count, _) in PINNED.items():
            del calls[:]
            out[name] = list(itertools.islice(tool.STREAMS[name](host), count))
            fallbacks[name] = len(calls)
    return out, fallbacks


def test_every_stream_is_pinned(tool):
    assert list(PINNED) == list(tool.STREAMS)


@pytest.mark.parametrize("name", PINNED)
def test_stream_prefix_digest(tool, prefixes, name):
    assert tool.stream_digest(prefixes[0][name]) == PINNED[name]


def test_prefixes_reach_what_their_streams_are_for(prefixes):
    records, fallbacks = prefixes
    scans = [json.loads(r) for r in records["freeness-witness"]]
    assert any(s[1] is not True and s[1][2:4] == [-1, -1] for s in scans)  # a (-,-) K_{2,2}
    brooms = [json.loads(r) for r in records["padded-broom-and-strip"]]
    assert any(b["case"] and b["case"][0] == "BroomA" and b["case"][1]["padded"] for b in brooms)
    assert any(e.get("event") == "strip-reattach" for b in brooms for e in b["trace"])
    assert fallbacks["intake"] > 0
    planes = [json.loads(r) for r in records["incidence"]]
    assert [p[0] for p in planes[:14]] == [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25]
    assert any(p[-1] is False for p in planes[14:])
