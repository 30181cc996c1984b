import pickle
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antembed as ae
from antembed import digraph
from antembed.digraph import Digraph, from_json_obj, to_json_obj
from antembed.oracle_gen import sample_antitree_heavy

D1 = ae.Digraph(3, [(0, 1), (2, 1)])


def bidirected_complete(n):
    return ae.Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def test_degree_profile_arcless():
    p = ae.degree_profile(ae.Digraph(3, []))
    assert p.delta_plus_bar == 0 and p.delta_minus_bar == 0 and p.delta0_bar == 0


def test_degree_profile_d1():
    p = ae.degree_profile(D1)
    assert p.out_deg == (1, 0, 1)
    assert p.in_deg == (0, 2, 0)
    assert p.delta_plus_bar == 1
    assert p.delta_minus_bar == 2
    assert p.delta0_bar == 1


def test_degree_profile_bidirected_k4():
    p = ae.degree_profile(bidirected_complete(4))
    assert all(d == 3 for d in p.out_deg) and all(d == 3 for d in p.in_deg)
    assert p.delta0_bar == 3


def test_plus_minus_sets():
    # D+ and D- are the side masks
    assert (digraph.side_bits(D1, 1), digraph.side_bits(D1, -1)) == (0b101, 0b010)
    assert D1._memo[("side", -1)] == 0b010  # memoized on the digraph
    empty = ae.Digraph(2, [])
    assert (digraph.side_bits(empty, 1), digraph.side_bits(empty, -1)) == (0, 0)


def test_plus_minus_antidirected_partition():
    # an antidirected digraph without isolated vertices splits its vertex set
    t = ae.Digraph(4, [(0, 1), (2, 1), (2, 3)])
    plus, minus = digraph.side_bits(t, 1), digraph.side_bits(t, -1)
    assert plus | minus == 0b1111 and not (plus & minus)


def test_reverse():
    r = ae.reverse(D1)
    assert r.arc_set == frozenset({(1, 0), (1, 2)})
    assert ae.reverse(r) == D1
    assert repr(r) == "Digraph(n=3, arcs=[(1, 0), (1, 2)])"
    p, rp = ae.degree_profile(D1), ae.degree_profile(r)
    assert p.out_deg == rp.in_deg and p.in_deg == rp.out_deg
    assert p.delta_plus_bar == rp.delta_minus_bar


def test_construction_rejects():
    with pytest.raises(ae.AntembedError):
        ae.Digraph(2, [(0, 0)])
    with pytest.raises(ae.AntembedError):
        ae.Digraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ae.AntembedError):
        ae.Digraph(2, [(0, 2)])
    with pytest.raises(ae.AntembedError, match="order must be non-negative"):
        ae.Digraph(-1, [])


arc_inputs = st.integers(1, 6).flatmap(
    lambda n: st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1]),
        max_size=n * (n - 1),
        unique=True,
    ).map(lambda arcs: (n, arcs))
)
arc_lists = arc_inputs.map(lambda n_arcs: ae.Digraph(*n_arcs))


@settings(max_examples=120, deadline=None)
@given(arc_lists)
def test_degree_sum_and_reverse_properties(d):
    p = ae.degree_profile(d)
    assert sum(p.out_deg) == sum(p.in_deg) == d.a()
    assert not any(0 < o < p.delta_plus_bar for o in p.out_deg)
    r = ae.reverse(d)
    assert ae.reverse(r) == d and r.a() == d.a()


@settings(max_examples=120, deadline=None)
@given(arc_lists)
def test_from_bits_round_trip(d):
    back = Digraph.from_bits(d.n, d.out_bits)
    assert back == d and hash(back) == hash(d)
    assert back.arcs == tuple(sorted(d.arcs)) and back.in_bits == d.in_bits


def test_from_bits_rejects():
    with pytest.raises(ae.AntembedError, match="loop"):
        Digraph.from_bits(3, [0b010, 0b010, 0])
    with pytest.raises(ae.AntembedError, match="outside"):
        Digraph.from_bits(3, [0b1000, 0, 0])
    with pytest.raises(ae.AntembedError):
        Digraph.from_bits(3, [0b010, 0])


@settings(max_examples=120, deadline=None)
@given(arc_lists)
def test_reverse_swaps_rows(d):
    r = ae.reverse(d)
    assert r.out_bits == d.in_bits and r.in_bits == d.out_bits
    assert r.arcs == tuple((v, u) for u, v in d.arcs) and r.a() == d.a()
    assert ae.reverse(r) == d and ae.reverse(r).arcs == d.arcs


@settings(max_examples=120, deadline=None)
@given(arc_inputs)
def test_arcs_keep_insertion_order_on_every_construction_path(n_arcs):
    n, arcs = n_arcs
    want = tuple(arcs)
    text = "\n".join([f"{n} {len(arcs)}"] + [f"{u} {v}" for u, v in arcs]) + "\n"
    bulk = digraph._parse_bulk(text)
    assert bulk is not None
    built = [ae.Digraph(n, arcs), bulk[0], digraph._parse_lines(text)[0], ae.parse_arclist("# per line\n" + text)[0]]
    for d in built:
        assert d.arcs == want and d.a() == len(want)
        assert digraph.neighbor_lists(d, 1) == [[v for u, v in arcs if u == x] for x in range(n)]
        assert digraph.neighbor_lists(d, -1) == [[u for u, v in arcs if v == x] for x in range(n)]
    rows = Digraph.from_bits(n, built[0].out_bits)
    assert rows.arcs == tuple(sorted(arcs)) and rows.a() == len(arcs)


def test_not_antidirected_witness_follows_input_order():
    # the lowest in-neighbour of 1 is 0, but the first in-arc given is 3->1
    with pytest.raises(ae.NotAntidirected) as err:
        ae.validate_antitree(Digraph(4, [(3, 1), (0, 1), (1, 2)]))
    assert err.value.witness == (3, 1, 2)


@settings(max_examples=60, deadline=None)
@given(arc_lists)
def test_format_round_trips(d):
    parsed, root = ae.parse_arclist(ae.to_arclist(d))
    assert parsed == d and root is None
    parsed2, root2 = ae.parse_arclist(ae.to_arclist(d, root=0))
    assert parsed2 == d and root2 == 0
    assert from_json_obj(to_json_obj(d)) == d


def test_arclist_comments_and_errors():
    d, root = ae.parse_arclist("# hi\n3 2 root 1\n0 1\n# mid\n2 1\n")
    assert d == D1 and root == 1
    with pytest.raises(ae.AntembedError):
        ae.parse_arclist("3\n")


def test_arclist_rejects_surplus_arc_lines():
    # the header promises one arc; 0->1->2 is not K_{2,1}-free but 0->1 alone is
    with pytest.raises(ae.AntembedError, match="expected 1 arcs, found 2"):
        ae.parse_arclist("3 1\n0 1\n1 2\n")


def test_arclist_rejects_non_integer_tokens():
    with pytest.raises(ae.AntembedError, match="non-integer"):
        ae.parse_arclist("3 1\n0 x\n")
    with pytest.raises(ae.AntembedError, match="non-integer"):
        ae.parse_arclist("3 one\n0 1\n")


def test_arclist_rejects_root_out_of_range():
    for root in (3, -1):
        with pytest.raises(ae.AntembedError, match="root"):
            ae.parse_arclist(f"3 1 root {root}\n0 1\n")
    assert ae.parse_arclist("3 1 root 2\n0 1\n")[1] == 2


def test_pickled_digraph_leaves_its_memo_behind():
    # sweeps send hosts to worker processes; a selection's read-only audit does not pickle
    d = ae.gen_random_dense(10, 3, seed=0)
    ae.select_subdigraph(d, 3, 1)
    copy = pickle.loads(pickle.dumps(d))
    assert copy == d and copy.arcs == d.arcs and copy.in_bits == d.in_bits
    assert d._memo and copy._memo is None
    # the arcs tuple stays behind too; the columns carry the order, also of a reversal
    r = ae.reverse(d)
    assert r.arcs and r._arcs is not None
    for g in (d, r):
        copy = pickle.loads(pickle.dumps(g))
        assert copy._arcs is None and copy.a() == g.a() and copy.arcs == g.arcs


def test_cold_host_work_builds_no_arc_pairs():
    # parse a PG(2,25) text with seeded arc lines deleted, scan it and embed
    # trees of three branches in both orientations (so the host is also
    # reversed): none of it reads ``arcs``, whose pair tuple is built on first read
    full = ae.gen_incidence(25)
    lines = ae.to_arclist(full).splitlines()[1:]
    gone = set(random.Random(0).sample(range(len(lines)), 600))
    kept = [ln for j, ln in enumerate(lines) if j not in gone]
    d, _ = ae.parse_arclist("\n".join([f"{full.n} {len(kept)}", *kept]) + "\n")
    assert ae.is_k2s_free(d, 2) is True
    rng = random.Random(0)
    trees = {"MidDelta": ae.sample_antitree(13, rng), "BroomB_I": sample_antitree_heavy(13, rng, 6),
             "LowDelta": ae.sample_antitree(13, random.Random(6))}
    for branch, t in trees.items():
        for tree in (t, ae.reverse_antitree(t)):
            out = ae.embed_antitree(d, tree)
            assert out.ok and out.case.branch == branch
    assert d._arcs is None and ae.reverse(d)._arcs is None


def _outcome(parse, text):
    """(arcs, out-rows, in-rows, n, root) of a parse, or the message of its AntembedError."""
    try:
        d, root = parse(text)
    except ae.AntembedError as exc:
        return "error", str(exc)
    return d.arcs, d.out_bits, d.in_bits, d.n, root


def assert_bulk_agrees(text):
    """``parse_arclist`` (bulk first) gives what the per-line reader gives; returns
    whether the bulk path took the text."""
    want = _outcome(digraph._parse_lines, text)
    assert _outcome(ae.parse_arclist, text) == want
    bulk = digraph._parse_bulk(text)
    if bulk is not None:
        assert _outcome(lambda _: bulk, text) == want
    return bulk is not None


@settings(max_examples=150, deadline=None)
@given(arc_lists, st.sampled_from([" ", "\t", "  \t"]), st.booleans())
def test_bulk_parse_matches_per_line_reader(d, sep, trailing_newline):
    text = "\n".join([f"{d.n}{sep}{d.a()}"] + [f"{u}{sep}{v}" for u, v in d.arcs])
    text += "\n" if trailing_newline else ""
    assert assert_bulk_agrees(text)
    assert ae.parse_arclist(text)[0].arcs == d.arcs


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=8).map(lambda arcs: (n, arcs))
), st.integers(-1, 1))
def test_bulk_parse_rejects_like_per_line_reader(n_arcs, extra):
    # arcs may repeat, loop or leave the range, and the header may miscount them
    n, arcs = n_arcs
    text = f"{n} {len(arcs) + extra}\n" + "".join(f"{u} {v}\n" for u, v in arcs)
    assert_bulk_agrees(text)


BULK_TEXTS = [
    "3 2\n0 1\n2 1\n",
    "3 2\n0 1\n2 1",
    "3 2\n0\t1\n2 \t 1\n",
    "0 0\n",
    "0 0",
    "5 0\n",
]
PER_LINE_TEXTS = [
    # tokens traded between lines: the per-line reader rejects both
    "4 2\n1 2 3\n0\n",
    "4 2\n1\n2 3 0\n",
    "4 2\n1 2\n3\n",
    # CRLF, surrounding blanks, blank lines, comments
    "3 2\r\n0 1\r\n2 1\r\n",
    " 3 2\n0 1\n2 1\n",
    "3 2\n0 1 \n2 1\n",
    "3 2\n\n0 1\n\n2 1\n\n",
    "\n3 2\n0 1\n2 1\n",
    "# head\n3 2\n0 1\n# mid\n2 1\n",
    "3 2\n0 1 # tail\n2 1\n",
    "3 2 root 1\n0 1\n2 1",
    "3 2 root 3\n0 1\n2 1\n",
    # tokens int() reads or rejects that are not ASCII digits
    "3 2\n+0 1\n2 1\n",
    "3 2\n0 -1\n2 1\n",
    "3 2\n-1 0\n2 1\n",
    "11 1\n1_0 1\n",
    "3 1\n0 ²\n",
    "3 1\n0 ٢\n",
    "٣ 1\n0 1\n",
    "3 1\n0 1 2\n",
    "3 1\n0 1 ",
    "3 1\n0 " + "1" * 5000 + "\n",
    # rejected arcs, and the first of them is the one named
    "3 3\n0 1\n2 1\n0 1\n",
    "3 2\n0 1\n1 1\n",
    "3 2\n2 1\n0 3\n",
    "3 3\n0 5\n1 1\n0 1\n",
    "3 3\n0 1\n0 1\n2 2\n",
    # too few or too many lines
    "3 3\n0 1\n2 1\n",
    "3 1\n0 1\n2 1\n",
    "3 0\n0 1\n",
    "3 2\n",
    "",
    "\n",
    "3\n",
    "3 x\n",
]


@pytest.mark.parametrize("text", BULK_TEXTS)
def test_bulk_parse_takes_plain_texts(text):
    assert assert_bulk_agrees(text)


@pytest.mark.parametrize("text", PER_LINE_TEXTS)
def test_bulk_parse_leaves_other_texts_to_per_line_reader(text):
    assert not assert_bulk_agrees(text)


def test_bulk_parse_reads_leading_zeros_as_the_same_vertex():
    # "7" and "007" are two tokens naming one vertex, so a text naming one arc
    # both ways fails the bulk read's duplicate check and gets the per-line
    # reader's error
    text = "8 2\n0 7\n0 007\n"
    assert not assert_bulk_agrees(text)
    with pytest.raises(ae.AntembedError, match=r"^duplicate arc \(0,7\) rejected$"):
        ae.parse_arclist(text)
    assert assert_bulk_agrees("8 2\n0 7\n1 007\n")
    assert ae.parse_arclist("8 2\n0 7\n1 007\n")[0] == ae.Digraph(8, [(0, 7), (1, 7)])


def test_bulk_parse_of_heavily_repeated_names(seed=25):
    # few vertices and many arcs, each name written with 0 to 2 leading zeros
    rng = random.Random(seed)
    for _ in range(40):
        n = rng.randint(2, 14)
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        arcs = rng.sample(pairs, rng.randint(len(pairs) // 2, len(pairs)))
        name = lambda v: "0" * rng.choice((0, 0, 1, 2)) + str(v)
        text = f"{n} {len(arcs)}\n" + "".join(f"{name(u)} {name(v)}\n" for u, v in arcs)
        assert assert_bulk_agrees(text)
        assert ae.parse_arclist(text)[0].arcs == tuple(arcs)


# The bulk reader's former body check, the reference for ``digraph._BULK``:
# the first line is matched, then a search looks at every line break for one
# followed neither by the end nor by a plain line.
REF_FIRST_LINE = re.compile(r"[0-9]+[ \t]+[0-9]+(?:\n|\Z)")
REF_BAD_LINE = re.compile(r"\n(?!\Z|[0-9]+[ \t]+[0-9]+(?:\n|\Z))")


def reference_bulk_check(text):
    return bool(REF_FIRST_LINE.match(text)) and not REF_BAD_LINE.search(text)


def test_bulk_check_matches_the_lookahead_reference(seed=33):
    # lines of digits, spaces, tabs, \r, #, x and -, mostly plain "u v" lines
    # with a character or two changed; texts end in zero, one or two line
    # breaks, and a one-line text with none has no \n at all
    rng = random.Random(seed)
    chars = "0123456789 \t\r#x-"
    digits = lambda: "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))

    def line():
        if rng.random() < 0.1:
            return ""
        ln = list(digits() + rng.choice([" ", "\t", "  ", " \t"]) + digits())
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            j = rng.randrange(len(ln) + 1)
            if rng.random() < 0.5 and j < len(ln):
                ln[j] = rng.choice(chars)
            else:
                ln.insert(j, rng.choice(chars))
        return "".join(ln)

    taken = {True: 0, False: 0}
    for _ in range(4000):
        text = "\n".join(line() for _ in range(rng.randint(1, 6))) + "\n" * rng.choice((0, 1, 2))
        want = reference_bulk_check(text)
        assert (digraph._BULK.fullmatch(text) is not None) == want, text
        taken[want] += 1
    assert min(taken.values()) > 1000
