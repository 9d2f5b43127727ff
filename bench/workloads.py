"""The three workloads, each a fixed-shape batch of CLI requests made from a seed.

Every batch of a workload has the same number of requests of each cost
class; the seed changes the spellings, parameters, relabelings and order.
That keeps the latency percentiles of different seeds comparable: a
percentile falls on the same class of request whatever the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle


@dataclass
class Request:
    argv: list[str]
    exit: int
    outcome: str | None = None
    value: object = None
    malformed: bool = False
    known_defect: str = ""
    # (outcome, value) pairs also accepted with exit 0, for a request capped
    # by --budget: a faster search may finish within the cap
    if_finished: tuple = ()
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    requests: list[Request]
    nominal_batch_s: float


class Inputs:
    """Writes the generated graph and hypergraph files into the work dir."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def write(self, stem: str, text: str) -> str:
        self.count += 1
        path = self.workdir / f"{stem}-{self.count}.txt"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def missing(self, stem: str) -> str:
        self.count += 1
        return str(self.workdir / f"missing-{stem}-{self.count}.txt")


FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture(name: str):
    """A committed hypergraph: a claim51, truncated-plane or bijection
    construction, saved once so that every commit is timed on the same input."""
    return oracle.parse_hypergraph((FIXTURES / f"{name}.txt").read_text(encoding="utf-8"))


def checker_kind(family: str) -> str:
    """Which incremental checker dominates a family's search: p4, path
    (PATH:l, l >= 3), matching (MATCH:m, m >= 2), star, or other."""
    tokens = family.upper().split(",")
    if any(t in ("P4", "F2", "F4", "F6", "F7") for t in tokens):
        return "p4"
    if any(t.startswith("PATH:") and int(t[5:]) >= 3 for t in tokens):
        return "path"
    if any(t.startswith("MATCH:") and int(t[6:]) >= 2 for t in tokens):
        return "matching"
    if any(t in ("S3", "F3", "F5") or t.startswith(("STAR:", "PATH:")) for t in tokens):
        return "star"
    return "other"


def _ramsey(rng, family: str, k: int, spellings, reference,
            budget: int | None = None) -> Request:
    argv = ["ramsey", "--family", rng.choice(spellings), "--colors", str(k)]
    tags = {"kind": checker_kind(family)}
    value = reference(family, k)
    if budget is not None:
        argv += ["--budget", str(budget)]
        return Request(argv, 2, "UNKNOWN", None, if_finished=(("VALUE", value),), tags=tags)
    argv += ["--cap", str(rng.randint(value + 1, 32))]
    return Request(argv, 0, "VALUE", value, tags=tags)


# -- ck_search --------------------------------------------------------------------

_P4_F4 = ("F4", "K3,P4", "F1,F2", "F1,P4", "K3,F2")
_P4_F2 = ("F2", "P4")
_STAR_F3 = ("F3", "S3", "STAR:2")
_STAR_F5 = ("F5", "K3,S3", "F1,STAR:2")

# (family, k, spellings, budget); one request each per batch
CK_CASES = [
    # the four checker kinds at full size, and one open case capped by budget
    ("F4", 4, _P4_F4, None),
    ("F3", 7, _STAR_F3, None),
    ("K3,PATH:4", 3, ("K3,PATH:4", "F1,PATH:4"), None),
    ("MATCH:3", 2, ("MATCH:3",), None),
    ("F2", 4, _P4_F2, 200_000),
    # mid-sized; F3 k=5 and F2 k=3 come four and six times, so the tail and
    # the median percentile fall inside their blocks
    *[("F3", 5, _STAR_F3, None)] * 4,
    ("MATCH:2", 4, ("MATCH:2",), None),
    ("PATH:3", 3, ("PATH:3",), None),
    *[("F2", 3, _P4_F2, None)] * 6,
    # small
    ("F1", 2, ("F1", "K3"), None),
    ("F2", 2, _P4_F2, None),
    ("F4", 3, _P4_F4, None),
    ("F4", 2, _P4_F4, None),
    ("F6", 2, ("F6", "P4,S3"), None),
    ("F3", 4, _STAR_F3, None),
    ("F5", 3, _STAR_F5, None),
    ("F5", 4, _STAR_F5, None),
    ("STAR:1", 5, ("STAR:1", "PATH:2"), None),
    ("MATCH:3", 1, ("MATCH:3",), None),
    ("MATCH:4", 1, ("MATCH:4",), None),
    ("K3,PATH:4", 2, ("K3,PATH:4", "F1,PATH:4"), None),
]


def ck_search(seed: int, inputs: Inputs, reference) -> Workload:
    rng = random.Random(f"ck_search/{seed}")
    reqs = [_ramsey(rng, fam, k, sp, reference, budget) for fam, k, sp, budget in CK_CASES]
    rng.shuffle(reqs)
    return Workload("ck_search", reqs, 12.5)


# -- factor_match -------------------------------------------------------------------


def _cover(n: int, r: int, outcome: str, *flags: str, budget: int | None = None) -> Request:
    argv = ["cover", "--n", str(n), "--r", str(r), *flags]
    tags = {"decomposition": "--decomposition" in flags}
    if budget is not None:
        # either answer is accepted once verify accepts its certificate
        return Request(argv + ["--budget", str(budget)], 2, "UNKNOWN", None,
                       if_finished=(("EXISTS", None), ("NOT_EXISTS", None)), tags=tags)
    return Request(argv, 0, outcome, None, tags=tags)


def _match(inputs: Inputs, stem: str, sizes, edges, value: int) -> Request:
    path = inputs.write(stem, oracle.hypergraph_text(sizes, edges))
    return Request(["match", "--hypergraph", path], 0, "VALUE", value,
                   tags={"r": len(sizes)})


def _chi_graph(inputs: Inputs, stem: str, n: int, edges, value: int) -> Request:
    path = inputs.write(stem, oracle.graph_text(n, edges))
    return Request(["chi", "--graph", path], 0, "VALUE", value)


def factor_match(seed: int, inputs: Inputs) -> Workload:
    rng = random.Random(f"factor_match/{seed}")
    reqs: list[Request] = []
    # chi on seeded relabelings of triangle-free Mycielski graphs M(M(C_11))
    # and M(M(C_9)), chromatic number 5.  M6 would be harder, but its cost
    # moves by about 20% with the relabeling, which no other request in the
    # batch averages out.
    for length, copies in ((11, 1), (9, 3)):
        n, e = oracle.mycielski(length, oracle.cycle(length), 2)
        for _ in range(copies):
            reqs.append(_chi_graph(inputs, f"mmc{length}", n, oracle.relabel(n, e, rng), 5))
    reqs.append(Request(["ach", "--d", "7"], 0, "EXISTS", 7))
    for _ in range(2):  # two alike, so the tail percentile falls inside this block
        reqs.append(_cover(10, 5, "UNKNOWN", "--decomposition", budget=100_000))
    reqs.append(Request(["max-cover", "--n", "8", "--r", "4"], 0, "VALUE", 28))
    for p, m in ((2, 3), (3, 2)):
        sizes, edges = fixture(f"claim51-p{p}-m{m}")
        reqs.append(_match(inputs, "claim51", sizes,
                           oracle.relabel_hypergraph(sizes, edges, rng), m))
    # seeded relabelings of four fixed random 2-partite and four 3-partite
    # multihypergraphs.  Fresh random instances are not used: now and then one
    # takes seconds in the exponential matcher (a 2-partite one of size 30
    # took 10.5 s), which swamps the batch of that seed.
    for r, size, m, solve in ((2, 30, 100, oracle.bipartite_matching),
                              (3, 16, 70, oracle.partite_matching)):
        for i in range(4):
            edges = oracle.random_hypergraph(r, size, m, random.Random(f"base/{r}/{i}"))
            edges = oracle.relabel_hypergraph([size] * r, edges, rng)
            reqs.append(_match(inputs, f"r{r}", [size] * r, edges, solve([size] * r, edges)))
    # p = 7 has the slowest verify of the batch; four of them put the verify
    # tail percentile inside their block
    for p in (2, 3, 3, 5, 7, 7, 7, 7):
        sizes, edges = fixture(f"truncated-plane-p{p}")
        path = inputs.write("tplane", oracle.hypergraph_text(
            sizes, oracle.relabel_hypergraph(sizes, edges, rng)))
        reqs.append(Request(["chromatic-index", "--hypergraph", path], 0, "VALUE", p * p))
    # the small requests are more than half of the batch, so the median
    # percentile falls among them
    for length, times in ((5, 1), (5, 1), (5, 1), (5, 2)):
        n, e = oracle.mycielski(length, oracle.cycle(length), times)
        reqs.append(_chi_graph(inputs, "grotzsch", n, oracle.relabel(n, e, rng), 3 + times))
    for p, m in ((2, 1), (2, 1), (3, 1)):
        sizes, edges = fixture(f"claim51-p{p}-m{m}")
        reqs.append(_match(inputs, "claim51", sizes,
                           oracle.relabel_hypergraph(sizes, edges, rng), m))
    reqs += [
        _cover(3, 1, "EXISTS"),
        _cover(3, 1, "EXISTS", "--decomposition"),
        _cover(4, 2, "NOT_EXISTS"),
        _cover(4, 2, "NOT_EXISTS", "--decomposition"),
        _cover(5, 3, "EXISTS"),
        _cover(5, 3, "EXISTS", "--decomposition"),
        _cover(6, 3, "NOT_EXISTS"),
        _cover(6, 3, "NOT_EXISTS", "--decomposition"),
        _cover(8, 4, "EXISTS"),
        _cover(6, 3, "NOT_EXISTS"),
        _cover(9, 4, "EXISTS", "--proper", "--decomposition"),
        _cover(9, 5, "EXISTS", "--decomposition"),
        _cover(6, 2, "NOT_EXISTS", "--proper"),
        Request(["max-cover", "--n", "3", "--r", "1"], 0, "VALUE", 3),
        Request(["max-cover", "--n", "4", "--r", "2"], 0, "VALUE", 5),
        Request(["max-cover", "--n", "5", "--r", "3"], 0, "VALUE", 10),
        Request(["max-cover", "--n", "6", "--r", "3"], 0, "VALUE", 13),
    ]
    for _ in range(9):
        r, n = rng.randint(2, 3), rng.randint(3, 4)
        reqs.append(Request(["bijection", "--random", str(r), str(n),
                             "--seed", str(rng.randrange(10**6))], 0, "EXISTS", None))
    rng.shuffle(reqs)
    return Workload("factor_match", reqs, 5.0)


# -- cli_certify --------------------------------------------------------------------

PER_COMMAND = 12
MALFORMED = 24


def _graph_source(rng, inputs: Inputs, command: str, kind: str) -> tuple[list[str], int]:
    """A seeded graph argument for chi/clique/core and its reference value."""
    d = rng.randint(0, 4)
    if kind == "complete":
        n = rng.randint(2, 12)
        vals = {"chi": n, "clique": n, "core": n if d <= n - 1 else 0}
        argv = ["--complete", str(n)]
    elif kind == "cycle":
        n = rng.randint(3, 20)
        vals = {"chi": 2 + n % 2, "clique": 3 if n == 3 else 2, "core": n if d <= 2 else 0}
        argv = ["--cycle", str(n)]
    elif kind == "path":
        n = rng.randint(2, 20)
        vals = {"chi": 2, "clique": 2, "core": n if d <= 1 else 0}
        argv = ["--path", str(n)]
    elif kind == "star":
        leaves = rng.randint(1, 20)
        vals = {"chi": 2, "clique": 2, "core": leaves + 1 if d <= 1 else 0}
        argv = ["--star", str(leaves)]
    else:
        n = rng.randint(3, 8)
        p = rng.choice((0.3, 0.5, 0.7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        vals = {"chi": oracle.chromatic_number(n, edges),
                "clique": oracle.clique_number(n, edges),
                "core": oracle.core_size(n, edges, d)}
        argv = ["--graph", inputs.write("g", oracle.graph_text(n, edges))]
    if command == "core":
        argv += ["--d", str(d)]
    return argv, vals[command]


def _small_hypergraph(rng, inputs: Inputs, r: int, chromatic: bool) -> tuple[str, int]:
    sizes = [6] * r
    edges = oracle.random_hypergraph(r, 6, rng.randint(6, 12), rng)
    value = (oracle.max_degree(sizes, edges) if chromatic
             else oracle.partite_matching(sizes, edges))
    return inputs.write("h", oracle.hypergraph_text(sizes, edges)), value


_GRAPH_KINDS = ("complete", "cycle", "path", "star", "graph")

# Parameter choices per issuing subcommand.  Each batch cycles through a
# seed-shuffled copy, so the heavier choices (plane --p 7, ach --d 5) occur
# equally often for every seed.
OPTIONS: dict[str, list] = {
    "chi": list(_GRAPH_KINDS),
    "clique": list(_GRAPH_KINDS),
    "core": list(_GRAPH_KINDS),
    "ramsey": [("F1", 1), ("F1", 2), ("F2", 1), ("F2", 2), ("F3", 1), ("F3", 2),
               ("F3", 3), ("F4", 1), ("F4", 2), ("F5", 1), ("F5", 2), ("F6", 1),
               ("F6", 2), ("MATCH:3", 1), ("STAR:1", 3), ("PATH:2", 4)],
    "closed-form": sorted(oracle.CLOSED_FORM_POINTS.items()),
    "cover": [(3, 1, (), "EXISTS"), (4, 2, (), "NOT_EXISTS"), (5, 3, (), "EXISTS"),
              (6, 3, (), "NOT_EXISTS"), (6, 3, ("--decomposition",), "NOT_EXISTS"),
              (6, 2, ("--proper",), "NOT_EXISTS"), (8, 4, (), "EXISTS"),
              (9, 4, ("--proper", "--decomposition"), "EXISTS")],
    "max-cover": [(3, 1, 3), (4, 2, 5), (5, 3, 10), (6, 3, 13)],
    "walecki": list(range(1, 9)),
    "galaxy": list(range(2, 9)),
    "k11": [None],
    "chi-r": list(range(1, 13)),
    "bijection": ["file"] + [(r, n) for r in (1, 2, 3) for n in (2, 3, 4)],
    "match": [2, 3],
    "chromatic-index": [2],
    "ach": [4, 5],
    "plane": [2, 3, 5, 7],
    "truncated-plane": [2, 3, 5],
    "claim51": [(2, 1, None), (2, 2, None), (3, 1, None), (3, 2, None),
                (2, 1, 5), (3, 1, 6)],
}


def _valid(command: str, choice, rng, inputs: Inputs, reference, factor_hg) -> Request:
    def req(argv, outcome="VALUE", value=None, exit_code=0, **tags):
        return Request([command, *map(str, argv)], exit_code, outcome, value, tags=tags)

    if command in ("chi", "clique", "core"):
        argv, value = _graph_source(rng, inputs, command, choice)
        return req(argv, value=value)
    if command == "ramsey":
        fam, k = choice
        return req(["--family", fam, "--colors", k], value=reference(fam, k),
                   kind=checker_kind(fam))
    if command == "closed-form":
        (fam, k), value = choice
        if value is None:
            return req(["--family", fam, "--colors", k], "UNKNOWN", None, 2)
        return req(["--family", fam, "--colors", k], value=value)
    if command == "cover":
        n, r, flags, outcome = choice
        return req(["--n", n, "--r", r, *flags], outcome,
                   decomposition="--decomposition" in flags)
    if command == "max-cover":
        n, r, value = choice
        return req(["--n", n, "--r", r], value=value)
    if command in ("walecki", "galaxy"):
        return req(["--k", choice], "EXISTS")
    if command == "k11":
        return req([], "EXISTS")
    if command == "chi-r":
        value = oracle.chi_r_reference(choice)
        if value is None:
            return req(["--r", choice], "UNKNOWN", None, 2)
        return req(["--r", choice], value=value)
    if command == "bijection":
        if choice == "file":
            return req(["--hypergraph", rng.choice(factor_hg)], "EXISTS")
        return req(["--random", *choice, "--seed", rng.randrange(10**6)], "EXISTS")
    if command in ("match", "chromatic-index"):
        path, value = _small_hypergraph(rng, inputs, choice, command == "chromatic-index")
        return req(["--hypergraph", path], value=value, r=choice)
    if command == "ach":
        return req(["--d", choice], "EXISTS", choice)
    if command in ("plane", "truncated-plane"):
        return req(["--p", choice], "EXISTS")
    if command == "claim51":
        p, m, uniformity = choice
        argv = ["--p", p, "--m", m] + (["--uniformity", uniformity] if uniformity else [])
        return req(argv, "EXISTS", m)
    raise ValueError(command)


ISSUING = ("chi", "clique", "core", "ramsey", "closed-form", "cover", "max-cover",
           "walecki", "galaxy", "k11", "chi-r", "bijection", "match",
           "chromatic-index", "ach", "plane", "truncated-plane", "claim51")

_FILE_MISSING = "FileNotFoundError: @file family token is opened unguarded"
_ESCAPES = "ValidationError escapes run(): K_n above 64 vertices is built unchecked"
_ACH_SMALL = "VerificationError escapes run(): ach has no counterexample for d < 4"


def _malformed(rng, inputs: Inputs) -> Request:
    """One request from the malformed grammar; each must exit 1 with a coded
    error.  Rules marked with a defect raise a traceback at the commit that
    added the benchmark; they stay in the grammar so the defect shows."""
    rule = rng.choice(("graph-file", "hypergraph-file", "family-file", "n", "k",
                       "d", "p", "token"))
    defect = ""
    if rule == "graph-file":
        argv = [rng.choice(("chi", "clique")), "--graph", inputs.missing("graph")]
    elif rule == "hypergraph-file":
        argv = [rng.choice(("match", "chromatic-index", "bijection")),
                "--hypergraph", inputs.missing("hypergraph")]
    elif rule == "family-file":
        argv = ["ramsey", "--family", "@" + inputs.missing("family"), "--colors", "2"]
        defect = _FILE_MISSING
    elif rule == "n":
        form = rng.choice(("complete", "cycle", "path", "cover", "max-cover"))
        if form == "complete":
            argv = [rng.choice(("chi", "clique")), "--complete", str(rng.randint(65, 80))]
            defect = _ESCAPES
        elif form in ("cycle", "path"):
            argv = ["chi", f"--{form}", str(rng.randint(65, 80))]
        elif form == "cover":
            argv = ["cover", "--n", str(rng.choice((0, 17, 20))), "--r", "3"]
        else:
            argv = ["max-cover", "--n", str(rng.choice((0, 13, 15))), "--r", "3"]
    elif rule == "k":
        argv = rng.choice((["ramsey", "--family", "F1", "--colors"],
                           ["closed-form", "--family", "F2", "--colors"],
                           ["walecki", "--k"]))
        argv = argv + [str(rng.randint(-3, 0))]
    elif rule == "d":
        d = rng.randint(-2, 3)
        argv = ["ach", "--d", str(d)]
        if d >= 2:
            defect = _ACH_SMALL
    elif rule == "p":
        argv = [rng.choice(("plane", "truncated-plane")), "--p", str(rng.choice((1, 4, 6, 9)))]
    else:
        argv = [rng.choice(("ramsey", "closed-form")), "--family",
                rng.choice(("QUUX", "K4", "F9", "STAR:x", "PATH:0")), "--colors", "2"]
    return Request(argv, 1, malformed=True, known_defect=defect)


def cli_certify(seed: int, inputs: Inputs, reference) -> Workload:
    rng = random.Random(f"cli_certify/{seed}")
    factor_hg = []
    for r in (2, 3, 2):
        sizes, edges = fixture(f"bijection-r{r}-n3-s{rng.randint(1, 3)}")
        factor_hg.append(inputs.write("factors", oracle.hypergraph_text(
            sizes, oracle.relabel_hypergraph(sizes, edges, rng))))
    reqs = []
    for command in ISSUING:
        choices = list(OPTIONS[command])
        rng.shuffle(choices)
        if command == "closed-form":  # a fixed share of exit-2 requests
            choices = ([c for c in choices if c[1] is not None][:PER_COMMAND - 3]
                       + [c for c in choices if c[1] is None][:3])
        reqs += [_valid(command, choices[j % len(choices)], rng, inputs, reference, factor_hg)
                 for j in range(PER_COMMAND)]
    reqs += [_malformed(rng, inputs) for _ in range(MALFORMED)]
    rng.shuffle(reqs)
    return Workload("cli_certify", reqs, 3.0)


def build(name: str, seed: int, inputs: Inputs, reference) -> Workload:
    if name == "ck_search":
        return ck_search(seed, inputs, reference)
    if name == "factor_match":
        return factor_match(seed, inputs)
    if name == "cli_certify":
        return cli_certify(seed, inputs, reference)
    raise ValueError(f"unknown workload {name!r}")
