"""Golden CLI bytes.

``omniex rates``, ``ilp`` and ``code`` run on the bundled fixtures and on a
small seeded linear corpus, and the sha256 of each standard output must
equal a digest recorded from the per-subset elimination oracle.  For
``code`` the digest also covers the scheme file it writes.  A few seeded
pmf documents go through ``omniex rates`` too, so the float path of
the sweep is gated as well.  This is the byte-identical gate for changes
to the rank kernel, the entropy oracle or the solvers: any change in a
single output byte fails here, where
``test_outputs_are_byte_identical_across_runs`` only compares two runs of
the same build.
"""

import hashlib
import itertools
import json
import math
import random

import pytest

from omniex import FieldMatrix, fixtures
from omniex.cli import main

from conftest import random_linear_source

CORPUS_SEED = 8101
PMF_SEED = 8102
P61 = (1 << 61) - 1

# (m, N, p) per corpus document; p > m so that ``code`` applies.
SHAPES = (
    (3, 4, 5),
    (4, 6, 7),
    (5, 6, 11),
    (6, 5, 7),
    (6, 8, 101),
    (7, 8, 101),
    (5, 7, P61),
    (7, 6, P61),
)

# (m, N, p) per larger linear document, run through ``omniex rates`` only:
# a 2^m subset-rank table wide enough to exercise the rank kernel's packed
# rows at a small and at a 61-bit modulus, and one of 2^13 subsets for the
# sweep over the flat table.  Drawn from their own seed so the corpus above
# stays as it was.
LARGE_SEED = 8103
LARGE_SHAPES = (
    (11, 22, 101),
    (10, 20, P61),
    (13, 26, 101),
)

# (m, weighted) per binary pmf document.
PMF_SHAPES = (
    (4, False),
    (5, True),
    (6, False),
    (6, True),
)

# (alphabets, weighted, share of outcomes left out) per further pmf
# document: ternary, mixed with a size-1 axis and zero entries, and
# weighted binary ones of 256 and of 4096 outcomes.  Drawn from their own
# seed so the documents above stay as they were.
PMF_MORE = (
    ((3,) * 5, False, 0.0),
    ((3, 1, 2, 4, 2), False, 0.3),
    ((2,) * 8, True, 0.0),
    ((2,) * 12, True, 0.0),
)

# One further pmf document whose outcome keys are spelled every way int()
# accepts: signs, spaces, underscores, zero padding beyond 18 digits and
# non-ASCII digits, so the slow path of the key parse is gated too.  Drawn
# from its own seed so the documents above stay as they were.
ODD_KEY_SEED = 8104
ODD_KEY_ALPHABETS = (3, 2, 3, 2, 2)
ODD_SPELLINGS = (
    str,
    lambda s: f"+{s}",
    lambda s: f" {s}  ",
    lambda s: "-0" if s == 0 else str(s),
    lambda s: "0" * 30 + str(s),
    lambda s: f"0_{s}",
    lambda s: chr(0x0660 + s),
)

GOLDEN = {
    "example1 rates":
        "3d68b4f74c1e0dbcc5d80dc70039caa233ef16e0307a52a27057b2b2f4c1db93",
    "example1 ilp":
        "e847d445cf692218e1ed01dcb690ebd61bf577794f3fecb6ca42c3f682606bbc",
    "example1 code":
        "6dddf19dbad8bd64dc7673cb4efd57c4088677a188b7978c637855f04f588a21",
    "figure1 rates":
        "7b8f3ee758b11a5dec666b8c18c3f5e1b5639027e3d261020636d3865bdd040a",
    "figure1 ilp":
        "1e78c8b03018a4071894aeabaf605fe4d289d69455497fdfe97f4a4187807a8b",
    "figure1 code":
        "afa1558609807ebdaa111e56d7e993c258b75a107549e379860662b269de80f4",
    "corpus0 rates":
        "c6e2eb9c73c1ef25698af91b2624116b5bdce19a7e3c3f1a87d7f598904d3d8f",
    "corpus0 ilp":
        "64e4a3e9009aee6784a6456640f77478ce55edf13c8868265c855e288e342052",
    "corpus0 code":
        "5bc60dac639225e3aaf06445232f08b1dae7ae14a70c80a8496ee31c7f3d3f2f",
    "corpus1 rates":
        "f54f9166e75d8667b426a0544ddc862ad32bf536d24c7ce9e3e560d9fec955d2",
    "corpus1 ilp":
        "7fc16681cbc3028c8d2399586c72b7a1a6fb51170248dfe55291ce4f6e2fc1b2",
    "corpus1 code":
        "c34d66fb4c6fb1d908ea85be5c821429f1cf498316bc5b87b1aed33fd3b4e3a3",
    "corpus2 rates":
        "4dffed0a96dd9d4feb3004c57cae4cea4c6011eb316079d88e0ba0c4f04caa8e",
    "corpus2 ilp":
        "bfa3bab4ed4cadf4d45afa5163179ef394c15400a596af5adec25954f83ac5ed",
    "corpus2 code":
        "f5fe5dcae2708c5368113766a4baa0b87d1b3042e510be812833df04a4fed16e",
    "corpus3 rates":
        "3abc04d1a0847b4cce56a321c355a2999e5f6a48b85d28c0c1eecea367e3eef4",
    "corpus3 ilp":
        "93cc810acdec6718a695270cda443b45543496fbf01c870dd48d46e40d9adea3",
    "corpus3 code":
        "648165a6298b3dca97fb4d6c34cd346a0218aea73aac82a2bb17fbde3b4cdd4c",
    "corpus4 rates":
        "a88152b374c87e75eb31522bfa7ead9d543b9aaf2b69202e4f23a901590a8234",
    "corpus4 ilp":
        "62670c984a3e06444ed292274f0984e15aa4967c8be01d727d356d9f3b6ed7c5",
    "corpus4 code":
        "def85cd4eca3778af04255010bb10c16b4660e3af3ed42cc9c672f11516d2092",
    "corpus5 rates":
        "f2a4eb104e269db7abaeb754ba758f96bf21871add28888ebc53fb34062e4bcc",
    "corpus5 ilp":
        "8bd3476615f7e4a76fe42fe168e4604dff3f2acf53b4393f328c4e0d3fe7c820",
    "corpus5 code":
        "281f63c53d1d4368271db94a708926bcf6e6b1c790952d89438280e82b10f410",
    "corpus6 rates":
        "983ef4eb5e24d0942156cd65cd51895e3e7d29b593352c05ceaa83d3e65ef04d",
    "corpus6 ilp":
        "b72d428770e2b19d5405263fdc7aea3605286b0913aa2dcb4feca11092fd7295",
    "corpus6 code":
        "35edf0b1b13898de2e3a7b4bc8c21846f8c61a5a07bfa8e9b119b278e18454ca",
    "corpus7 rates":
        "04451527489afa112496fb85696b29e68fd088f4e8423fd85ded47f1f3aed7af",
    "corpus7 ilp":
        "0f6ba7e61444f7c9bad1af57edd80812b478939e61e5a3b5cc0556fcfdf161b2",
    "corpus7 code":
        "1f5887ebc5f337dd7ab1fc3581d56b99c60d733e1c80bba69429d30cc786f84a",
    "pmf0 rates":
        "790c5612774d07e1ac6840652a2606e0d5fce8a42141c9ea10c02c875ca5fc4a",
    "pmf1 rates":
        "681a47125dc2191c069d49ff24b658a7ef703151d25d06be8eedaea31857e556",
    "pmf2 rates":
        "ab1f23fc3d41e2710cb2d91c0fcffde10ed6807043075fe838741e052edc9568",
    "pmf3 rates":
        "5c1a0ae24d83dc390ec6855ba6e7d50ad813bb36c3f9962643b5fe246a917e64",
    "pmf4 rates":
        "504dc3668c70f481e4c1c87fb15eaf953995b44236db555f0519fb82341d85dc",
    "pmf5 rates":
        "90664f25ebbe303426fbdb5ae0074e43e4a5d0e8c8de637d53d1c19ed12edbd4",
    "pmf6 rates":
        "17cff72b666d5531d586139d6b58a4eaadc22a89b0ff5eb6750e6a84acbf97fe",
    "pmf7 rates":
        "137a20d32cee58ec62d3168a4ce15ed26a53da17d6027b9ee26de962778564a6",
    "large0 rates":
        "cdfd35bed368dde70d55713b6a9076a14d66906f0fe7d8816faefc179f1109c6",
    "large1 rates":
        "bb35d0f2beee82dfb6dbecccdf9b0642025689bb71c26586122b0f45a26506e8",
    "large2 rates":
        "dd825802e4606507d08d59b52f7498126302b7be6707825f6d11f271722c21f4",
    "oddkeys rates":
        "a03450baf478a648746a5586ca5eb3964f03523778ac0a3c9fb7cba72011d0f8",
}


def pmf_documents() -> dict[str, dict]:
    """pmfs with skewed outcome weights, so the users' observations are
    correlated and the sweeps meet proper partitions: full-support binary
    ones, then the ``PMF_MORE`` shapes."""
    rng = random.Random(PMF_SEED)
    out = {}
    for k, (m, weighted) in enumerate(PMF_SHAPES):
        outcomes = list(itertools.product(range(2), repeat=m))
        raw = [rng.random() ** 4 + 1e-6 for _ in outcomes]
        total = math.fsum(raw)
        doc = {"source": {"kind": "pmf", "alphabets": [2] * m,
                          "entries": {",".join(map(str, o)): w / total
                                      for o, w in zip(outcomes, raw)}}}
        if weighted:
            doc["weights"] = [rng.randint(1, 4) for _ in range(m)]
        out[f"pmf{k}"] = doc
    rng = random.Random(PMF_SEED + 1)
    for k, (alphabets, weighted, dropped) in enumerate(PMF_MORE, len(out)):
        outcomes = [o for o in itertools.product(*map(range, alphabets))
                    if rng.random() >= dropped]
        raw = [rng.random() ** 4 + 1e-6 for _ in outcomes]
        total = math.fsum(raw)
        doc = {"source": {"kind": "pmf", "alphabets": list(alphabets),
                          "entries": {",".join(map(str, o)): w / total
                                      for o, w in zip(outcomes, raw)}}}
        if weighted:
            doc["weights"] = [rng.randint(1, 4) for _ in alphabets]
        out[f"pmf{k}"] = doc
    return out


def odd_key_documents() -> dict[str, dict]:
    """A weighted pmf on ``ODD_KEY_ALPHABETS`` with every outcome listed
    once, each symbol spelled with a random choice of ``ODD_SPELLINGS``."""
    rng = random.Random(ODD_KEY_SEED)
    outcomes = list(itertools.product(*map(range, ODD_KEY_ALPHABETS)))
    raw = [rng.random() ** 4 + 1e-6 for _ in outcomes]
    total = math.fsum(raw)
    entries = {",".join(rng.choice(ODD_SPELLINGS)(s) for s in o): w / total
               for o, w in zip(outcomes, raw)}
    return {"oddkeys": {
        "source": {"kind": "pmf", "alphabets": list(ODD_KEY_ALPHABETS),
                   "entries": entries},
        "weights": [rng.randint(1, 4) for _ in ODD_KEY_ALPHABETS]}}


def corpus_documents() -> dict[str, dict]:
    rng = random.Random(CORPUS_SEED)
    out = {}
    for k, (m, n_packets, p) in enumerate(SHAPES):
        src = random_linear_source(rng, m=m, n_packets=n_packets, p=p)
        doc = {
            "source": {"kind": "linear", "p": p, "N": n_packets,
                       "matrices": [a.to_rows() for a in src.matrices]},
            "n": 1 + k % 3,
            "seed": k,
        }
        if k % 2:
            doc["weights"] = [rng.randint(1, 4) for _ in range(m)]
        out[f"corpus{k}"] = doc
    return out


def large_documents() -> dict[str, dict]:
    """Users of one to four random rows, half of them with one more row
    combining the previous user's first two, topped up with unit rows
    until the users determine W: most subsets stay below rank N."""
    rng = random.Random(LARGE_SEED)
    out = {}
    for k, (m, n_packets, p) in enumerate(LARGE_SHAPES):
        users = []
        for i in range(m):
            rows = [[rng.randrange(p) for _ in range(n_packets)]
                    for _ in range(rng.randint(1, 4))]
            if users and len(users[-1]) > 1 and rng.random() < 0.5:
                a, b = users[-1][:2]
                rows.append([(2 * x + y) % p for x, y in zip(a, b)])
            users.append(rows)
        everyone = FieldMatrix.from_rows([r for rows in users for r in rows], p)
        rank = everyone.rank()
        for c in range(n_packets):
            unit = [0] * n_packets
            unit[c] = 1
            grown = FieldMatrix.from_rows([*everyone.to_rows(), unit], p).rank()
            if grown > rank:
                users[c % m].append(unit)
                everyone = FieldMatrix.from_rows([*everyone.to_rows(), unit], p)
                rank = grown
        out[f"large{k}"] = {
            "source": {"kind": "linear", "p": p, "N": n_packets,
                       "matrices": users}}
    return out


DOCUMENTS = ["example1", "figure1", *corpus_documents()]
CASES = [f"{doc} {command}" for doc in DOCUMENTS
         for command in ("rates", "ilp", "code")]
CASES += [f"{doc} rates" for doc in pmf_documents()]
CASES += [f"{doc} rates" for doc in large_documents()]
CASES += [f"{doc} rates" for doc in odd_key_documents()]


def run_case(case: str, tmp_path, monkeypatch, capsys) -> bytes:
    """Run one CLI case; returns its stdout, plus the scheme for ``code``."""
    name, command = case.split()
    if name in fixtures.names():
        problem = str(fixtures.path(name))
    else:
        problem = str(tmp_path / f"{name}.json")
        documents = {**corpus_documents(), **pmf_documents(),
                     **large_documents(), **odd_key_documents()}
        with open(problem, "w", encoding="utf-8") as fh:
            json.dump(documents[name], fh)
    monkeypatch.chdir(tmp_path)
    argv = [command, problem]
    if command == "code":
        argv += ["--out", "scheme.json"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    blob = captured.out.encode("utf-8")
    if command == "code":
        blob += b"\0" + (tmp_path / "scheme.json").read_bytes()
    return blob


@pytest.mark.parametrize("case", CASES)
def test_cli_output_matches_golden_digest(case, tmp_path, monkeypatch, capsys):
    digest = hashlib.sha256(run_case(case, tmp_path, monkeypatch, capsys)).hexdigest()
    assert digest == GOLDEN[case]
