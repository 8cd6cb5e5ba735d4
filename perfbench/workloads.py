"""Seeded inputs and query lists of the three benchmark workloads.

Every workload is a fixed list of finkit command lines.  The seed changes the
contents of the generated table, family, relation and chain files and of the
random elements and sequences in argv, never their sizes or the shape of the
list, so every seed asks the same amount of structurally similar work.

This module uses only the standard library: it writes the text formats that
finkit parses, without importing finkit.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("search", "scan", "session")

# Inputs depend on the seed modulo VARIANTS, and the expected output of every
# variant is pinned, so every --seed is checked against a captured digest.
VARIANTS = 16


def _fmt_elem(pairs) -> str:
    return ",".join(f"{p}:{v}" for p, v in pairs)


def _fmt_seq(blocks) -> str:
    return ";".join(_fmt_elem(b) for b in blocks)


def _rand_values(rng: random.Random, positions, k: int):
    """Random values in 1..k on the given positions, with k attained."""
    vals = [rng.randint(1, k) for _ in positions]
    vals[rng.randrange(len(vals))] = k
    return list(zip(positions, vals))


def _rand_seq(rng: random.Random, k: int, length: int, nmax: int):
    """A block sequence of exactly `length` blocks supported in [0, nmax)."""
    cuts = sorted(rng.sample(range(1, nmax), length - 1))
    bounds = [0] + cuts + [nmax]
    blocks = []
    for lo, hi in zip(bounds, bounds[1:]):
        span = list(range(lo, hi))
        size = rng.randint(1, min(3, len(span)))
        blocks.append(_rand_values(rng, sorted(rng.sample(span, size)), k))
    return blocks


def _rand_elem(rng: random.Random, k: int, nmax: int, size: int):
    return _rand_values(rng, sorted(rng.sample(range(nmax), size)), k)


def _window_elements(k: int, nmax: int):
    """Every element of FIN_k supported in [0, nmax), as (pos, val) pairs."""
    for vec in itertools.product(range(k + 1), repeat=nmax):
        if k in vec:
            yield [(i, v) for i, v in enumerate(vec) if v]


def _condense(rng: random.Random, blocks):
    """A condensation one block shorter: drop the first block or merge two
    neighbours (a sum with both exponents 0 lies in the span)."""
    if rng.random() < 0.5 or len(blocks) < 2:
        return blocks[1:]
    i = rng.randrange(len(blocks) - 1)
    return blocks[:i] + [blocks[i] + blocks[i + 1]] + blocks[i + 2 :]


def _coloring_table(rng: random.Random, keys, r: int) -> str:
    return "".join(f"{key}\t{rng.randrange(r)}\n" for key in keys)


def _search(rng: random.Random):
    files = {
        "c1.tsv": _coloring_table(
            rng, (_fmt_elem(x) for x in _window_elements(1, 8)), 3
        ),
        "c2.tsv": _coloring_table(
            rng, (_fmt_elem(x) for x in _window_elements(2, 5)), 2
        ),
    }
    elems = list(_window_elements(1, 6))
    pairs = (
        f"{_fmt_elem(x)};{_fmt_elem(y)}"
        for x in elems
        for y in elems
        if x[-1][0] < y[0][0]
    )
    files["p1.tsv"] = _coloring_table(rng, pairs, 2)
    queries = [
        "gowers-verify --k 1 --nmax 4 --m 2",
        "gowers --k 1 --nmax 15 --coloring size_mod --r 3 --m 4",
        "gowers --k 2 --nmax 9 --coloring size_mod --m 4",
        "ramsey2 --k 1 --nmax 10 --coloring size_mod --n 3 --m 4",
        "gowers --k 1 --nmax 8 --coloring table:c1.tsv --r 3 --m 3",
        "gowers --k 2 --nmax 5 --coloring table:c2.tsv --m 2",
        "ramsey2 --k 1 --nmax 6 --coloring table:p1.tsv --n 2 --m 3",
    ]
    argv = [q.split() for q in queries]
    for _ in range(2):
        amb = _fmt_seq(_rand_seq(rng, 1, 8, 20))
        argv.append(
            "gowers --k 1 --nmax 20 --coloring max_mod --m 3 --json".split() + [amb]
        )
    return files, argv


def _scan(rng: random.Random):
    files = {}
    for name in ("f1.txt", "f2.txt"):
        lines = [_fmt_seq(_rand_seq(rng, 1, rng.randint(1, 3), 8)) for _ in range(12)]
        files[name] = "".join(line + "\n" for line in lines)
    elems = [_fmt_elem(x) for x in _window_elements(1, 7)]
    edges = [rng.sample(elems, 2) for _ in range(40)]
    files["r1.tsv"] = "".join(f"{a}\t{b}\n" for a, b in edges)
    gens = [";".join(f"{i}:1" for i in range(n)) for n in range(9)]
    queries = [
        "classify --k 1 --nmax 10 --relation size_parity --m 3",
        "classify --k 2 --nmax 8 --relation size_parity --m 2",
        "galvin --k 1 --nmax 10 --family min_even_first --m 3",
        "galvin --k 1 --nmax 8 --family support_ge:3 --m 3",
        "galvin --k 1 --nmax 8 --family explicit:f1.txt --m 3",
        "galvin --k 1 --nmax 8 --family explicit:f2.txt --m 2 --json",
        "classify --k 1 --nmax 7 --relation table:r1.tsv --m 2",
    ]
    argv = [q.split() for q in queries]
    argv.append(f"forcing --k 1 --nmax 8 --family support_ge:2 {gens[8]}".split())
    stem = _fmt_elem((p, 1) for p in sorted(rng.sample(range(7), 2)))
    argv.append(
        f"forcing --k 1 --nmax 7 --family explicit:f2.txt --stem {stem} {gens[7]}".split()
    )
    return files, argv


def _session(rng: random.Random):
    argv = []
    for k, length, nmax in ((1, 12, 30), (1, 12, 30), (2, 7, 20)):
        seq = _fmt_seq(_rand_seq(rng, k, length, nmax))
        argv.append(["span", "--k", str(k), "--nmax", str(nmax), seq])
        argv.append(["span", "--k", str(k), "--nmax", str(nmax), "--json", seq])
    for k in (1, 2, 3):
        for _ in range(3):
            blocks = _rand_seq(rng, k, 6, 18)
            chosen = sorted(rng.sample(range(6), 3))
            # a member: a sum of tetris images with exponent 0 on one block
            elem = []
            for n, i in enumerate(chosen):
                j = 0 if n == 0 else rng.randrange(k)
                elem += [(p, v - j) for p, v in blocks[i] if v > j]
            elem.sort()
            seq = _fmt_seq(blocks)
            argv.append(["member", "--k", str(k), "--in", seq, _fmt_elem(elem)])
            other = _fmt_elem(_rand_elem(rng, k, 18, 4))
            argv.append(["member", "--k", str(k), "--in", seq, "--json", other])
    for k in (2, 3, 4):
        for _ in range(3):
            x = _fmt_elem(_rand_elem(rng, k, 16, 6))
            argv.append(["tetris", "--k", str(k), "--j", str(rng.randint(1, k)), x])
            argv.append(["sos", "--k", str(k), x])
            argv.append(["theta-inv", "--k", str(k), "--delta", "1/3", x])
    for k in (2, 3):
        for _ in range(3):
            exps = _rand_values(rng, sorted(rng.sample(range(16), 5)), k)
            netfn = ",".join(f"{p}:{k - v}" for p, v in exps)
            argv.append(["theta", "--k", str(k), "--json", netfn])
    for k in (1, 2):
        for _ in range(2):
            seq = _fmt_seq(_rand_seq(rng, k, 5, 16))
            argv.append(["mu", "--k", str(k), seq])
            argv.append(["sos", "--k", str(k), "--zero-convention", "first-zero", seq.split(";")[0]])
    for k in (1, 2, 3, 4):
        argv.append(["tk", str(k)])
    argv.append(["kfor", "1/200"])
    argv.append(["kfor", "--json", "1/400"])
    files = {}
    for n in range(3):
        name = f"base{n}.txt"
        files[name] = "".join(_fmt_seq(_rand_seq(rng, 1, 6, 16)) + "\n" for _ in range(3))
        target = _fmt_seq(_rand_seq(rng, 1, 6, 16))
        argv.append(["top-member", "--k", "1", "--nmax", "16", "--family", name, "--len", "2", target])
    for n, (k, length) in enumerate(((1, 8), (2, 6), (1, 8))):
        name = f"chain{n}.txt"
        chain = [_rand_seq(rng, k, length, 16)]
        for _ in range(5):
            chain.append(_condense(rng, chain[-1]))
        files[name] = "".join(_fmt_seq(c) + "\n" for c in chain)
        argv.append(["diagonal", "--k", str(k), "--nmax", "16", "--lenmax", "4", "--chain", name])
    return files, argv


def build(workload: str, seed: int):
    """The (files, argv list) of a workload at a seed.

    files maps a bare file name to its text; the queries name those files
    relative to the directory they are written in.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed % VARIANTS}")
    return {"search": _search, "scan": _scan, "session": _session}[workload](rng)
