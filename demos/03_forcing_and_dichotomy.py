"""Combinatorial forcing and the two-alternative dichotomy.

Fix a family of finite block sequences.  A sequence B ACCEPTS a stem when
every maximal branch extending the stem through [B] picks up an initial
segment in the family, and REJECTS it when no windowed condensation of B
accepts.  The dichotomy looks below a given sequence for either a
condensation whose extension tree misses the family entirely, or one that
accepts outright.

Run:  python demos/03_forcing_and_dichotomy.py
"""

from finkit import (
    BlockSeq,
    FamilySpec,
    Window,
    accepts,
    decides,
    galvin_dichotomy,
    generators,
    open_set_ramsey,
    parse_seq,
    rejects,
)

w = Window(1, 4, 4)
B = generators(1, 4)
empty = BlockSeq(1, ())

singletons = FamilySpec("all_singletons")
print(f"Family: all length-1 sequences.  accepts(B, <>)? "
      f"{accepts(B, empty, singletons, w).holds}  (first pick is always a member)")

nothing = FamilySpec("empty")
res = accepts(B, empty, nothing, w)
print(f"Empty family: accepts={res.holds}, avoiding branch {res.branch}")
print(f"             rejects={rejects(B, empty, nothing, w).holds}")
print()

only_01 = FamilySpec.explicit([parse_seq("0:1,1:1", 1)])
v = decides(B, empty, only_01, w)
print(f"Family {{(0:1,1:1)}}: status = {v.status}")
print(f"  a branch avoiding it:        {v.branch}")
print(f"  a condensation accepting it: {v.condensation}")
print("  so B itself decides nothing here; the window records both certificates")
print()

w8 = Window(1, 8, 8)
A = generators(1, 8)
even_first = FamilySpec("min_even_first")
d = galvin_dichotomy(A, empty, even_first, 3, w8)
print(f"Dichotomy for 'first element starts even', length 3 below A:")
print(f"  alternative {d.alternative} with witness {d.witness}")
print("  every span element of the witness starts at an even position")
print()

wide = FamilySpec("support_ge", 2)
d = galvin_dichotomy(A, empty, wide, 2, w8)
print(f"Dichotomy for 'every element has support size >= 2':")
print(f"  alternative {d.alternative} with witness {d.witness}")
print()

print("The same search decides basic open sets against a cone:")
for F, label in ((nothing, "empty family"), (even_first, "even-start family")):
    r = open_set_ramsey(F, A, 3, w8)
    print(f"  {label}: cone of {r.witness} lies {r.side} the open set")
