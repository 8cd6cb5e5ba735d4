"""Coideal presentations, partition refinement and diagonalization.

Two ways to present a coideal of block sequences at finite scale: test the
peak set (positions where terms attain k) against a family on the integers,
or close a finite base family two-sidedly (membership = a common
condensation exists).  The greedy diagonal builder threads one span element
per step through a decreasing chain, which is the engine behind
semiselectivity arguments.

Run:  python demos/05_coideals_and_diagonals.py
"""

from finkit import (
    BlockSeq,
    CoidealPresentation,
    Window,
    WindowExhausted,
    common_condensation,
    diagonal_build,
    diagonalizes_check,
    generators,
    mu,
    parse_seq,
    partition_refine,
)

k = 2
A = parse_seq("0:2,1:1;3:2,4:2", k)
print(f"mu({A}) = {sorted(mu(A))}  (positions where a term attains {k})")
print()

w = Window(1, 8, 8)
G = generators(1, 8)
evens = BlockSeq(1, tuple(G.elems[i] for i in (0, 2, 4, 6)))
C = common_condensation(evens, G, 3, w)
print(f"Common condensation of the even singletons and all singletons: {C}")
print("  greedy earliest-end picks a maximum chain, so 'absent' is decisive")
print()

coideal = CoidealPresentation("top_of", w, (evens,))
member = parse_seq("0:1,1:1;3:1,4:1", 1)
print(f"Is {member} in the closure coideal of {{{evens}}}?",
      coideal.contains(member, L=1))
print()

res = partition_refine(G, [0, 1, 0, 1, 0, 1, 0, 1], 3, w)
print(f"Split the generators alternately; a length-3 condensation of the "
      f"{res.side} side: {res.witness}")
print()

print("Diagonal through the constant chain = the chain's own terms:")
D = diagonal_build([G], w)
print(f"  {D}")
print(f"  checker agrees: {diagonalizes_check(D, [G], w).ok}")
print()

chain = [BlockSeq(1, G.elems[n:]) for n in range(8)]
D = diagonal_build(chain, w)
print(f"Diagonal through the shrinking chain (drop one term per step): {D}")
print(f"  each pick c_n starts at or past n, so tails stay in the right spans")
print()

bad_chain = [BlockSeq(1, G.elems[n + 2 :]) for n in range(3)]
res = diagonalizes_check(G, bad_chain, w)
print(f"The full sequence does NOT diagonalize a chain that drops terms too fast:")
print(f"  violator {res.violator}: the tail past it contains a term outside the chain entry")
print()

try:
    diagonal_build([BlockSeq(1, ())], Window(1, 4, 4))
except WindowExhausted as e:
    print(f"An empty chain entry exhausts immediately: step {e.step}, partial '{e.partial}'")
