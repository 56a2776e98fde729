"""The ideal extension from one preferred extension P.

Drop the members of P that a credulously accepted argument attacks, then
shrink to the defended members until the set is a fixed point.  Proof sketch
(Dung, Mancarella & Toni, "Computing ideal sceptical argumentation", AIJ 171
(2007)): the ideal extension I is a subset of P, and no credulously accepted
argument attacks I.  Let A be the largest admissible subset of P minus
attacked(cred), and let E be any preferred extension.  A and E do not attack
each other: if a in A attacked e in E, then E would defend e by attacking a,
and a credulous argument would attack A.  So A | E is admissible, A is a
subset of E by maximality, and hence A = I.
"""

from .framework import ArgumentationFramework, bits
from . import kernel
from .kernel import find_complete


def credulous_profile(af: ArgumentationFramework, p: int) -> int:
    """The members of *p* that some credulously accepted argument attacks.

    Each search asks for a complete extension containing an attacker of a
    member of *p* not yet known to be hit.  A found extension hits at least
    one more member, so there are at most |p| + 1 searches.
    """
    hit = 0
    while True:
        todo = af.attackers_of_set(p & ~hit)
        leaf = find_complete(af, in_clauses=(todo,)) if todo else None
        if leaf is None:
            return hit
        hit |= af.attacked_set(leaf[0]) & p


def ideal_extension(af: ArgumentationFramework) -> int:
    """The unique ideal extension; the shrinking loop ends within n rounds."""
    # looked up on the module, so perfbench's tracer sees this call
    p = kernel.maximize_complete(af)
    x = p & ~credulous_profile(af, p)
    while True:
        x_plus = af.attacked_set(x)
        nxt = 0
        for a in bits(x):
            if af.attackers[a] & ~x_plus == 0:
                nxt |= 1 << a
        if nxt == x:
            return x
        x = nxt
