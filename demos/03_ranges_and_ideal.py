"""Inside the range machinery and the ideal fixed point.

Semi-stable and stage extensions maximize the range (the set plus everything
it attacks).  This walks through the maximal ranges of a framework with no
stable extension, derives stage extensions per range, and then traces the
two-phase ideal computation.  Everything is cross-checked against the
brute-force reference.

Run with:  python3 demos/03_ranges_and_ideal.py
"""

import afsolve as afs
from afsolve import RangeSemantics, oracle_extensions

# a three-cycle plus a self-attacker hanging off it: no stable extension
af = afs.parse_apx(
    "arg(a). arg(b). arg(c). arg(s)."
    "att(a,b). att(b,c). att(c,a). att(s,s). att(c,s)."
)
show = lambda mask: "{" + ",".join(af.names_of(mask)) + "}"

print("stable extensions:", afs.base_extensions(af, afs.BaseSemantics.STABLE))
print()

# stage maximizes the ranges of conflict-free sets, semi-stable those of
# complete extensions
for sem in (RangeSemantics.STAGE, RangeSemantics.SEMI_STABLE):
    print(f"maximal {sem.value} ranges:")
    for rw in afs.max_ranges(af, sem):
        print(f"  range {show(rw.range_mask)} witnessed by {show(rw.witness)}")
print()

print("stage extensions (stable inside each restricted range):")
for rw in afs.max_ranges(af, RangeSemantics.STAGE):
    sub = af.restrict(rw.range_mask)
    inner = afs.base_extensions(sub.framework, afs.BaseSemantics.STABLE)
    back = [show(sub.to_parent_mask(e)) for e in inner]
    print(f"  range {show(rw.range_mask)}: {back}")
assert set(afs.stage_all(af)) == oracle_extensions(af, "STG")
print("stage_all matches the brute-force reference")
print()

print("semi-stable:", [show(e) for e in afs.semi_stable_all(af)])
assert set(afs.semi_stable_all(af)) == oracle_extensions(af, "SST")
print()

profile = afs.credulous_profile(af)
print("credulously accepted:", show(profile.cred_in))
print("attacked by those:   ", show(profile.cred_attacked))
seed = profile.cred_in & ~profile.cred_attacked
print("fixed-point seed:    ", show(seed))
print("ideal extension:     ", show(afs.ideal_extension(af)))
assert {afs.ideal_extension(af)} == oracle_extensions(af, "ID")
print("ideal matches the brute-force reference")
