"""Credulous and skeptical acceptance, and the reachability preprocessing.

Acceptance queries for complete, preferred and ideal semantics only depend on
the arguments with a directed path to the query.  For skeptical preferred and
for ideal queries the solver first restricts the framework to those; credulous
complete and preferred queries skip it, because their search already stays
near the query.  This script shows the restriction at work and checks that it
never changes a verdict.

Run with:  python3 demos/02_acceptance_queries.py
"""

import random

import afsolve as afs
from afsolve.tasks import reduce_to_query

rng = random.Random(3)
n = 24
names = [f"x{i}" for i in range(n)]
attacks = [(i, j) for i in range(n) for j in range(n) if rng.random() < 0.08]
af = afs.ArgumentationFramework(names, attacks)
print(f"random framework: {af.n} arguments, {len(af.attacks)} attacks")

query = "x0"
q = af.index_of(query)
print(f"arguments that reach {query}: {af.reverse_reachable(q).bit_count()} of {af.n}")

reduced, rq = reduce_to_query(af, q)
print(f"reduced framework: {reduced.n} arguments")
print()

print(f"{'problem':>8}  reduced  full")
for problem in ("DS-PR", "DC-ID", "DS-ID"):
    spec = afs.TaskSpec.from_problem(problem, query)
    with_reduction = afs.solve(af, spec).verdict
    without = afs.solve(af, spec, reduce_queries=False).verdict
    assert with_reduction == without
    print(f"{problem:>8}  {str(with_reduction):>7}  {without}")
print()

print("acceptance across all semantics for", query)
for sem in afs.Semantics:
    dc = afs.solve(af, afs.TaskSpec(afs.Task.DC, sem, query)).verdict
    ds = afs.solve(af, afs.TaskSpec(afs.Task.DS, sem, query)).verdict
    print(f"  {sem.value:>3}: credulous={dc}  skeptical={ds}")
