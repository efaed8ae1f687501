"""Cross-checking symbolic output against Taylor jets of F^2.

Every geometric object can be recomputed at sample points purely from
one truncated Taylor jet of F^2 per point (derivatives exact to machine
precision, no finite differencing).  The verifier samples the
domain box, rejects points that violate the declared constraints, and
compares componentwise at relative tolerance 1e-9.
"""

from finslercalc import FinslerStructure, NumericPoint, build, numeric_object, verify_many

fs = FinslerStructure(
    dim=3,
    coord_names=["x1", "x2", "x3"],
    fiber_names=["y1", "y2", "y3"],
    f_squared="x3*y1^3/y2 + y3^2",
    constraints=["x3 != 0", "y2 != 0"],
)
geom = build(fs)

# a single numeric table, straight from F^2 jets
point = NumericPoint(x=(1.0, 1.0, 2.0), y=(1.0, 3.0, 1.0))
g = numeric_object(geom, "g", point)
print("numeric g at", point)
for row in g:
    print("  ", [f"{v: .6f}" for v in row])

# verify a batch of objects over shared sample points
reports = verify_many(
    geom,
    ["g", "ginv", "Gamma", "R:cartan", "P:cartan", "S:cartan", "hcov:g:cartan"],
    n_points=8,
    tol=1e-9,
    seed=42,
)
print()
for report in reports.values():
    print(report.summary())
assert all(r.passed for r in reports.values())
