"""A 4-dimensional Berwald space and the hv-curvature consistency check.

F = sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2)) has Berwald connection coefficients
that depend on position only, so the space is Berwaldian, hence
Landsbergian, and the hv-curvature of the Cartan connection has to
vanish identically.  A wrong index placement in the hv-curvature formula
produces spurious nonzero components here; the corrected formula
P^i_hjk = (dot-d)_k Gamma^i_hj - C^i_hk|j + C^i_hm P^m_jk does not.

The zero comes from a theorem: a space is Berwald exactly when the Cartan
tensor is h-parallel, C_hij|k = 0 (Matsumoto 1986; Bao, Chern and Shen
2000), so on a Berwald space finslercalc returns every hv-curvature as the
zero tensor without building its terms.  Two witnesses check it: the
generic h-covariant derivative C^i_hk|j (object id hcov:Cmixed:cartan)
is canonically zero, and the jet oracle, which builds P from its own
formula, finds both tensors zero at sample points.
"""

from finslercalc import ConnectionKind, FinslerStructure, build, nonzero_components, resolve, verify

fs = FinslerStructure.from_f(
    dim=4,
    coord_names=["x1", "x2", "x3", "x4"],
    fiber_names=["y1", "y2", "y3", "y4"],
    f_text="sqrt(x1*y4*sqrt(y1^2+y2^2+y3^2))",
    constraints=["x1 != 0", "y4 != 0", "y1^2+y2^2+y3^2 != 0"],
)
geom = build(fs)

print("F^2 =", fs.f_squared)

print("\nnonvanishing Berwald connection coefficients:")
for entry in nonzero_components(geom.berwald_coefficients(), constraints=fs.constraints):
    idx = " ".join(fs.ctx.coord_names[i - 1] for i in entry.index)
    print(f"  G[{idx}] = {entry.expr}")

cls = geom.classify()
print("\nclassification:", cls)
assert cls.berwaldian, "coefficients above depend on position only"

p = geom.curvature(ConnectionKind.CARTAN, "hv")
print("Cartan hv-curvature is identically zero:", p.is_zero_tensor())

# the theorem's witness: the Cartan tensor is h-parallel, computed component
# by component
c_h = resolve(geom, "hcov:Cmixed:cartan")
print("C^i_hk|j is identically zero:", c_h.is_zero_tensor())
assert c_h.is_zero_tensor()

# cross-check both tensors against the numeric jet oracle
for object_id in ("P:cartan", "hcov:Cmixed:cartan"):
    report = verify(geom, object_id, n_points=8, tol=1e-9, seed=1)
    print(report.summary())
    assert report.passed

# dimension independence: the same pipeline ran in dimension 4 here and
# runs in dimension 3 in demos/worked_example_3d.py with no special cases
