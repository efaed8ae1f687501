"""The full object registry across dimensions 2 through 5.

Nothing in the pipeline is tied to one dimension: every registered
object computes for flat metrics and for rationally perturbed ones in
each dimension.
"""

import time

from finslercalc import FinslerStructure, base_object_ids, build, resolve

for dim in (2, 3, 4, 5):
    coords = [f"x{i}" for i in range(1, dim + 1)]
    fibers = [f"y{i}" for i in range(1, dim + 1)]
    flat = " + ".join(f"y{i}^2" for i in range(1, dim + 1))
    for label, f2, constraints in (
        ("euclidean", flat, ()),
        ("perturbed", flat + " + x1*y1^3/y2", ("y2 != 0",)),
    ):
        t0 = time.perf_counter()
        geom = build(FinslerStructure(dim, coords, fibers, f2, constraints))
        for object_id in base_object_ids():
            resolve(geom, object_id)
        cls = geom.classify()
        print(
            f"dim {dim} {label:9s}: {len(base_object_ids())} objects in "
            f"{time.perf_counter() - t0:6.2f}s  riemannian={cls.riemannian} "
            f"berwaldian={cls.berwaldian}"
        )
