#!/usr/bin/env python3
"""Turn published Lorentz-violation limits into lattice-spacing upper bounds."""
from bosonwalk import bounds

constants = bounds.PhysicalConstants()
records = bounds.load_experiments(bounds.bundled_catalog_path())
entries = bounds.run_catalog(records, constants)

print(f"planck length {constants.planck_length:.4e} m\n")
print(f"{'experiment':38s} {'dx upper bound':>15s} {'/ planck':>12s}")
numeric = [e for e in entries if isinstance(e, bounds.BoundResult)]
for e in numeric:
    print(f"{e.experiment_id:38s} {e.delta_x_upper_bound:15.4e}"
          f" {e.ratio_to_planck:12.4g}")
for e in entries:
    if isinstance(e, bounds.UnsupportedEntry):
        print(f"{e.experiment_id:38s}   skipped: {e.note}")

tightest = min(numeric, key=lambda e: e.delta_x_upper_bound)
print(f"\ntightest: {tightest.experiment_id}"
      f" at {tightest.delta_x_upper_bound:.3e} m,"
      f" {tightest.ratio_to_planck:.3f} planck lengths")

# --- resonator bounds depend on how the direction average is normalized;
#     the compatibility mode reproduces the published max-spread reading
rec = next(r for r in records if r.kind == bounds.ANISOTROPY)
compat = bounds.anisotropy_bound(rec, constants)
first = bounds.anisotropy_bound(rec, constants, paper_compat=False)
print(f"\n{rec.id}: compat {compat.delta_x_upper_bound:.3e} m,"
      f" first-principles {first.delta_x_upper_bound:.3e} m")

# --- arrival-time spread of a gamma-ray burst for a given energy scale
lag = bounds.time_lag(distance=4.5e25, e_high=1.0e9, e_low=1.0e6,
                      e_qg=1.22e28)
print(f"\nGRB toy numbers: 4.5e25 m baseline, 1 GeV vs 1 MeV,"
      f" E_QG at the planck scale")
print(f"  arrival-time lag {lag:.3e} s")
