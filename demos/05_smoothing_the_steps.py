"""From step profiles to C^1 data without losing the certificate.

The closed-form constructions use sharp indicator profiles, but the
blow-up theorem wants C^1 phase-space densities.  Replacing every jump
with a cubic smoothstep ramp of half-width delta keeps the profiles
non-negative and compactly supported; re-solving the zero-energy condition
on the smoothed profiles restores the energy balance.  As delta shrinks,
every functional drifts back to its step value, so the certification
margins survive smoothing.
"""

from virial_forge import (
    CoreHaloParams,
    MollifySpec,
    check_criteria,
    core_halo_ansatz,
    evaluate,
    functional_drift,
    rebalance,
    seam_smoothness,
    solve_corehalo_alpha,
)
from virial_forge.mollifier import default_delta

print(__doc__)

alpha = solve_corehalo_alpha(0.2, 1.0, 2.0, 1.0)
params = CoreHaloParams(r1=0.2, r2=1.0, r3=2.0, p=1.0, alpha=alpha, a=-0.85)
step = core_halo_ansatz(params)
step_report = evaluate(step)
feature = default_delta(step, fraction=1.0)
print(f"Smallest feature across the three factors: {feature:g}")
print(f"Step-profile halo level: {alpha:.10e}\n")

keys = ("kinetic", "potential", "virial", "l32_norm")
header = "  ".join(f"{k:>12}" for k in keys)
print(f"{'delta':>10}  {'halo level':>14}  {header}   seam")
for frac in (1e-2, 1e-3, 1e-4):
    spec = MollifySpec(delta=frac * feature)
    new_params, smooth = rebalance(params, step, spec)
    drift = functional_drift(step_report, evaluate(smooth))
    drifts = "  ".join(f"{drift[k]['drift']:>12.3e}" for k in keys)
    seam = max(
        seam_smoothness(smooth.spatial),
        seam_smoothness(smooth.momentum),
        seam_smoothness(smooth.angular),
    )
    print(f"{spec.delta:>10.2e}  {new_params.alpha:>14.8e}  {drifts}   {seam:.1e}")

spec = MollifySpec(delta=1e-3 * feature)
_, smooth = rebalance(params, step, spec)
cert = check_criteria(smooth)
print(f"\nCertificate for the smoothed datum (delta = {spec.delta:g}, a = {params.a}):")
print(f"  energy residual {cert.energy_residual:.2e}")
print(f"  virial          {cert.report.virial:+.7f} (margin {cert.virial_margin:+.2e})")
print(f"  norm margin     {cert.norm_margin:+.5f}")
print(f"  verdict: {'pass' if cert.passed else 'fail'}")
