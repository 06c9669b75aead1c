"""Physical constants and shared numerical tolerances.

All dynamics in this package uses hbar = 1: Hamiltonian matrix elements carry
angular-frequency units (rad/s) and times are in seconds. Magnetic fields are
in tesla, so Zeeman terms enter as ``g * MU_B_PER_HBAR * B``.
"""

# Bohr magneton over hbar, rad s^-1 T^-1.
MU_B_PER_HBAR = 8.794e10

# Elementary charge, coulomb (exact SI value).
ELEMENTARY_CHARGE = 1.602176634e-19

# Gyromagnetic ratio of the P-31 donor nucleus, rad s^-1 T^-1.
P31_GYROMAGNETIC = 1.0829e8

# Dimensionless nuclear factor that reproduces the P-31 Larmor scale when the
# nuclear Zeeman term is written with the Bohr magneton (the convention used
# throughout this package: H_nuc = g_nuclear * MU_B_PER_HBAR * sigma . B).
G_NUCLEAR_P31 = P31_GYROMAGNETIC / MU_B_PER_HBAR

# Structural tolerance for matrix invariants (hermiticity, unit trace,
# positivity, unitarity).
STRUCTURAL_TOL = 1e-10
