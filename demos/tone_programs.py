"""Deflector tone programs behind the measurement bases.

Every measurement ket maps to a multi-tone RF drive: tone x sits at
x * 0.8 MHz and carries the amplitude and phase of the ket component on
mode x.  This script prints the programs for a few representative kets and
checks the round trip back to the ket.
"""

import numpy as np

from qcert import k_basis, ket_from_tone_program, pair_basis, rf_tone_program
from qcert.bases import cglmp_basis


def show(label, projector):
    prog = rf_tone_program(projector)
    print(f"{label}  ({len(prog.tones)} tones)")
    print("   offset/MHz   amplitude   phase/deg")
    for f, amp, phase in prog.tones:
        print(f"   {f:10.1f}   {amp:9.4f}   {np.degrees(phase):+9.1f}")
    back = ket_from_tone_program(prog, projector.dim)
    print(f"   round-trip error: {np.linalg.norm(back - projector.vector):.2e}\n")


def main():
    show("Fourier ket |k=0>, d=10", k_basis(10).projectors[0])
    show("Fourier ket |k=3>, d=10", k_basis(10).projectors[3])
    show("pair superposition (|0> + |5>)/sqrt(2)",
         pair_basis("X", 0, 5, "x", 10).projectors[0])
    show("Bell-test idler ket l=1, setting 1, d=4",
         cglmp_basis("idler", 1, 4).projectors[1])


if __name__ == "__main__":
    main()
