"""The .osr text format, verification reports, and DOT diagrams.

Everything here is also reachable from the command line:

    osr check --builder zmod:6 --json
    osr dot idl --builder zmod:6
    osr validate mysemiring.osr
"""

import osr
from osr.dot import emit_dot
from osr.osrfile import parse, render
from osr.report import run_checks

# Serialize a builtin, read it back, and validate the description.
text = render(osr.build_zmod(4).describe())
print(text)
A = osr.validate(parse(text))
print("parsed + validated:", A)

# The report runs all fourteen theorem checks and is byte-stable in its
# machine form (timings live only in the human rendering).
report = run_checks(A)
print(report.human())
print("json bytes:", len(report.to_json()))

# Hasse diagrams and the spectrum's specialization order render as DOT.
print(emit_dot("idl", osr.build_zmod(6)))
print(emit_dot("spec", osr.build_chain_lattice(3)))
