"""dehn4: exact-arithmetic obstruction pipelines for embedded balls and
solid tori in the boundaries of 4-manifolds.

Modules by topic:
  exact       sparse fraction-free Bareiss determinant and signature
              on sparse rows, and the checked-leaf layer of seifert:
              the trust boundary and a checked matrix's invariants
              from its distinct blocks
  laurent     integer Laurent polynomials (Alexander polynomials)
  factor      factorization over Z of small-degree polynomials
              (Yun, Berlekamp, Hensel lifting, Zassenhaus)
  seifert     Seifert matrices as sparse rows, table knots and derived
              matrices in closed form, Alexander polynomials,
              signatures, sliceness verdicts
  foxmilnor   the Fox-Milnor test on an Alexander polynomial
  forms       even form classes a*E8 + b*H, splitting enumeration under
              Rokhlin constraints, lens-space QR test
  scenarios   the named end-to-end obstruction reports, with the torus
              presentation and its boundary torus in closed form in n:
              the self-linking form n*x^2 - x*y and its two zero classes,
              built once per n as steps shared by the reports at that n
  report      deterministic text and JSON rendering; a shared step keeps
              its rendered text and JSON item
  cli         the `dehn4 report` command line
"""

from .scenarios import Report, Scenario, Verdict, build_scenario, run_scenario
from .report import render

__version__ = "0.1.0"

__all__ = [
    "Report",
    "Scenario",
    "Verdict",
    "build_scenario",
    "run_scenario",
    "render",
    "__version__",
]
