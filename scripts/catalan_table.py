"""Print the colon table (y^{2n}, u^{2n}, v^{2n}) : (yuv)^n on the quadric
hypersurface Q[x,y,u,v]/(xy - ux^2 - vy^2) and check each row against the
closed form x - yv * sum_{i<=n-2} C_i (uv)^i built from Catalan numbers.
Exits 1 if any row does not match.

Usage: python scripts/catalan_table.py [n_max]   (default 5; 9 takes about
2 s on a shared 2-vCPU Xeon VM, 0.6 s of it for row 9)
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from limclose.polycore import Polynomial, catalan_truncated_generating_poly
from limclose.idealops import Ideal
from limclose.localring import LocalRingContext, SequenceInR, local_equal
from limclose.limitclosure import colon_step


def main(n_max=5):
    V = ("x", "y", "u", "v")
    x, y, u, v = (Polynomial.variable(n, V) for n in V)
    f = x * y - u * x ** 2 - v * y ** 2
    ctx = LocalRingContext(V, Ideal(V, [f]))
    seq = SequenceInR([y, u, v], ctx)
    print(f"ring: Q[x,y,u,v]/({f}), colon rows n = 1..{n_max}")
    mismatches = 0
    for n in range(1, n_max + 1):
        t0 = time.monotonic()
        a_n = x if n == 1 else \
            x - y * v * catalan_truncated_generating_poly("u", "v", n - 2, V)
        colon = colon_step(seq.powers(n), n)
        expected = ctx.adjoin(Ideal(V, [y ** n, u ** n, v ** n, a_n]))
        ok = local_equal(colon, expected, ctx)
        mismatches += not ok
        dt = time.monotonic() - t0
        print(f"n={n}: (y^n,u^n,v^n, a_n) with a_n = {a_n}")
        print(f"      {'matches' if ok else 'MISMATCH'}  [{dt:.1f}s]")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
