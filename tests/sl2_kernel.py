"""The joint kernel of the e, f, h derivations that
`polinv.liealg.sl2_invariant_dimension` replaced by a count of weights, kept
as an independent reference for the tests: it builds the derivation images
of every monomial and eliminates them with `_echelon`, so it shares no code
with the weight count.

On R_d with monomial basis m_i = x^(d-i) y^i the standard operators act as
e.m_i = i m_{i-1}, f.m_i = (d-i) m_{i+1}, h.m_i = (d-2i) m_i.  The induced
derivations on the coefficient variables carry a global minus sign so that
[e, f] = h holds at the operator level; either sign gives the same kernel.
"""

from fractions import Fraction as Q

from polinv.linalg import _echelon, _integer_terms
from polinv.poly import Poly, VariableLayout, monomials


def sl2_derivation_rules(module):
    """Rules (target var, source var, coefficient) for the e, f, h derivations
    on the coefficient variables of R_{d_1} + ... + R_{d_k}."""
    rules_e, rules_f, rules_h = [], [], []
    offset = 0
    for d in module:
        for i in range(d + 1):
            if i >= 1:
                rules_e.append((offset + i - 1, offset + i, -Q(i)))
            if i <= d - 1:
                rules_f.append((offset + i + 1, offset + i, -Q(d - i)))
            if d - 2 * i != 0:
                rules_h.append((offset + i, offset + i, -Q(d - 2 * i)))
        offset += d + 1
    return rules_e, rules_f, rules_h


def apply_derivation(rules, layout, exps):
    """Apply a derivation (given by rules) to a single monomial."""
    terms = {}
    for j, i, a in rules:
        k = exps[j]
        if k:
            ne = list(exps)
            ne[j] = k - 1
            ne[i] += 1
            key = tuple(ne)
            c = terms.get(key, Q(0)) + a * k
            if c == 0:
                terms.pop(key, None)
            else:
                terms[key] = c
    return Poly(layout, terms)


def kernel_sl2_invariant_dimension(module, deg):
    """Dimension of the SL2-invariants of multidegree `deg` in the coefficients
    of R_{d_1} + ... + R_{d_k}, as the joint kernel of the e, f, h derivations:
    one sparse integer row per monomial, its three images side by side."""
    sizes = tuple(d + 1 for d in module)
    layout = VariableLayout(1, sum(sizes))
    monos = monomials(sizes, deg)
    index = {e: i for i, e in enumerate(monos)}
    rows = []
    for e in monos:
        row = {}
        for block, rules in enumerate(sl2_derivation_rules(module)):
            offset = block * len(monos)
            for ee, c in apply_derivation(rules, layout, e)._terms.items():
                row[offset + index[ee]] = c
        rows.append(_integer_terms(row))
    return len(monos) - len(_echelon(rows)[0])
