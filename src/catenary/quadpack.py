"""QUADPACK's QAGS, QAGP and QAGI in plain Python (Piessens et al., *QUADPACK*, 1983).

DQAGSE, DQAGPE and DQAGIE (``inf = 1``) with the Gauss-Kronrod rules DQK21 and
DQK15I, Wynn's epsilon algorithm DQELG (``limexp = 50``) and the error-list sort
DQPSRT; d1mach gives way to ``sys.float_info``.  Every floating-point operation
comes in the order of the Fortran, so the returned (result, abserr, ier) equal
those of the compiled library (and of ``scipy.integrate.quad``) bit for bit.
The three routines share one main loop, ``_qag``.  Lists are 1-based, as in the
Fortran: index 0 is a pad.  Conditions that guard a jump are kept as written,
``not (x >= y)`` included, so that a NaN takes the Fortran's branch.
"""

from __future__ import annotations

import sys

__all__ = ["qagse", "qagpe", "qagie"]

_EPMACH = sys.float_info.epsilon  # d1mach(4)
_UFLOW = sys.float_info.min  # d1mach(1)
_OFLOW = sys.float_info.max  # d1mach(2)

# DQK21's 21-point Kronrod nodes xgk(1..10) (the centre is the 11th), their
# weights wgk(1..11) and the 10-point Gauss weights wg(1..5) at xgk(2), xgk(4), ...
_XGK21 = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
          0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
          0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
          0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
          0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK21 = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
          0.149445554002916905664936468389821)
_WG21 = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
         0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
         0.295524224714752870173892994651338)
# 15-point Kronrod nodes of DQK15I with the weights of both rules (the 7-point
# Gauss weights at the odd places are zero), the centre last
_XGK15 = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
          0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
          0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
          0.207784955007898467600689403773245)
_WGK15 = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
          0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
          0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
          0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG15 = (0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
         0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327)


def _qk21(f, a, b):
    """DQK21 on [a, b]: (result, abserr, resabs, resasc), unrolled.

    The 21-point Kronrod rule, with its 10-point Gauss rule for the error
    estimate; fKm and fKp are f at the centre minus and plus d = hlgth * xK.
    """
    x1, x2, x3, x4, x5, x6, x7, x8, x9, x10 = _XGK21
    w1, w2, w3, w4, w5, w6, w7, w8, w9, w10, w11 = _WGK21
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = f(centr)
    f2m, f2p = f(centr - (d := hlgth * x2)), f(centr + d)
    f4m, f4p = f(centr - (d := hlgth * x4)), f(centr + d)
    f6m, f6p = f(centr - (d := hlgth * x6)), f(centr + d)
    f8m, f8p = f(centr - (d := hlgth * x8)), f(centr + d)
    f10m, f10p = f(centr - (d := hlgth * x10)), f(centr + d)
    f1m, f1p = f(centr - (d := hlgth * x1)), f(centr + d)
    f3m, f3p = f(centr - (d := hlgth * x3)), f(centr + d)
    f5m, f5p = f(centr - (d := hlgth * x5)), f(centr + d)
    f7m, f7p = f(centr - (d := hlgth * x7)), f(centr + d)
    f9m, f9p = f(centr - (d := hlgth * x9)), f(centr + d)
    s2, s4, s6, s8, s10 = f2m + f2p, f4m + f4p, f6m + f6p, f8m + f8p, f10m + f10p
    s1, s3, s5, s7, s9 = f1m + f1p, f3m + f3p, f5m + f5p, f7m + f7p, f9m + f9p
    g1, g2, g3, g4, g5 = _WG21
    resg = g1 * s2 + g2 * s4 + g3 * s6 + g4 * s8 + g5 * s10
    resk = w11 * fc
    resabs = (abs(resk) + w2 * (abs(f2m) + abs(f2p)) + w4 * (abs(f4m) + abs(f4p))
              + w6 * (abs(f6m) + abs(f6p)) + w8 * (abs(f8m) + abs(f8p))
              + w10 * (abs(f10m) + abs(f10p)) + w1 * (abs(f1m) + abs(f1p))
              + w3 * (abs(f3m) + abs(f3p)) + w5 * (abs(f5m) + abs(f5p))
              + w7 * (abs(f7m) + abs(f7p)) + w9 * (abs(f9m) + abs(f9p)))
    resk = (resk + w2 * s2 + w4 * s4 + w6 * s6 + w8 * s8 + w10 * s10
            + w1 * s1 + w3 * s3 + w5 * s5 + w7 * s7 + w9 * s9)
    h = resk * 0.5
    resasc = (w11 * abs(fc - h) + w1 * (abs(f1m - h) + abs(f1p - h))
              + w2 * (abs(f2m - h) + abs(f2p - h)) + w3 * (abs(f3m - h) + abs(f3p - h))
              + w4 * (abs(f4m - h) + abs(f4p - h)) + w5 * (abs(f5m - h) + abs(f5p - h))
              + w6 * (abs(f6m - h) + abs(f6p - h)) + w7 * (abs(f7m - h) + abs(f7p - h))
              + w8 * (abs(f8m - h) + abs(f8p - h)) + w9 * (abs(f9m - h) + abs(f9p - h))
              + w10 * (abs(f10m - h) + abs(f10p - h)))
    dhlgth = abs(hlgth)
    resabs, resasc = resabs * dhlgth, resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qk15i(f, boun, a, b):
    """DQK15I (inf = 1) on [a, b] in (0, 1]: the 15-point rule for f(boun + (1 - t)/t)/t^2."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = (f(boun + (1.0 - centr) / centr) / centr) / centr
    resg = _WG15[7] * fc
    resk = _WGK15[7] * fc
    resabs = abs(resk)
    fv = []
    for xgk, wgk, wg in zip(_XGK15, _WGK15, _WG15):
        absc1, absc2 = centr - hlgth * xgk, centr + hlgth * xgk
        fval1 = f(boun + (1.0 - absc1) / absc1) / absc1 / absc1
        fval2 = f(boun + (1.0 - absc2) / absc2) / absc2 / absc2
        fv.append((fval1, fval2))
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK15[7] * abs(fc - reskh)
    for wgk, (fval1, fval2) in zip(_WGK15, fv):
        resasc = resasc + wgk * (abs(fval1 - reskh) + abs(fval2 - reskh))
    resasc, resabs = resasc * hlgth, resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max(_EPMACH * 50.0 * resabs, abserr)
    return resk * hlgth, abserr, resabs, resasc


def _qelg(n, epstab, res3la, nres):
    """DQELG: Wynn's epsilon algorithm on epstab[1..n]; (n, result, abserr, nres).

    The table and the last three results res3la[1..3] are updated in place.
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = k1 = n
    for i in range(1, newelm + 1):
        res = epstab[k1 + 2]
        e0, e1, e2 = epstab[k1 - 2], epstab[k1 - 1], res
        e1abs = abs(e1)
        delta2, delta3 = e2 - e1, e1 - e0
        err2, err3 = abs(delta2), abs(delta3)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 agree to machine accuracy: convergence is assumed
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
        e3, epstab[k1] = epstab[k1], e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1  # two close elements: omit a part of the table
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        if not (abs(ss * e1) > 1e-4):
            n = i + i - 1  # irregular behaviour: omit a part of the table
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if not (error > abserr):
            abserr = error
            result = res
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib, ie = (2 if num % 2 == 0 else 1), newelm + 1  # shift the table
    epstab[ib:ib + 2 * ie:2] = epstab[ib + 2:ib + 2 * ie + 2:2]
    if num != n:
        epstab[1:n + 1] = epstab[num - n + 1:num + 1]
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = abs(result - res3la[3]) + abs(result - res3la[2]) + abs(result - res3la[1])
        res3la[1:4] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """DQPSRT: keep iord[1..] in descending order of elist; (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
    else:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):  # a subdivision that raised the error
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax = nrmax - 1
        # only the first jupbn places are kept in order: those still to be bisected
        jupbn = last if last <= limit // 2 + 2 else limit + 3 - last
        errmin = elist[last]
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd:  # insert errmax top-down ...
            isucc = iord[i]
            if errmax >= elist[isucc]:
                break
            iord[i - 1] = isucc
            i = i + 1
        if i > jbnd:
            iord[jbnd], iord[jupbn] = maxerr, last
        else:
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):  # ... and errmin bottom-up
                isucc = iord[k]
                if errmin < elist[isucc]:
                    break
                iord[k + 1] = isucc
                k = k - 1
            iord[k + 1] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _finish(summed, result, abserr, ier, ierro, correc, area, errsum, rlist, ksgn, resabs):
    """(result, abserr, ier) after the main loop: labels 100-130 of DQAGSE.

    Takes the sum of the interval results if ``summed`` or if it beats the
    extrapolated result, and tests the extrapolated one for divergence.
    """
    if not summed and abserr == _OFLOW:
        summed = True
    elif not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if summed:
        result = 0.0
        for k in range(1, len(rlist)):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= resabs * 0.01):
        # IEEE's result/area, which may divide by a zero area
        ratio = result / area if area else result * float("inf") if result else float("nan")
        if 0.01 > ratio or ratio > 100.0 or errsum > abs(area):
            ier = 6  # probably divergent
    return result, abserr, ier - 1 if ier > 2 else ier


def _qag(rule, pts, epsabs, epsrel, limit):
    """(result, abserr, ier) of DQAGSE on pts = (a, b), of DQAGPE on pts = (a, *points, b).

    ``rule(lo, hi)`` gives (result, abserr, resabs, resasc) on [lo, hi]: DQK21, or
    DQK15I on pts = (0, 1) for DQAGIE, whose every step is DQAGSE's.  DQAGPE
    differs from DQAGSE in its first pass over the pieces, and in counting
    bisections (``level``) where DQAGSE halves a width (``small``) to find the
    smallest interval.
    """
    nint = len(pts) - 1
    levels = nint > 1
    if limit < nint or epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 5e-29):
        return 0.0, 0.0, 6
    pieces = [rule(lo, hi) for lo, hi in zip(pts, pts[1:])]
    if levels:
        result = abserr = resabs = 0.0
        for area1, error1, defabs, _ in pieces:
            abserr = abserr + error1
            result = result + area1
            resabs = resabs + defabs
    else:
        [(result, abserr, resabs, resasc)] = pieces
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 2 if abserr <= 100.0 * _EPMACH * resabs and abserr > errbnd else 0
    if limit <= nint:
        ier = 1
    if (ier != 0 or abserr <= errbnd and (levels or abserr != resasc)
            or abserr == 0.0 and not levels):
        return result, abserr, ier
    # the interval lists; a piece whose rule saw no variation takes the whole error
    alist, blist, iord = [0.0, *pts[:-1]], [0.0, *pts[1:]], list(range(nint + 1))
    rlist = [0.0, *(area1 for area1, _, _, _ in pieces)]
    elist = [0.0, *(abserr if err == asc and err != 0.0 else err for _, err, _, asc in pieces)]
    errsum = 0.0
    for error1 in elist[1:]:
        errsum = errsum + error1
    for i in range(1, nint):  # DQAGPE's iord by decreasing error
        ind1 = iord[i]
        for j in range(i + 1, nint + 1):
            ind2 = iord[j]
            if not (elist[ind1] > elist[ind2]):
                ind1, k = ind2, j
        if ind1 != iord[i]:
            iord[k], iord[i] = iord[i], ind1
    rlist2, res3la, nres, numrl2 = [0.0, result] + [0.0] * 51, [0.0] * 4, 0, 1 if levels else 2
    maxerr, errmax, area, abserr, nrmax, ktmin = iord[1], elist[iord[1]], result, _OFLOW, 1, 0
    extrap = noext = summed = False
    erlarg, ertest, small, correc, iroff = errsum, errbnd, 0.0, 0.0, [0, 0, 0]
    level, levmax = [0] * (nint + 1), 1
    ksgn = 1 if dres >= (1.0 - 50.0 * _EPMACH) * resabs else -1  # 1: f keeps its sign

    def large(i):  # interval i is not among the smallest
        return level[i] + 1 <= levmax if levels else abs(blist[i] - alist[i]) > small

    for last in range(nint + 1, limit + 1):
        # bisect the interval of the nrmax-th largest error
        levcur = level[maxerr] + 1
        erlast = errmax
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        b2 = blist[maxerr]
        area1, error1, _, defab1 = rule(a1, b1)
        area2, error2, _, defab2 = rule(b1, b2)
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                iroff[1 if extrap else 0] += 1
            if last > 10 and erro12 > errmax:
                iroff[2] += 1
        level[maxerr] = levcur
        level.append(levcur)
        rlist[maxerr] = area1
        rlist.append(area2)
        errbnd = max(epsabs, epsrel * abs(area))
        ier = 2 if iroff[0] + iroff[1] >= 10 or iroff[2] >= 20 else 0  # round-off
        ierro = 3 if iroff[1] >= 5 else 0
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (abs(b1) + 1000.0 * _UFLOW):
            ier = 4  # bad integrand behaviour at a point of the range
        if error2 > error1:  # the half of larger error takes the place of maxerr
            alist[maxerr], rlist[maxerr], rlist[last], elist[maxerr] = b1, area2, area1, error2
            lo, hi, err = a1, b1, error1
        else:
            blist[maxerr], elist[maxerr] = b1, error1
            lo, hi, err = b1, b2, error2
        alist.append(lo)
        blist.append(hi)
        elist.append(err)
        iord.append(0)
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:  # DQAGSE only
            small, erlarg, ertest, rlist2[2] = abs(pts[1] - pts[0]) * 0.375, errsum, errbnd, area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if levcur + 1 <= levmax if levels else abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            if large(maxerr):
                continue
            extrap, nrmax = True, 2  # the next interval to bisect is the smallest
        if not (ierro == 3 or erlarg <= ertest):
            # the smallest interval has the largest error: bisect a larger one first
            found = False
            for _ in range(nrmax, (last if last <= 2 + limit // 2 else limit + 3 - last) + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                found = large(maxerr)
                if found:
                    break
                nrmax = nrmax + 1
            if found:
                continue
        numrl2 = numrl2 + 1
        rlist2[numrl2] = area
        if numrl2 > 2:  # always so for DQAGSE
            numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
            ktmin = ktmin + 1
            if ktmin > 5 and abserr < 1e-3 * errsum:
                ier = 5
            if not (abseps >= abserr):
                ktmin, abserr, result, correc = 0, abseps, reseps, erlarg
                ertest = max(epsabs, epsrel * abs(reseps))
                if abserr < ertest or abserr == ertest and not levels:
                    break
            if numrl2 == 1:
                noext = True
            if ier == 5:
                break
        maxerr = iord[1]  # bisect the smallest interval next
        errmax = elist[maxerr]
        nrmax, extrap, small, levmax, erlarg = 1, False, small * 0.5, levmax + 1, errsum
    return _finish(summed, result, abserr, ier, ierro, correc, area, errsum, rlist, ksgn,
                   resabs)


def qagse(f, a, b, epsabs, epsrel, limit):
    """QAGS: (result, abserr, ier) of the integral of f over the finite [a, b]."""
    return _qag(lambda lo, hi: _qk21(f, lo, hi), (a, b), epsabs, epsrel, limit)


def qagpe(f, a, b, points, epsabs, epsrel, limit):
    """QAGP: (result, abserr, ier) of f over [a, b], split at the sorted ``points`` inside."""
    return _qag(lambda lo, hi: _qk21(f, lo, hi), (a, *points, b), epsabs, epsrel, limit)


def qagie(f, bound, epsabs, epsrel, limit):
    """QAGI: (result, abserr, ier) of the integral of f over [bound, inf)."""
    return _qag(lambda lo, hi: _qk15i(f, bound, lo, hi), (0.0, 1.0), epsabs, epsrel, limit)
