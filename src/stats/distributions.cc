#include "stats/distributions.hh"

#include <math.h>

#include <cmath>

#include "sim/logging.hh"

namespace varsim
{
namespace stats
{

namespace
{

/**
 * log|Gamma(x)|. std::lgamma also stores the sign in the global
 * signgam, a data race when several runs on host threads compute
 * confidence intervals at once; lgamma_r returns the same value
 * without that write.
 */
double
logGamma(double x)
{
    int sign = 0;
    return ::lgamma_r(x, &sign);
}

/**
 * Continued-fraction kernel for the incomplete beta function
 * (Numerical Recipes style, modified Lentz algorithm).
 */
double
betaContinuedFraction(double a, double b, double x)
{
    constexpr int maxIter = 300;
    constexpr double eps = 3e-14;
    constexpr double fpmin = 1e-300;

    const double qab = a + b;
    const double qap = a + 1.0;
    const double qam = a - 1.0;
    double c = 1.0;
    double d = 1.0 - qab * x / qap;
    if (std::fabs(d) < fpmin)
        d = fpmin;
    d = 1.0 / d;
    double h = d;
    for (int m = 1; m <= maxIter; ++m) {
        const double m2 = 2.0 * m;
        double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        h *= d * c;
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if (std::fabs(d) < fpmin)
            d = fpmin;
        c = 1.0 + aa / c;
        if (std::fabs(c) < fpmin)
            c = fpmin;
        d = 1.0 / d;
        const double del = d * c;
        h *= del;
        if (std::fabs(del - 1.0) < eps)
            break;
    }
    return h;
}

/**
 * Generic monotone-CDF inversion by bisection on [lo, hi].
 */
template <typename Cdf>
double
invertCdf(Cdf cdf, double p, double lo, double hi)
{
    // Expand the bracket if needed.
    for (int i = 0; i < 200 && cdf(lo) > p; ++i)
        lo *= 2.0;
    for (int i = 0; i < 200 && cdf(hi) < p; ++i)
        hi *= 2.0;
    for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (cdf(mid) < p)
            lo = mid;
        else
            hi = mid;
        if (hi - lo < 1e-12 * (1.0 + std::fabs(hi)))
            break;
    }
    return 0.5 * (lo + hi);
}

} // anonymous namespace

double
incompleteBeta(double a, double b, double x)
{
    VARSIM_ASSERT(a > 0.0 && b > 0.0, "incompleteBeta: bad shape");
    VARSIM_ASSERT(x >= 0.0 && x <= 1.0, "incompleteBeta: x=%f", x);
    if (x == 0.0)
        return 0.0;
    if (x == 1.0)
        return 1.0;
    const double lbeta = logGamma(a + b) - logGamma(a) -
                         logGamma(b) + a * std::log(x) +
                         b * std::log1p(-x);
    const double front = std::exp(lbeta);
    if (x < (a + 1.0) / (a + b + 2.0))
        return front * betaContinuedFraction(a, b, x) / a;
    return 1.0 - front * betaContinuedFraction(b, a, 1.0 - x) / b;
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalQuantile(double p)
{
    VARSIM_ASSERT(p > 0.0 && p < 1.0, "normalQuantile: p=%f", p);
    return invertCdf(normalCdf, p, -1.0, 1.0);
}

double
studentTCdf(double t, double df)
{
    VARSIM_ASSERT(df > 0.0, "studentTCdf: df=%f", df);
    const double x = df / (df + t * t);
    const double tail = 0.5 * incompleteBeta(df / 2.0, 0.5, x);
    return t >= 0.0 ? 1.0 - tail : tail;
}

double
studentTQuantile(double p, double df)
{
    VARSIM_ASSERT(p > 0.0 && p < 1.0, "studentTQuantile: p=%f", p);
    auto cdf = [df](double t) { return studentTCdf(t, df); };
    return invertCdf(cdf, p, -1.0, 1.0);
}

double
tCriticalTwoSided(double confidence, double df)
{
    VARSIM_ASSERT(confidence > 0.0 && confidence < 1.0,
                  "confidence=%f out of (0,1)", confidence);
    const double p = 0.5 * (1.0 + confidence);
    if (df >= 49.0)
        return normalQuantile(p);
    return studentTQuantile(p, df);
}

double
tCriticalOneSided(double alpha, double df)
{
    VARSIM_ASSERT(alpha > 0.0 && alpha < 1.0, "alpha=%f", alpha);
    if (df >= 49.0)
        return normalQuantile(1.0 - alpha);
    return studentTQuantile(1.0 - alpha, df);
}

double
fCdf(double f, double d1, double d2)
{
    VARSIM_ASSERT(d1 > 0.0 && d2 > 0.0, "fCdf: bad df");
    if (f <= 0.0)
        return 0.0;
    const double x = d1 * f / (d1 * f + d2);
    return incompleteBeta(d1 / 2.0, d2 / 2.0, x);
}

double
fQuantile(double p, double d1, double d2)
{
    VARSIM_ASSERT(p > 0.0 && p < 1.0, "fQuantile: p=%f", p);
    auto cdf = [d1, d2](double f) { return fCdf(f, d1, d2); };
    return invertCdf(cdf, p, 1e-9, 10.0);
}

} // namespace stats
} // namespace varsim
