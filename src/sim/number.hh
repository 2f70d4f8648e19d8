/**
 * @file
 * The one rule by which every front end reads a number typed by a
 * person or sent as text by a client: CLI flags, knob values, the
 * sample spec's U:W:M and confidence, a submission's priority. The
 * whole text is the number or it is refused, leaving @p out
 * untouched. (Manifests and wire numbers keep sim::JsonLine's rules.)
 */

#ifndef VARSIM_SIM_NUMBER_HH
#define VARSIM_SIM_NUMBER_HH

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <type_traits>

namespace varsim
{
namespace sim
{

/**
 * An integer in range for @p T, in decimal digits: a count (an
 * unsigned @p T) is digits only, an int may lead with '-'; no '+',
 * no blanks.
 */
template <typename T>
    requires std::is_integral_v<T>
bool
parseInteger(std::string_view text, T &out)
{
    const char *last = text.data() + text.size();
    T v{};
    const auto [ptr, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || ptr != last)
        return false;
    out = v;
    return true;
}

/** A real: what strtod reads, all of @p text, and finite. */
inline bool
parseReal(const std::string &text, double &out)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (text.empty() || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace sim
} // namespace varsim

#endif // VARSIM_SIM_NUMBER_HH
