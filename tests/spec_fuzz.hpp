/**
 * @file
 * The `.sweep` text generators the spec fuzzers share: valid specs for
 * the parser (test_sweep_spec), lint-flavoured specs with an unknown
 * application in the mix (test_lint), random printable bytes, and the
 * one mutation (truncate, splice garbage, delete a span, or keep) both
 * fuzzers apply. test_sweep_schema replays all of them through the
 * parser and the lint-mode walker side by side.
 */

#ifndef QCCD_TESTS_SPEC_FUZZ_HPP
#define QCCD_TESTS_SPEC_FUZZ_HPP

#include <sstream>
#include <string>

#include "common/rng.hpp"

namespace qccd::spec_fuzz
{

/** A spec the parser accepts: 1-3 grids over builtin apps. */
inline std::string
randomValidSpecText(Rng &rng)
{
    static const char *kApps[] = {"qft", "bv", "adder", "qaoa"};
    static const char *kGates[] = {"AM1", "AM2", "PM", "FM"};
    std::ostringstream out;
    out << "{\"name\": \"fuzz" << rng.nextInt(0, 99)
        << "\", \"sweeps\": [";
    const int grids = rng.nextInt(1, 3);
    for (int g = 0; g < grids; ++g) {
        out << (g ? ", " : "") << "{\"apps\": [\""
            << kApps[rng.nextInt(0, 3)] << "\"]";
        if (rng.nextBool())
            out << ", \"capacity\": [" << rng.nextInt(2, 34) << ", "
                << rng.nextInt(2, 34) << "]";
        if (rng.nextBool())
            out << ", \"gate\": \"" << kGates[rng.nextInt(0, 3)] << "\"";
        if (rng.nextBool())
            out << ", \"params\": {\"heating_k1\": "
                << rng.nextDouble() << "}";
        if (rng.nextBool())
            out << ", \"options\": {\"decompose_runtime\": "
                << (rng.nextBool() ? "true" : "false") << "}";
        out << "}";
    }
    out << "]}";
    return out.str();
}

/** A one-grid spec that may name an unknown app, a capacity below 2 or
 *  a zero-trap topology. */
inline std::string
randomLintSpecText(Rng &rng)
{
    static const char *kApps[] = {"qft", "bv", "adder", "nonesuch"};
    std::ostringstream out;
    out << "{\"name\": \"fuzz" << rng.nextInt(0, 99)
        << "\", \"sweeps\": [{\"apps\": [\""
        << kApps[rng.nextInt(0, 3)] << "\"]";
    if (rng.nextBool())
        out << ", \"capacity\": [" << rng.nextInt(-2, 30) << "]";
    if (rng.nextBool())
        out << ", \"topology\": \"linear:" << rng.nextInt(0, 8) << "\"";
    if (rng.nextBool())
        out << ", \"params\": {\"heating_k1\": " << rng.nextDouble()
            << "}";
    out << "}]}";
    return out.str();
}

/** Up to 120 random printable-ish bytes. */
inline std::string
randomBytes(Rng &rng)
{
    std::string text;
    const int len = rng.nextInt(0, 120);
    for (int i = 0; i < len; ++i)
        text.push_back(static_cast<char>(rng.nextInt(1, 126)));
    return text;
}

/** Truncate, splice garbage, delete a span, or (one time in four)
 *  keep @p text as generated. */
inline void
mutate(std::string &text, Rng &rng)
{
    const std::string alphabet = "{}[]\",:#.-+eE0123456789abz \n\\\t";
    switch (rng.nextInt(0, 3)) {
      case 0:
        text.resize(rng.nextBelow(text.size() + 1));
        break;
      case 1: {
        const int edits = rng.nextInt(1, 8);
        for (int e = 0; e < edits && !text.empty(); ++e)
            text[rng.nextBelow(text.size())] =
                alphabet[rng.nextBelow(alphabet.size())];
        break;
      }
      case 2: {
        const size_t from = rng.nextBelow(text.size() + 1);
        text.erase(from, rng.nextBelow(text.size() - from + 1));
        break;
      }
      default:
        break; // keep as generated
    }
}

} // namespace qccd::spec_fuzz

#endif // QCCD_TESTS_SPEC_FUZZ_HPP
