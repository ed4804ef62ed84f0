/**
 * @file
 * Named numeric knobs over SystemConfig — the one source of truth the
 * sweep driver's "overrides" axis, the knob-override label hash and
 * the docs draw from. Each knob is a (name, doc, get, set) row; the
 * names are dotted paths into the config ("token.cmpPredWays"), and
 * everything a sweep may legally search must be listed here so a grid
 * file can never set a field SystemConfig::validate() doesn't cover.
 */

#ifndef TOKENCMP_SYSTEM_KNOBS_HH
#define TOKENCMP_SYSTEM_KNOBS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tokencmp {

struct SystemConfig;

/** One sweepable SystemConfig knob. Every knob is an unsigned
 *  integer field (TOKENCMP_KNOB static_asserts it), carried as a
 *  double, which holds integers exactly up to 2^53, far beyond any
 *  table geometry. */
struct KnobDef
{
    const char *name;  //!< dotted path, e.g. "token.cmpPredEntries"
    const char *what;  //!< one-line description (docs / --help)
    double (*get)(const SystemConfig &);
    /** Assigns by cast: callers check the value is a whole number
     *  in [0, intMax] first. */
    void (*set)(SystemConfig &, double);
    /** Largest value of the knob's unsigned field. */
    std::uint64_t intMax;
};

/** Every named knob, in a fixed documented order (hashes depend on
 *  it — append new knobs at the end). */
const std::vector<KnobDef> &knobTable();

/** Look a knob up by name; nullptr when unknown. */
const KnobDef *findKnob(const std::string &name);

/** Diagnostic helper: comma-separated list of every knob name. */
std::string knobNameList();

/**
 * Hash of the knobs that differ from a default-constructed
 * SystemConfig: "" when every listed knob is at its default, else 8
 * lowercase hex characters stable across runs and platforms.
 * ExperimentResult labels append "@<hash>" so two sweep cells running
 * the same policy under different knob overrides can never collide.
 */
std::string knobOverrideHash(const SystemConfig &cfg);

/** FNV-1a 64-bit over `s` — the stable hash every sweep artifact
 *  (cell hashes, grid fingerprints, knob hashes) is built on. */
std::uint64_t stableHash64(std::string_view s);

/** Lowercase hex rendering of a 64-bit hash (16 chars). */
std::string hashHex(std::uint64_t h);

} // namespace tokencmp

#endif // TOKENCMP_SYSTEM_KNOBS_HH
